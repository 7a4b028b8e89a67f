package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per physical node. 64 points per node
// keeps the keyspace share within a few percent of uniform for small
// fleets while the ring stays tiny (a 16-node cluster is 1024 points).
const vnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over a node set. A node is its
// base URL. Ownership of a key is the first virtual node clockwise from the
// key's hash, so adding or removing one node only moves the keyspace
// adjacent to its points — every other fingerprint keeps its cache shard.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// hash64 maps a label onto the ring circle. SHA-256 (truncated) rather
// than FNV: ownership must agree across every process in the cluster and
// stay uniform even for adversarially similar node names.
func hash64(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over distinct nodes. The list is sorted first, so
// two processes holding the same list in any order build bit-identical
// rings.
func NewRing(nodes []string) *Ring {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	r := &Ring{nodes: sorted, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for ni, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break on the node so equal hashes (astronomically rare but
		// possible) still order identically everywhere.
		return r.nodes[a.node] < r.nodes[b.node]
	})
	return r
}

// Len is the physical-node count.
func (r *Ring) Len() int { return len(r.nodes) }

// successorIndex finds the first ring point at or after h, wrapping.
func (r *Ring) successorIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning key — the first virtual node clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.nodes[r.points[r.successorIndex(hash64(key))].node], true
}

// Successors returns up to n distinct nodes in ring order starting at the
// key's owner. This is the deterministic failover order: when the owner
// dies mid-sweep, every client independently re-dispatches the key to the
// same next node, so the re-built cache entry lands in exactly one place.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.successorIndex(hash64(key)); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
