package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8134", i)
	}
	return out
}

// TestRingDeterministic: two rings built from the same node list — in any
// order — route every key identically. This is the property the whole
// cluster leans on: client and nodes never exchange routing tables, they
// just agree by construction.
func TestRingDeterministic(t *testing.T) {
	nodes := ringNodes(5)
	a := NewRing(nodes)
	reversed := make([]string, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	b := NewRing(reversed)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		na, _ := a.Owner(key)
		nb, _ := b.Owner(key)
		if na != nb {
			t.Fatalf("key %q: owner %s vs %s across identical node lists", key, na, nb)
		}
	}
}

// TestRingBalance: with vnodes, no node owns a wildly disproportionate
// keyspace share (each of 4 nodes should see ~25% ± a loose factor).
func TestRingBalance(t *testing.T) {
	r := NewRing(ringNodes(4))
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		n, ok := r.Owner(fmt.Sprintf("fp-%d", i))
		if !ok {
			t.Fatal("owner lookup failed")
		}
		counts[n]++
	}
	for id, c := range counts {
		if c < keys/4/2 || c > keys/4*2 {
			t.Fatalf("node %s owns %d of %d keys — ring badly unbalanced: %v", id, c, keys, counts)
		}
	}
}

// TestRingMinimalMovement: removing one node must not move any key whose
// owner survives — only the dead node's keyspace re-homes.
func TestRingMinimalMovement(t *testing.T) {
	nodes := ringNodes(5)
	before := NewRing(nodes)
	after := NewRing(nodes[:4]) // the fifth node removed
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		ob, _ := before.Owner(key)
		oa, _ := after.Owner(key)
		if ob == nodes[4] {
			moved++
			if oa == nodes[4] {
				t.Fatal("key still owned by a removed node")
			}
			continue
		}
		if ob != oa {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, ob, oa)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingSuccessors: the failover order starts at the owner, never
// repeats a node, and is itself deterministic — every client re-dispatches
// a dead node's key to the same survivor.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(ringNodes(4))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		owner, _ := r.Owner(key)
		succ := r.Successors(key, 4)
		if len(succ) != 4 {
			t.Fatalf("Successors returned %d nodes, want 4", len(succ))
		}
		if succ[0] != owner {
			t.Fatalf("failover order does not start at the owner: %s vs %s", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("failover order repeats %s", n)
			}
			seen[n] = true
		}
	}
	// Clamped when n exceeds the node count.
	if got := r.Successors("k", 99); len(got) != 4 {
		t.Fatalf("Successors(99) = %d nodes", len(got))
	}
	// Empty ring: no owner, no successors.
	empty := NewRing(nil)
	if _, ok := empty.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if got := empty.Successors("k", 3); got != nil {
		t.Fatalf("empty ring returned successors: %v", got)
	}
}
