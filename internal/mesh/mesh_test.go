package mesh

import (
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	m := New(8, 8)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if m.Node(x, y) != id {
			t.Fatalf("round trip failed for %d -> (%d,%d)", id, x, y)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 4)
}

func TestOpposite(t *testing.T) {
	pairs := map[Dir]Dir{North: South, South: North, East: West, West: East, Local: Local}
	for d, want := range pairs {
		if got := d.Opposite(); got != want {
			t.Errorf("Opposite(%v) = %v, want %v", d, got, want)
		}
	}
}

func TestDirString(t *testing.T) {
	want := map[Dir]string{Local: "L", North: "N", East: "E", South: "S", West: "W"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Dir(%d).String() = %q want %q", d, d.String(), s)
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	m := New(4, 4)
	if _, ok := m.Neighbor(m.Node(0, 0), North); ok {
		t.Error("node (0,0) should have no North neighbour")
	}
	if _, ok := m.Neighbor(m.Node(0, 0), West); ok {
		t.Error("node (0,0) should have no West neighbour")
	}
	if n, ok := m.Neighbor(m.Node(0, 0), East); !ok || n != m.Node(1, 0) {
		t.Errorf("East neighbour of (0,0) = %v,%v", n, ok)
	}
	if n, ok := m.Neighbor(m.Node(2, 2), South); !ok || n != m.Node(2, 3) {
		t.Errorf("South neighbour of (2,2) = %v,%v", n, ok)
	}
	if _, ok := m.Neighbor(m.Node(1, 1), Local); ok {
		t.Error("Local has no neighbour")
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := New(5, 3)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		for d := North; d <= West; d++ {
			n, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(n, d.Opposite())
			if !ok2 || back != id {
				t.Fatalf("neighbour symmetry broken at %d dir %v", id, d)
			}
		}
	}
}

func TestHops(t *testing.T) {
	m := New(8, 8)
	if h := m.Hops(m.Node(0, 0), m.Node(7, 7)); h != 14 {
		t.Errorf("corner-to-corner hops = %d, want 14", h)
	}
	if h := m.Hops(3, 3); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestXYPathShape(t *testing.T) {
	m := New(4, 4)
	// XY from (0,0) to (2,2): east, east, south, south.
	p := m.Path(RouteXY, m.Node(0, 0), m.Node(2, 2))
	want := []NodeID{m.Node(0, 0), m.Node(1, 0), m.Node(2, 0), m.Node(2, 1), m.Node(2, 2)}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
}

func TestYXPathShape(t *testing.T) {
	m := New(4, 4)
	p := m.Path(RouteYX, m.Node(0, 0), m.Node(2, 2))
	want := []NodeID{m.Node(0, 0), m.Node(0, 1), m.Node(0, 2), m.Node(1, 2), m.Node(2, 2)}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
}

// TestRequestReplyPathsMatch is the property the whole paper rests on:
// the YX path from B to A visits exactly the routers of the XY path from A
// to B, in reverse order.
func TestRequestReplyPathsMatch(t *testing.T) {
	m := New(8, 8)
	check := func(a, b uint8) bool {
		src := NodeID(int(a) % m.Nodes())
		dst := NodeID(int(b) % m.Nodes())
		fwd := m.Path(RouteXY, src, dst)
		rev := m.Path(RouteYX, dst, src)
		if len(fwd) != len(rev) {
			return false
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPathIsMinimal checks that every DOR path length equals the Manhattan
// distance plus one (for the source node itself).
func TestPathIsMinimal(t *testing.T) {
	m := New(6, 7)
	check := func(a, b uint8) bool {
		src := NodeID(int(a) % m.Nodes())
		dst := NodeID(int(b) % m.Nodes())
		for _, r := range []Routing{RouteXY, RouteYX} {
			if len(m.Path(r, src, dst)) != m.Hops(src, dst)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNextDirAtDestination(t *testing.T) {
	m := New(4, 4)
	if d := m.NextDir(RouteXY, 5, 5); d != Local {
		t.Errorf("NextDir at destination = %v, want Local", d)
	}
	if d := m.NextDir(RouteYX, 5, 5); d != Local {
		t.Errorf("NextDir at destination = %v, want Local", d)
	}
}

func TestMemoryControllerNodesFour(t *testing.T) {
	for _, dim := range []int{4, 8} {
		m := New(dim, dim)
		mcs := m.MemoryControllerNodes(4)
		if len(mcs) != 4 {
			t.Fatalf("want 4 MCs, got %d", len(mcs))
		}
		seen := map[NodeID]bool{}
		for _, id := range mcs {
			if seen[id] {
				t.Fatalf("duplicate MC node %d in %dx%d", id, dim, dim)
			}
			seen[id] = true
			x, y := m.Coord(id)
			if x != 0 && y != 0 && x != dim-1 && y != dim-1 {
				t.Errorf("MC node %d (%d,%d) not on edge", id, x, y)
			}
		}
	}
}

func TestMemoryControllerNodesOther(t *testing.T) {
	m := New(4, 4)
	if got := m.MemoryControllerNodes(0); got != nil {
		t.Errorf("0 MCs should be nil, got %v", got)
	}
	mcs := m.MemoryControllerNodes(2)
	if len(mcs) != 2 || mcs[0] == mcs[1] {
		t.Errorf("2 MCs = %v", mcs)
	}
}

func TestPerimeterWalkCoversEdge(t *testing.T) {
	m := New(5, 4)
	walk := m.perimeterWalk()
	if len(walk) != 2*5+2*4-4 {
		t.Fatalf("perimeter walk length %d", len(walk))
	}
	seen := map[NodeID]bool{}
	for _, id := range walk {
		if seen[id] {
			t.Fatalf("perimeter walk repeats node %d", id)
		}
		seen[id] = true
	}
}

func TestRoutingString(t *testing.T) {
	if RouteXY.String() != "XY" || RouteYX.String() != "YX" {
		t.Error("Routing String() mismatch")
	}
}
