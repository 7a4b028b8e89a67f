// Package mesh models the 2-D mesh topology of the chip: node coordinates,
// port directions, and the two dimension-order routing functions the paper
// relies on (XY for requests, YX for replies) whose paths through the mesh
// visit exactly the same routers in opposite orders.
package mesh

import "fmt"

// Dir identifies one of the five router ports.
type Dir uint8

const (
	// Local is the port connecting the router to its tile's network
	// interface (cores, caches, memory controllers inject and eject here).
	Local Dir = iota
	North
	East
	South
	West
	// NumDirs is the number of port directions on a mesh router.
	NumDirs
)

// String returns the conventional one-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case Local:
		return "L"
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the direction a flit sent out of port d arrives on at
// the neighbouring router. Opposite(Local) is Local.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// NodeID numbers tiles row-major: id = y*width + x.
type NodeID int

// Mesh describes a Width x Height 2-D mesh.
type Mesh struct {
	Width, Height int
}

// New returns a mesh of the given dimensions. It panics on non-positive
// dimensions because every caller constructs meshes from validated configs.
func New(width, height int) Mesh {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	return Mesh{Width: width, Height: height}
}

// Nodes returns the number of tiles.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the (x, y) coordinates of node id.
func (m Mesh) Coord(id NodeID) (x, y int) {
	return int(id) % m.Width, int(id) / m.Width
}

// Node returns the id of the node at (x, y).
func (m Mesh) Node(x, y int) NodeID { return NodeID(y*m.Width + x) }

// Contains reports whether id is a valid node of the mesh.
func (m Mesh) Contains(id NodeID) bool {
	return id >= 0 && int(id) < m.Nodes()
}

// Neighbor returns the node adjacent to id in direction d and true, or
// (0, false) at a mesh edge or for Local.
func (m Mesh) Neighbor(id NodeID, d Dir) (NodeID, bool) {
	x, y := m.Coord(id)
	switch d {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	default:
		return 0, false
	}
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
		return 0, false
	}
	return m.Node(x, y), true
}

// Hops returns the Manhattan distance between two nodes, which equals the
// number of links any minimal dimension-order route traverses.
func (m Mesh) Hops(a, b NodeID) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Routing selects a deterministic dimension-order routing function.
type Routing uint8

const (
	// RouteXY resolves the X offset first, then Y. The paper routes
	// requests this way.
	RouteXY Routing = iota
	// RouteYX resolves the Y offset first, then X. The paper routes
	// replies this way so a reply visits the same routers as its request.
	RouteYX
)

func (r Routing) String() string {
	if r == RouteXY {
		return "XY"
	}
	return "YX"
}

// NextDir returns the output direction a packet at cur must take toward dst
// under routing r. It returns Local when cur == dst.
func (m Mesh) NextDir(r Routing, cur, dst NodeID) Dir {
	cx, cy := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch r {
	case RouteXY:
		if cx < dx {
			return East
		}
		if cx > dx {
			return West
		}
		if cy < dy {
			return South
		}
		if cy > dy {
			return North
		}
	case RouteYX:
		if cy < dy {
			return South
		}
		if cy > dy {
			return North
		}
		if cx < dx {
			return East
		}
		if cx > dx {
			return West
		}
	}
	return Local
}

// Path returns the ordered list of nodes a packet visits from src to dst
// (inclusive of both endpoints) under routing r.
func (m Mesh) Path(r Routing, src, dst NodeID) []NodeID {
	path := []NodeID{src}
	cur := src
	for cur != dst {
		d := m.NextDir(r, cur, dst)
		next, ok := m.Neighbor(cur, d)
		if !ok {
			panic(fmt.Sprintf("mesh: routing %v fell off the mesh at %d toward %d", r, cur, dst))
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// EdgeNodes returns nodes on the perimeter of the mesh, used to place the
// four memory controllers "distributed in the edges of the chip".
func (m Mesh) EdgeNodes() []NodeID {
	var edges []NodeID
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if x == 0 || y == 0 || x == m.Width-1 || y == m.Height-1 {
			edges = append(edges, id)
		}
	}
	return edges
}

// MemoryControllerNodes places n controllers spread across the four edges,
// one near the middle of each side (matching the paper's 4-MC layout for
// both 16- and 64-node chips). For n != 4 it spaces them evenly along the
// perimeter walk.
func (m Mesh) MemoryControllerNodes(n int) []NodeID {
	if n <= 0 {
		return nil
	}
	if n == 4 {
		return []NodeID{
			m.Node(m.Width/2, 0),            // top edge
			m.Node(m.Width-1, m.Height/2),   // right edge
			m.Node(m.Width/2-1, m.Height-1), // bottom edge
			m.Node(0, m.Height/2-1),         // left edge
		}
	}
	perim := m.perimeterWalk()
	out := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, perim[i*len(perim)/n])
	}
	return out
}

// perimeterWalk lists the border nodes clockwise starting at (0, 0).
func (m Mesh) perimeterWalk() []NodeID {
	if m.Width == 1 && m.Height == 1 {
		return []NodeID{0}
	}
	var walk []NodeID
	for x := 0; x < m.Width; x++ {
		walk = append(walk, m.Node(x, 0))
	}
	for y := 1; y < m.Height; y++ {
		walk = append(walk, m.Node(m.Width-1, y))
	}
	if m.Height > 1 {
		for x := m.Width - 2; x >= 0; x-- {
			walk = append(walk, m.Node(x, m.Height-1))
		}
	}
	if m.Width > 1 {
		for y := m.Height - 2; y >= 1; y-- {
			walk = append(walk, m.Node(0, y))
		}
	}
	return walk
}
