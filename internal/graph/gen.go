package graph

import (
	"fmt"
	"math/rand"

	"dynspread/internal/unionfind"
)

// Path returns the path 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the n-cycle (a path for n < 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns a star with center 0.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// GenScratch holds the reusable buffers of the in-place generators
// (FillRandomTree, FillRandomConnected, FillRandomRegularish) and of
// Connectify. The zero value is ready to use; a generator that keeps one
// across rounds draws every round's graph without allocating once the
// buffers have grown to the node count. A GenScratch is not safe for
// concurrent use.
type GenScratch struct {
	prufer, degree []int
	perm           []int

	dsu     *unionfind.DSU
	reps    []int
	compOf  []int
	ends    []int
	members []NodeID
	added   []Edge
}

// ints returns buf resized to n, reallocating only when it is too small.
// The contents are stale; callers overwrite every entry they read.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// RandomTree returns a uniformly random labeled tree on n nodes, generated by
// decoding a random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	FillRandomTree(g, rng, new(GenScratch))
	return g
}

// FillRandomTree overwrites g with a uniformly random labeled tree on its
// g.N() nodes — RandomTree in place, with the same draws and the same edges.
func FillRandomTree(g *Graph, rng *rand.Rand, s *GenScratch) {
	g.Clear()
	n := g.N()
	if n <= 1 {
		return
	}
	if n == 2 {
		g.AddEdge(0, 1)
		return
	}
	prufer := ints(s.prufer, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := ints(s.degree, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, p := range prufer {
		degree[p]++
	}
	// Decode: repeatedly attach the smallest leaf to the next Prüfer entry,
	// in linear time. ptr is the last leaf taken by a forward scan; a node
	// that becomes a leaf below ptr is the smallest leaf at once, and one
	// above ptr is found when the scan reaches it. The last edge joins the
	// final leaf to n−1, which is never a leaf before the end.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, p := range prufer {
		g.AddEdge(leaf, p)
		degree[p]--
		if degree[p] == 1 && p < ptr {
			leaf = p
			continue
		}
		ptr++
		for degree[ptr] != 1 {
			ptr++
		}
		leaf = ptr
	}
	g.AddEdge(leaf, n-1)
	s.prufer, s.degree = prufer, degree
}

// RandomConnected returns a connected graph on n nodes with approximately m
// edges (at least n-1): a random spanning tree plus random extra edges. If m
// exceeds the number of possible edges it is clamped.
func RandomConnected(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	FillRandomConnected(g, m, rng, new(GenScratch))
	return g
}

// FillRandomConnected overwrites g with RandomConnected(g.N(), m, rng), in
// place and with the same draws.
func FillRandomConnected(g *Graph, m int, rng *rand.Rand, s *GenScratch) {
	FillRandomTree(g, rng, s)
	n := g.N()
	if maxM := n * (n - 1) / 2; m > maxM {
		m = maxM
	}
	for g.M() < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b)
		}
	}
}

// RandomRegularish returns a connected graph where every node has degree at
// least d and close to d on average, built as the union of ceil(d/2) random
// Hamiltonian cycles (a standard construction for near-regular expanders).
// The result is simple (duplicate edges merge), so degrees may be slightly
// below 2*ceil(d/2) at small n; connectivity is guaranteed by the first
// cycle. d is clamped to [2, n-1].
func RandomRegularish(n, d int, rng *rand.Rand) *Graph {
	g := New(n)
	FillRandomRegularish(g, d, rng, new(GenScratch))
	return g
}

// FillRandomRegularish overwrites g with RandomRegularish(g.N(), d, rng), in
// place and with the same draws.
func FillRandomRegularish(g *Graph, d int, rng *rand.Rand, s *GenScratch) {
	g.Clear()
	n := g.N()
	if n <= 1 {
		return
	}
	if d < 2 {
		d = 2
	}
	if d > n-1 {
		d = n - 1
	}
	cycles := (d + 1) / 2
	perm := ints(s.perm, n)
	for c := 0; c < cycles; c++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			g.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
	s.perm = perm
}

// Grid returns an approximately square rows x cols grid covering n nodes
// (node v at position (v/cols, v%cols)). Used for geometric-ish topologies.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	g := New(n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}

// Connectify adds random edges between components until g is connected,
// returning the edges it added (nil when g already is). Used by generators
// that may produce disconnected graphs (e.g. edge-Markovian evolution). The
// returned slice is s's storage, valid until s is next used.
//
// Component i (in increasing root order) is joined to the union of
// components 0..i-1 by an edge between a random member of that union and a
// random member of component i.
func Connectify(g *Graph, rng *rand.Rand, s *GenScratch) []Edge {
	d := g.DSUInto(s.dsu)
	s.dsu = d
	if d.Components() <= 1 {
		return nil
	}
	reps := d.AppendRepresentatives(s.reps[:0])
	// Lay the members out grouped by component in reps order, each group in
	// increasing node order (a stable counting sort on the component
	// index). Afterwards component i spans members[ends[i-1]:ends[i]], and
	// components 0..i-1 — the union the i-th join draws from — are the
	// prefix members[:ends[i-1]].
	n := g.N()
	compOf := ints(s.compOf, n)
	for i, r := range reps {
		compOf[r] = i
	}
	ends := ints(s.ends, len(reps)+1)
	clear(ends)
	for v := 0; v < n; v++ {
		ends[compOf[d.Find(v)]+1]++
	}
	for i := 1; i < len(ends); i++ {
		ends[i] += ends[i-1]
	}
	members := ints(s.members, n)
	for v := 0; v < n; v++ {
		c := compOf[d.Find(v)]
		members[ends[c]] = v
		ends[c]++
	}
	added := s.added[:0]
	for i := 1; i < len(reps); i++ {
		lo, hi := ends[i-1], ends[i]
		a := members[rng.Intn(lo)]
		b := members[lo+rng.Intn(hi-lo)]
		if g.AddEdge(a, b) {
			added = append(added, NewEdge(a, b))
		}
	}
	s.reps, s.compOf, s.ends, s.members, s.added = reps, compOf, ends, members, added
	return added
}

// Named returns a generator by name — used by the CLI tools.
// Supported: "path", "cycle", "star", "complete", "grid", "tree",
// "random" (m = 2n edges), "regular" (d = 4).
func Named(name string, n int, rng *rand.Rand) (*Graph, error) {
	switch name {
	case "path":
		return Path(n), nil
	case "cycle":
		return Cycle(n), nil
	case "star":
		return Star(n), nil
	case "complete":
		return Complete(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side), nil
	case "tree":
		return RandomTree(n, rng), nil
	case "random":
		return RandomConnected(n, 2*n, rng), nil
	case "regular":
		return RandomRegularish(n, 4, rng), nil
	default:
		return nil, fmt.Errorf("graph: unknown generator %q", name)
	}
}
