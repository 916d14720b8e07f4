// Package graph provides the dynamic-network substrate of the simulator:
// undirected graph snapshots over a fixed node set V = {0..n-1}, connectivity
// queries, per-round edge diffs (the paper's E+_r and E-_r), σ-edge-stability
// tracking, and a library of graph generators used by the adversaries.
package graph

import (
	"fmt"

	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/unionfind"
)

// NodeID identifies a node; nodes are always 0..n-1.
type NodeID = int

// Edge is an undirected edge in canonical form (U < V).
type Edge struct {
	U, V NodeID
}

// NewEdge returns the canonical (U < V) edge between a and b.
func NewEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Other returns the endpoint of e that is not x. It returns -1 if x is not an
// endpoint.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// String renders the edge as {u,v}.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Graph is a mutable undirected simple graph snapshot over n nodes.
// The zero value is unusable; construct with New.
//
// Adjacency is stored as one adaptive bitset row per node (plus an edge
// counter), so neighbor iteration is naturally sorted — Edges, Neighbors and
// the per-round diffs need no sort — membership is a bit probe, and Clone is
// a word-level copy. At experiment scale the rows sit in one slab
// allocation.
//
// Read accessors that are on the engine's per-round hot path
// (NeighborsShared, Connected) memoize their answer. Any successful AddEdge
// or RemoveEdge invalidates the neighbor lists; the connectivity memo
// survives the mutations that cannot change it (see AddEdge and
// RemoveEdge). A Graph is not safe for concurrent use, even read-only,
// because of this lazy memoization and because the connectivity queries
// run their BFS in scratch the graph owns.
type Graph struct {
	n   int
	m   int
	adj []adaptive.Set

	// Lazy snapshot caches, empty/0 when stale: flat is the per-node sorted
	// adjacency (subslices of flatBase), conn the memoized connectivity
	// (+1 connected, -1 disconnected). Invalidation keeps flat's and
	// flatBase's storage, so a graph that is rewritten in place every round
	// rebuilds its neighbor lists without allocating.
	flat     [][]NodeID
	flatBase []NodeID
	conn     int8
	// safeCut, while safeCutOK, is an edge whose removal ConnectedWithout
	// has shown keeps the graph connected; edges added since cannot change
	// that, any removal clears it.
	safeCut   Edge
	safeCutOK bool

	// BFS scratch of Connected/ConnectedWithout, created on first use:
	// the visited set and the queue.
	seen  adaptive.Set
	queue []NodeID
}

// invalidate drops the lazy snapshot caches after an arbitrary rewrite.
func (g *Graph) invalidate() {
	g.flat = g.flat[:0]
	g.conn = 0
	g.safeCutOK = false
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: adaptive.NewSlice(n, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the edge {a,b}. It reports whether the edge was newly
// inserted (false for self-loops, out-of-range endpoints, or existing edges).
// A graph known to be connected stays known connected.
func (g *Graph) AddEdge(a, b NodeID) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	if !g.adj[a].Insert(b) {
		return false
	}
	g.adj[b].Insert(a)
	g.m++
	g.flat = g.flat[:0]
	if g.conn < 0 {
		g.conn = 0
	}
	return true
}

// RemoveEdge deletes the edge {a,b}, reporting whether it existed. A graph
// known to be disconnected stays known disconnected, and a connected graph
// stays known connected when the edge is the one ConnectedWithout last
// approved (so a generator that tests an edge and then cuts it does not pay
// for a second connectivity check).
func (g *Graph) RemoveEdge(a, b NodeID) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	if !g.adj[a].Delete(b) {
		return false
	}
	g.adj[b].Delete(a)
	g.m--
	g.flat = g.flat[:0]
	if g.conn > 0 && !(g.safeCutOK && g.safeCut == NewEdge(a, b)) {
		g.conn = 0
	}
	g.safeCutOK = false
	return true
}

// HasEdge reports whether {a,b} is present.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	return g.adj[a].Contains(b)
}

// Degree returns the degree of v (0 for out-of-range v).
func (g *Graph) Degree(v NodeID) int {
	if v < 0 || v >= g.n {
		return 0
	}
	return g.adj[v].Count()
}

// Neighbors returns v's neighbors in increasing order. The slice is owned by
// the caller.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]NodeID, 0, g.adj[v].Count())
	g.adj[v].ForEach(func(u int) { out = append(out, u) })
	return out
}

// NeighborsShared returns v's neighbors in increasing order as a slice
// SHARED with the graph: callers must treat it as read-only and must not
// retain it past the next mutation of g. The full adjacency is flattened
// into one backing array on first use and memoized until the graph changes,
// so a graph served for many rounds (e.g. the static adversary's) costs
// zero allocations per round on the engine's hot path. Use Neighbors for a
// caller-owned copy.
func (g *Graph) NeighborsShared(v NodeID) []NodeID {
	if v < 0 || v >= g.n {
		return nil
	}
	if len(g.flat) == 0 {
		g.buildFlat()
	}
	return g.flat[v]
}

// buildFlat flattens the adjacency rows into sorted per-node subslices of a
// single backing array. Rows iterate in increasing order, so no sort is
// needed. Both the backing array and the row-header slice are reused when
// they are large enough, and the backing array is allocated with room for
// twice the current edges, so a graph rewritten in place every round (an
// adversary's ring slot) with a fluctuating edge count stops reallocating
// after its first rounds.
func (g *Graph) buildFlat() {
	total := 2 * g.m
	base := g.flatBase
	if cap(base) < total {
		base = make([]NodeID, 0, 2*total)
	} else {
		base = base[:0]
	}
	flat := g.flat[:0]
	if cap(flat) < g.n {
		flat = make([][]NodeID, g.n)
	} else {
		flat = flat[:g.n]
	}
	for v := 0; v < g.n; v++ {
		start := len(base)
		g.adj[v].ForEach(func(u int) { base = append(base, u) })
		flat[v] = base[start:len(base):len(base)]
	}
	g.flatBase = base
	g.flat = flat
}

// Edges returns all edges in canonical sorted order (by U, then V). Rows are
// walked above the diagonal, which yields exactly that order with no sort.
func (g *Graph) Edges() []Edge { return g.AppendEdges(make([]Edge, 0, g.m)) }

// AppendEdges appends g's edges to dst in the canonical order of Edges — the
// allocation-free form for callers that keep a buffer across rounds.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	g.forEachEdge(func(u, v NodeID) { dst = append(dst, Edge{U: u, V: v}) })
	return dst
}

// EdgeAt returns the i-th edge (0-based) of the canonical sorted order —
// Edges()[i] without materializing the slice. Adversaries drawing one random
// edge per round (rng.Intn(M()) then EdgeAt) stay allocation-free while
// making exactly the draws the Edges()-indexing formulation made.
func (g *Graph) EdgeAt(i int) (Edge, bool) {
	if i < 0 || i >= g.m {
		return Edge{}, false
	}
	rem := i
	var out Edge
	found := false
	for v := 0; v < g.n && !found; v++ {
		g.adj[v].ScanFrom(v+1, func(u int) bool {
			if rem == 0 {
				out = Edge{U: v, V: u}
				found = true
				return false
			}
			rem--
			return true
		})
	}
	return out, found
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.CopyFrom(g)
	return c
}

// CopyFrom makes g an exact copy of o (node count, edge set and the memoized
// connectivity), reusing g's row storage when the node counts match.
func (g *Graph) CopyFrom(o *Graph) {
	if g.n != o.n {
		g.n = o.n
		g.adj = adaptive.NewSlice(o.n, o.n)
	}
	for v := range o.adj {
		g.adj[v].CopyFrom(&o.adj[v])
	}
	g.m = o.m
	g.invalidate()
	g.conn = o.conn
}

// Clear removes every edge, keeping the row storage for reuse.
func (g *Graph) Clear() {
	for v := range g.adj {
		if !g.adj[v].Empty() {
			g.adj[v].Reset(g.n)
		}
	}
	g.m = 0
	g.invalidate()
}

// Equal reports whether g and o have the same node count and edge set.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.m != o.m {
		return false
	}
	for v := range g.adj {
		if !g.adj[v].Equal(&o.adj[v]) {
			return false
		}
	}
	return true
}

// forEachEdge visits every edge in canonical sorted order without
// allocating.
func (g *Graph) forEachEdge(fn func(u, v NodeID)) {
	for v := 0; v < g.n; v++ {
		g.adj[v].ForEachFrom(v+1, func(u int) { fn(v, u) })
	}
}

// DSU returns a union-find structure with g's edges applied in canonical
// sorted order, so component-root identity (and hence everything derived
// from Representatives) is deterministic.
func (g *Graph) DSU() *unionfind.DSU { return g.DSUInto(nil) }

// DSUInto is DSU over caller-owned storage: it resets d to n singletons
// (allocating a new DSU only when d is nil or sized for another node count)
// and applies g's edges in canonical sorted order.
func (g *Graph) DSUInto(d *unionfind.DSU) *unionfind.DSU {
	if d == nil || d.Len() != g.n {
		d = unionfind.New(g.n)
	} else {
		d.Reset()
	}
	g.forEachEdge(func(u, v NodeID) { d.Union(u, v) })
	return d
}

// Connected reports whether the graph is connected (true for n <= 1). The
// answer is memoized until the graph mutates, so the engine's once-per-round
// validation of a long-lived graph is free after the first round.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	if g.conn == 0 {
		g.conn = -1
		if g.m >= g.n-1 && g.bfsReaches(0, Edge{U: -1, V: -1}, -1) {
			g.conn = 1
		}
	}
	return g.conn == 1
}

// Components returns the number of connected components.
func (g *Graph) Components() int { return g.DSU().Components() }

// ConnectedWithout reports whether the graph stays connected after removing
// edge e (which need not exist; then it is just Connected). It is one BFS
// from e.U in G−e: when the graph is known to be connected the BFS stops as
// soon as it reaches e.V, otherwise it must reach all n nodes.
func (g *Graph) ConnectedWithout(e Edge) bool {
	if !g.HasEdge(e.U, e.V) {
		return g.Connected()
	}
	e = NewEdge(e.U, e.V)
	target := NodeID(-1)
	if g.conn > 0 {
		target = e.V
	}
	ok := g.m-1 >= g.n-1 && g.bfsReaches(e.U, e, target)
	if ok {
		g.conn = 1 // G−e is connected, so G is
		g.safeCut, g.safeCutOK = e, true
	}
	return ok
}

// bfsReaches runs a BFS from src that never crosses the edge skip (from
// skip.U to skip.V: callers start at skip.U, so the other direction cannot
// arise) and reports whether it visits target (every node when target < 0).
// The visited set and the queue are graph-owned scratch, created on first
// use, so repeated queries allocate nothing. Dense rows (n <= 512) expand a
// node with one word sweep of its row against the visited set; sparse rows
// fall back to membership probes inside the same kernel.
func (g *Graph) bfsReaches(src NodeID, skip Edge, target NodeID) bool {
	g.seen.Reset(g.n)
	if cap(g.queue) < g.n {
		g.queue = make([]NodeID, 0, g.n)
	}
	q := append(g.queue[:0], src)
	g.seen.Insert(src)
	for i := 0; i < len(q) && len(q) < g.n; i++ {
		if target >= 0 && g.seen.Contains(target) {
			return true
		}
		v := q[i]
		g.adj[v].ForEachNotInFrom(&g.seen, 0, func(u int) {
			if v == skip.U && u == skip.V {
				return
			}
			g.seen.Insert(u)
			q = append(q, u)
		})
	}
	if target >= 0 {
		return g.seen.Contains(target)
	}
	return len(q) == g.n
}

// BFSDistances returns the hop distances from src (-1 for unreachable nodes).
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.adj[v].ForEach(func(u int) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return dist
}

// BFSTree returns, for each node, its parent in a BFS tree rooted at src
// (parent[src] = src; -1 for unreachable nodes).
func (g *Graph) BFSTree(src NodeID) []NodeID {
	parent := make([]NodeID, g.n)
	for i := range parent {
		parent[i] = -1
	}
	if src < 0 || src >= g.n {
		return parent
	}
	parent[src] = src
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.adj[v].ForEach(func(u int) {
			if parent[u] == -1 {
				parent[u] = v
				queue = append(queue, u)
			}
		})
	}
	return parent
}

// Diameter returns the graph diameter (max over eccentricities), or -1 if the
// graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFSDistances(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Validate returns an error if internal adjacency invariants are violated
// (used by tests and the engine's paranoia checks).
func (g *Graph) Validate() error {
	count := 0
	var err error
	for v := range g.adj {
		if g.adj[v].Len() != g.n {
			return fmt.Errorf("graph: row %d has universe %d, want %d", v, g.adj[v].Len(), g.n)
		}
		g.adj[v].ForEach(func(u int) {
			if err != nil {
				return
			}
			if u == v {
				err = fmt.Errorf("graph: self-loop at %d", v)
				return
			}
			if !g.adj[u].Contains(v) {
				err = fmt.Errorf("graph: adjacency %d-%d not symmetric", v, u)
				return
			}
			count++
		})
		if err != nil {
			return err
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: adjacency count %d != 2*edges %d", count, 2*g.m)
	}
	return nil
}
