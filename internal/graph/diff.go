package graph

import "dynspread/internal/bitset/adaptive"

// Diff captures the topological change between two consecutive round graphs:
// Inserted = E_r \ E_{r-1} (the paper's E+_r) and Removed = E_{r-1} \ E_r
// (E-_r). Both slices are in canonical sorted order.
type Diff struct {
	Inserted []Edge
	Removed  []Edge
}

// Compute returns the diff from prev to next. A nil prev is treated as the
// empty graph G_0 = (V, ∅), matching the paper's convention E_0 := ∅.
func Compute(prev, next *Graph) Diff {
	var d Diff
	if prev == next {
		// Same snapshot object (e.g. a static adversary serving one graph
		// every round): the diff is empty by definition, and skipping the
		// edge-set walks keeps the round loop allocation-free.
		return d
	}
	if next == nil {
		if prev != nil {
			d.Removed = prev.Edges()
		}
		return d
	}
	if prev == nil {
		d.Inserted = next.Edges()
		return d
	}
	d.Inserted = appendEdgeDiff(d.Inserted, next, prev)
	d.Removed = appendEdgeDiff(d.Removed, prev, next)
	return d
}

// DiffCount returns |E+| and |E-| of the diff from prev to next — the
// lengths of Compute's Inserted and Removed — without materializing an
// edge. A nil graph is the empty graph, as in Compute. Each row costs one
// intersection popcount against the other graph's row (a word sweep for
// dense rows): the edges both graphs share are counted once from each
// endpoint, and everything else in next is inserted, everything else in
// prev removed. The engine's TC accounting reads only these two numbers.
func DiffCount(prev, next *Graph) (inserted, removed int) {
	switch {
	case prev == next:
		return 0, 0
	case next == nil:
		return 0, prev.m
	case prev == nil:
		return next.m, 0
	}
	common := 0
	for v := 0; v < next.n && v < prev.n; v++ {
		common += next.adj[v].IntersectionCount(&prev.adj[v])
	}
	common /= 2
	return next.m - common, prev.m - common
}

// appendEdgeDiff appends the canonical edges of a \ b in sorted order — a
// row-wise set difference per node, so the common case of two mostly-equal
// round graphs costs a word sweep per row instead of two full edge-set walks
// with per-edge hash probes.
func appendEdgeDiff(out []Edge, a, b *Graph) []Edge {
	var empty adaptive.Set
	for v := 0; v < a.n; v++ {
		brow := &empty
		if v < b.n {
			brow = &b.adj[v]
		}
		a.adj[v].ForEachNotInFrom(brow, v+1, func(u int) {
			out = append(out, Edge{U: v, V: u})
		})
	}
	return out
}

// StabilityTracker verifies σ-edge-stability of a dynamic graph sequence as
// defined in the paper: after an edge appears, it must remain present for at
// least σ consecutive rounds. Feed it every round's graph in order.
type StabilityTracker struct {
	sigma      int
	round      int
	insertedAt map[Edge]int // round the edge was last inserted
	prev       *Graph
	violations []StabilityViolation
}

// StabilityViolation records an edge removed before its σ rounds elapsed.
type StabilityViolation struct {
	E          Edge
	InsertedAt int
	RemovedAt  int // the round in which the edge is no longer present
}

// NewStabilityTracker returns a tracker for σ-edge-stability (σ >= 1).
func NewStabilityTracker(sigma int) *StabilityTracker {
	if sigma < 1 {
		sigma = 1
	}
	return &StabilityTracker{
		sigma:      sigma,
		insertedAt: make(map[Edge]int),
	}
}

// Observe records the graph of the next round (rounds are 1-based).
func (t *StabilityTracker) Observe(g *Graph) {
	t.round++
	d := Compute(t.prev, g)
	for _, e := range d.Removed {
		ins := t.insertedAt[e]
		// The edge existed during rounds [ins, t.round-1]; lifetime in rounds:
		life := t.round - ins
		if life < t.sigma {
			t.violations = append(t.violations, StabilityViolation{
				E:          e,
				InsertedAt: ins,
				RemovedAt:  t.round,
			})
		}
		delete(t.insertedAt, e)
	}
	for _, e := range d.Inserted {
		t.insertedAt[e] = t.round
	}
	t.prev = g.Clone()
}

// Violations returns all σ-stability violations observed so far.
func (t *StabilityTracker) Violations() []StabilityViolation { return t.violations }

// OK reports whether no violation has been observed.
func (t *StabilityTracker) OK() bool { return len(t.violations) == 0 }

// Age returns the number of consecutive rounds (including the current one)
// that edge e has been present, or 0 if absent. Valid after Observe.
func (t *StabilityTracker) Age(e Edge) int {
	ins, ok := t.insertedAt[e]
	if !ok {
		return 0
	}
	return t.round - ins + 1
}
