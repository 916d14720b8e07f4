// Package adversary provides the dynamic-network adversaries of the paper:
// oblivious graph-sequence generators (which commit to the topology sequence
// independent of the execution) and strongly adaptive adversaries (which
// inspect the full execution state, including the current round's committed
// sends, before wiring each round).
package adversary

import (
	"dynspread/internal/graph"
	"dynspread/internal/sim"
)

// Sequence is an oblivious dynamic-graph generator: Graph(r) must depend
// only on the generator's own construction (seed) and on r, never on the
// execution. The engine calls it once per round in increasing round order.
//
// The graph returned for round r stays unchanged until the sequence is asked
// for round r+2 (the contract of sim.Adversary.NextGraph): the engine reads
// it in round r and as view.Prev in round r+1. The dynamic generators
// therefore serve from a two-slot ring; a caller that keeps a graph longer
// must Clone it. Only a generator whose graph truly never changes (static)
// re-serves one object, and is then charged zero topological changes
// without a diff.
type Sequence interface {
	Name() string
	Graph(r int) *graph.Graph
}

// ring is the two-slot graph buffer the dynamic generators serve from:
// round r's graph is written into the slot that held round r−2's, so a
// served graph stays unchanged for exactly the two rounds the engine reads
// it, and steady-state rounds allocate no graphs. Each slot is created on
// first use, so round 1 allocates one graph, as a per-round New did.
type ring struct {
	slots [2]*graph.Graph
	cur   int
}

// next returns the next round's slot, emptied.
func (r *ring) next(n int) *graph.Graph {
	r.cur ^= 1
	g := r.slots[r.cur]
	if g == nil || g.N() != n {
		g = graph.New(n)
		r.slots[r.cur] = g
	}
	g.Clear()
	return g
}

// copyOf returns the next round's slot holding a copy of g — how a
// generator that evolves one graph in place serves it.
func (r *ring) copyOf(g *graph.Graph) *graph.Graph {
	s := r.next(g.N())
	s.CopyFrom(g)
	return s
}

// obliviousUnicast adapts a Sequence to sim.Adversary. By construction it
// ignores everything in the view except the round number, which is what
// makes it oblivious.
type obliviousUnicast struct{ seq Sequence }

// Oblivious wraps an oblivious sequence as a unicast adversary.
func Oblivious(seq Sequence) sim.Adversary { return obliviousUnicast{seq} }

func (o obliviousUnicast) Name() string { return o.seq.Name() }

func (o obliviousUnicast) NextGraph(view *sim.View) *graph.Graph {
	return o.seq.Graph(view.Round)
}

// obliviousBroadcast adapts a Sequence to sim.BroadcastAdversary.
type obliviousBroadcast struct{ seq Sequence }

// ObliviousBroadcast wraps an oblivious sequence as a broadcast adversary.
func ObliviousBroadcast(seq Sequence) sim.BroadcastAdversary { return obliviousBroadcast{seq} }

func (o obliviousBroadcast) Name() string { return o.seq.Name() }

func (o obliviousBroadcast) NextGraph(view *sim.BroadcastView) *graph.Graph {
	return o.seq.Graph(view.Round)
}
