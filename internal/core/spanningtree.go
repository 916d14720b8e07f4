package core

import (
	"sort"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// SpanningTree is the static-network baseline from the paper's introduction:
// build a rooted spanning tree (costing up to Θ(n²) messages on dense graphs
// in the KT0 model), then pipeline all k tokens down the tree — O(n + k)
// rounds and O(n² + nk) messages overall, i.e. O(n²/k + n) amortized. It is
// only correct on a static (or at least tree-stable) topology; running it
// under real churn is exactly the failure mode that motivates the paper.
//
// Tree construction: the source floods CtrlTreeInvite; on its first invite a
// node adopts the sender as parent, replies CtrlTreeAccept, and re-floods the
// invite to its other neighbors. Distribution: each node forwards received
// tokens to every child, one token per child per round, in index order.
type SpanningTree struct {
	env sim.NodeEnv

	isSource bool
	parent   graph.NodeID // -1 until joined
	joined   bool
	invited  []bool // neighbors already sent an invite
	children []graph.NodeID

	// queue of tokens to push down, in arrival order; nextToSend[c] indexes
	// into queue per child.
	queue      []sim.TokenPayload
	nextToSend []int

	pendingInvite bool // send invites next round
	acceptPending bool // owe the parent a CtrlTreeAccept
	nbrs          []graph.NodeID
	// Round stamps indexed by node: adjAt[u] == round marks u as a current
	// neighbor, sentAt[u] == round marks u as already sent to this round.
	round         int
	adjAt, sentAt []int
	out           []sim.Message // reusable Send buffer
}

// NewSpanningTree returns the baseline factory.
func NewSpanningTree() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := &SpanningTree{
			env:        env,
			parent:     -1,
			invited:    make([]bool, env.N),
			nextToSend: make([]int, env.N),
			adjAt:      make([]int, env.N),
			sentAt:     make([]int, env.N),
		}
		if len(env.Initial) > 0 {
			p.isSource = true
			p.joined = true
			p.pendingInvite = true
			ordered := append([]token.ID(nil), env.Initial...)
			sort.Ints(ordered)
			for i, t := range ordered {
				p.queue = append(p.queue, sim.TokenPayload{
					ID: t, Owner: env.ID, Index: i + 1, Count: len(ordered),
				})
			}
		}
		return p
	}
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *SpanningTree) BeginRound(r int, neighbors []graph.NodeID) {
	p.round = r
	p.nbrs = neighbors
	for _, u := range neighbors {
		p.adjAt[u] = r
	}
}

// Send implements sim.Protocol.
//
//dynspread:hotpath
func (p *SpanningTree) Send(r int) []sim.Message {
	out := p.out[:0]
	// Invitation wave.
	if p.joined && p.pendingInvite {
		for _, u := range p.nbrs {
			if u == p.parent || p.invited[u] {
				continue
			}
			p.invited[u] = true
			p.sentAt[u] = r
			//dynspread:allow hotpath -- amortized: out is the reusable Send buffer; capacity stabilizes at the node's degree
			out = append(out, sim.ControlMsg(p.env.ID, u,
				sim.ControlPayload{Kind: sim.CtrlTreeInvite}))
		}
		p.pendingInvite = false
	}
	// Accept reply to a freshly adopted parent.
	if p.acceptPending && p.parentAdjacent() && p.sentAt[p.parent] != r {
		p.acceptPending = false
		p.sentAt[p.parent] = r
		//dynspread:allow hotpath -- amortized: out is the reusable Send buffer; capacity stabilizes at the node's degree
		out = append(out, sim.ControlMsg(p.env.ID, p.parent,
			sim.ControlPayload{Kind: sim.CtrlTreeAccept}))
	}
	// Pipeline one token per child per round.
	for _, c := range p.children {
		if p.sentAt[c] == r || !p.adjacent(c) {
			continue
		}
		i := p.nextToSend[c]
		if i >= len(p.queue) {
			continue
		}
		tp := p.queue[i]
		p.nextToSend[c] = i + 1
		//dynspread:allow hotpath -- amortized: out is the reusable Send buffer; capacity stabilizes at the node's degree
		out = append(out, sim.TokenMsg(p.env.ID, c, tp))
	}
	p.out = out
	return out
}

func (p *SpanningTree) adjacent(u graph.NodeID) bool { return p.adjAt[u] == p.round }

func (p *SpanningTree) parentAdjacent() bool {
	return p.parent >= 0 && p.adjacent(p.parent)
}

// Deliver implements sim.Protocol.
func (p *SpanningTree) Deliver(_ int, in []sim.Message) {
	for i := range in {
		m := &in[i]
		if m.Has(sim.KindControl) {
			switch m.Control.Kind {
			case sim.CtrlTreeInvite:
				if !p.joined {
					p.joined = true
					p.parent = m.From
					p.acceptPending = true
					p.pendingInvite = true
				}
			case sim.CtrlTreeAccept:
				p.children = append(p.children, m.From)
				sort.Ints(p.children)
			}
		}
		if m.Has(sim.KindToken) {
			p.queue = append(p.queue, m.Token)
		}
	}
}
