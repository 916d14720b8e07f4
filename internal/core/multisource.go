package core

import (
	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// OwnedToken labels one token a node owns as a (phase-2 or original) source:
// the owner's Index-th token out of Count.
type OwnedToken struct {
	Global token.ID
	Index  int
	Count  int
}

// MultiSource implements the Multi-Source-Unicast algorithm of Section
// 3.2.1. Tokens start at s source nodes; every node tracks, per source x,
// the set R_v(x) of nodes it has informed about its own completeness w.r.t.
// x, the set S_v(x) of nodes that announced completeness w.r.t. x to it, and
// the set I_v of sources it is complete with respect to. Each round a node
// (1) announces, per neighbor, completeness w.r.t. the minimum applicable
// source, (2) answers the previous round's token request, and (3) sends
// requests for the minimum-ID source x ∉ I_v with S_v(x) ≠ ∅, using
// Algorithm 1's new > idle > contributive edge priority. All three tasks
// may share a single message per edge (constant tokens + O(log n) bits).
//
// The round path is map-free and, once every neighbor has been met,
// allocation-free. Per-source state sits in a NodeID-indexed slice whose
// token arrays are carved from one slab sized at construction (Σ k_x = k,
// which with n is common knowledge per Section 3.2.2), so discovering a
// source allocates nothing. R_v(x) and S_v(x) are stored transposed, as
// per-neighbor bitsets over sources, so the minimum unannounced source for
// neighbor u is one FirstNotIn of I_v against u's announced set. Requests
// to answer, requests in flight and tokens arriving are round stamps.
type MultiSource struct {
	env sim.NodeEnv

	// src[x] is the progress on source x's tokens. Its token array is
	// carved from slab once k_x is learned.
	src  []sourceProgress
	slab []token.ID

	iv       bitset.Set // I_v: sources this node is complete w.r.t.
	heardAny bitset.Set // sources x with S_v(x) ≠ ∅
	peer     []peerState

	edges *edgeTracker
	// arriveAt[i] == r marks index i of round r's request target as
	// arriving this round (a request in flight will deliver it).
	arriveAt []int
	// out is the reusable Send buffer (the engine copies it out before the
	// next Send; see the Protocol buffer contract).
	out []sim.Message
}

// sourceProgress is one node's progress on one source's tokens.
type sourceProgress struct {
	count int // k_x once learned; 0 = unknown
	held  int // indices held
	low   int // every index below low is held
	// globals[i] is the global ID of index i, token.None until held.
	globals []token.ID
}

// peerState is one node's state about one other node u. The two source
// sets are sized on first use, so a node pays for them only per neighbor it
// actually meets.
type peerState struct {
	announced bitset.Set // {x : u ∈ R_v(x)}
	heard     bitset.Set // {x : u ∈ S_v(x)}
	// answer is u's request of the previous round, to be answered in round
	// answerDue; req is the request sent to u, whose token arrives in round
	// reqDue if the edge survives.
	answer, req       sim.RequestPayload
	answerDue, reqDue int
	// During Send: the index of u's draft in out, and the Algorithm 1 class
	// of the edge to u if it is a request candidate (0 if not).
	slot  int
	class edgeClass
}

// NewMultiSource returns the Multi-Source-Unicast factory for tokens
// distributed per the engine's assignment (each source owns its initial
// tokens).
func NewMultiSource() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		owned := make([]OwnedToken, 0, len(env.Initial))
		for _, t := range env.Initial {
			info := env.InfoOf(t)
			owned = append(owned, OwnedToken{Global: t, Index: info.Index, Count: 0})
		}
		for i := range owned {
			owned[i].Count = len(owned)
		}
		return NewMultiSourceWith(env, owned)
	}
}

// NewMultiSourceWith builds a MultiSource node whose owned source tokens are
// given explicitly — this is how Algorithm 2's phase 2 runs MultiSource with
// the centers as sources and freshly labeled token sets.
func NewMultiSourceWith(env sim.NodeEnv, owned []OwnedToken) *MultiSource {
	n := env.N
	w := bitset.WordsFor(n)
	words := make([]uint64, 2*w)
	p := &MultiSource{
		env: env,
		src: make([]sourceProgress, n),
		// Σ (k_x + 1) over at most n sources: every token array fits.
		slab:     make([]token.ID, env.K+n),
		iv:       bitset.Wrap(n, words[:w:w]),
		heardAny: bitset.Wrap(n, words[w:]),
		peer:     make([]peerState, n),
		edges:    newEdgeTracker(n),
		arriveAt: make([]int, env.K+1),
	}
	if len(owned) > 0 {
		me := env.ID
		p.ensureSource(me, len(owned))
		sx := &p.src[me]
		for _, o := range owned {
			if o.Index >= 1 && o.Index <= len(owned) && sx.globals[o.Index] == token.None {
				sx.globals[o.Index] = o.Global
				sx.held++
			}
		}
		// A source is complete with respect to itself at time 0.
		p.iv.Add(me)
	}
	return p
}

// ensureSource sizes source x's token array once k_x is known.
func (p *MultiSource) ensureSource(x graph.NodeID, count int) {
	sx := &p.src[x]
	if sx.count != 0 || count <= 0 {
		return
	}
	var g []token.ID
	if count < len(p.slab) {
		g, p.slab = p.slab[:count+1:count+1], p.slab[count+1:]
	} else {
		g = make([]token.ID, count+1) // counts beyond the slab's k + n budget
	}
	for i := range g {
		g[i] = token.None
	}
	sx.count, sx.low, sx.globals = count, 1, g
	if count >= len(p.arriveAt) {
		p.arriveAt = make([]int, count+1)
	}
}

// sets returns u's peer state with its source sets allocated.
func (p *MultiSource) sets(u graph.NodeID) *peerState {
	pe := &p.peer[u]
	if pe.announced.Len() == 0 {
		w := bitset.WordsFor(p.env.N)
		words := make([]uint64, 2*w)
		pe.announced = bitset.Wrap(p.env.N, words[:w:w])
		pe.heard = bitset.Wrap(p.env.N, words[w:])
	}
	return pe
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *MultiSource) BeginRound(r int, neighbors []graph.NodeID) {
	p.edges.beginRound(r, neighbors)
}

// Send implements sim.Protocol: the three parallel tasks of Section 3.2.1,
// merged into at most one message per neighbor.
//
//dynspread:hotpath
func (p *MultiSource) Send(r int) []sim.Message {
	// One draft per neighbor, in neighbor order; empty drafts are dropped
	// at the end.
	out := p.out[:0]
	for i, u := range p.edges.nbrs {
		//dynspread:allow hotpath -- amortized: out is the reusable Send buffer; capacity stabilizes at the node's degree
		out = append(out, sim.Message{From: p.env.ID, To: u})
		p.peer[u].slot = i
	}

	// Task 1: per neighbor, announce completeness w.r.t. the minimum source
	// x ∈ I_v with u ∉ R_v(x).
	for _, u := range p.edges.nbrs {
		pe := &p.peer[u]
		if x := p.iv.FirstNotIn(&pe.announced); x >= 0 {
			p.sets(u).announced.Add(x)
			out[pe.slot].SetCompleteness(sim.CompletenessAnn{Source: x, Count: p.src[x].count})
		}
	}

	// Task 2: answer the previous round's requests (only for sources we are
	// complete with respect to, which is the only way u could have asked).
	for _, u := range p.edges.nbrs {
		pe := &p.peer[u]
		if pe.answerDue != r {
			continue
		}
		req := pe.answer
		g := p.lookupGlobal(req.Owner, req.Index)
		if g == token.None || !p.iv.Contains(req.Owner) {
			continue
		}
		out[pe.slot].SetToken(sim.TokenPayload{
			ID: g, Owner: req.Owner, Index: req.Index, Count: p.src[req.Owner].count,
		})
	}

	// Task 3: requests for the minimum-ID incomplete source with a known
	// complete node, using Algorithm 1's edge priority.
	p.sendRequests(r, out)

	j := 0
	for i := range out {
		if !out[i].Empty() {
			out[j] = out[i]
			j++
		}
	}
	p.out = out[:j]
	return p.out
}

// sendRequests runs Algorithm 1's request assignment against the target
// source: the minimum x ∉ I_v with S_v(x) ≠ ∅.
//
//dynspread:hotpath
func (p *MultiSource) sendRequests(r int, out []sim.Message) {
	x := p.heardAny.FirstNotIn(&p.iv)
	if x < 0 {
		return
	}
	sx := &p.src[x]
	if sx.count == 0 {
		return
	}
	for _, u := range p.edges.nbrs {
		pe := &p.peer[u]
		pe.class = 0
		if !pe.heard.Contains(x) {
			continue // u is not known-complete w.r.t. x
		}
		// Last round's requests for x went only to such neighbors (S_v(x)
		// only grows), so this loop also sees every token arriving now.
		inFlight := pe.reqDue == r
		if inFlight && pe.req.Owner == x {
			p.arriveAt[pe.req.Index] = r
		}
		pe.class = p.edges.class(u, inFlight)
	}

	// Assign the missing indices not already arriving, lowest first, to the
	// candidate edges: new, then idle, then contributive, each in neighbor
	// order.
	for sx.low <= sx.count && sx.globals[sx.low] != token.None {
		sx.low++
	}
	i := sx.low
	for c := edgeNew; c <= edgeContributive; c++ {
		for _, u := range p.edges.nbrs {
			pe := &p.peer[u]
			if pe.class != c {
				continue
			}
			for i <= sx.count && (sx.globals[i] != token.None || p.arriveAt[i] == r) {
				i++
			}
			if i > sx.count {
				return
			}
			pe.req, pe.reqDue = sim.RequestPayload{Owner: x, Index: i}, r+1
			out[pe.slot].SetRequest(pe.req)
			i++
		}
	}
}

// lookupGlobal returns the global ID of (owner, index) if held.
func (p *MultiSource) lookupGlobal(x graph.NodeID, index int) token.ID {
	if x < 0 || x >= len(p.src) {
		return token.None
	}
	g := p.src[x].globals
	if index < 1 || index >= len(g) {
		return token.None
	}
	return g[index]
}

// Deliver implements sim.Protocol.
//
//dynspread:hotpath
func (p *MultiSource) Deliver(r int, in []sim.Message) {
	// Inboxes arrive already sorted by sender — the engine's (To, From)
	// delivery-order invariant, pinned by TestDeliveryOrderInvariant in sim.
	for i := range in {
		m := &in[i]
		if m.Has(sim.KindCompleteness) {
			if x := m.Completeness.Source; x >= 0 && x < len(p.src) {
				p.ensureSource(x, m.Completeness.Count)
				p.heardAny.Add(x)
				p.sets(m.From).heard.Add(x)
			}
		}
		if m.Has(sim.KindRequest) {
			pe := &p.peer[m.From]
			pe.answer, pe.answerDue = m.Request, r+1
		}
		if m.Has(sim.KindToken) {
			p.acceptToken(m.From, m.Token)
		}
	}
}

// acceptToken records a received token and updates per-source completeness.
func (p *MultiSource) acceptToken(from graph.NodeID, t sim.TokenPayload) {
	x := t.Owner
	if x < 0 || x >= len(p.src) {
		return
	}
	p.ensureSource(x, t.Count)
	sx := &p.src[x]
	if sx.count == 0 || t.Index < 1 || t.Index > sx.count || sx.globals[t.Index] != token.None {
		return
	}
	sx.globals[t.Index] = t.ID
	sx.held++
	p.edges.markContributive(from)
	if sx.held == sx.count {
		p.iv.Add(x)
	}
}
