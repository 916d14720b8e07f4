package core

import (
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// SingleSource implements Algorithm 1 (Single-Source-Unicast). All k tokens
// start at one source node, which labels them 1..k. Only complete nodes
// (holders of all k tokens) send tokens; they announce their completeness to
// each neighbor at most once and answer the previous round's requests.
// Incomplete nodes assign at most one distinct missing-token request per
// edge to a known-complete neighbor, preferring new edges, then idle edges,
// then contributive edges — the priority that drives the futile-round
// analysis of Theorem 3.4.
type SingleSource struct {
	env  sim.NodeEnv
	opts SingleSourceOpts

	// haveIdx[i] (1-based) reports whether the token with source index i is
	// held; idxToGlobal maps an index to the token's global identity once
	// known. The source fills both at construction.
	haveIdx     []bool
	haveCount   int
	idxToGlobal []token.ID
	source      graph.NodeID // learned from announcements; -1 until known

	complete bool
	// informed[u] tracks the nodes this (complete) node has announced to —
	// the "at most once per node" rule that caps announcements at O(n²)
	// total.
	informed []bool
	// answer[u] is the token index u requested in the previous round; it is
	// to be answered in round answerDue[u].
	answer, answerDue []int

	round int
	edges *edgeTracker
	// inFlight holds the (neighbor, index) requests sent in the previous
	// round whose edge survived (awaiting the token this round); sentNow is
	// the current round's requests, promoted to inFlight at the next
	// BeginRound. At most one entry per neighbor, at most degree entries
	// total, so small reusable slices beat per-round map churn.
	inFlight []reqPair
	sentNow  []reqPair
	// arriveRound[i] == round stamps source index i as arriving this round
	// (an in-flight request will deliver it), replacing a per-round map.
	arriveRound []int
	// Reusable per-round scratch (engine copies Send's slice before the next
	// Send, so out is safe to reuse; see the Protocol buffer contract).
	missing               []int
	newE, idleE, contribE []graph.NodeID
	ordered               []cand
	out                   []sim.Message
}

// reqPair is one outstanding request: index idx asked of neighbor u.
type reqPair struct {
	u   graph.NodeID
	idx int
}

// cand is one request-candidate edge with its Algorithm 1 class.
type cand struct {
	u     graph.NodeID
	class edgeClass
}

// inFlightPending reports whether a request to u is awaiting its token.
func (p *SingleSource) inFlightPending(u graph.NodeID) bool {
	for i := range p.inFlight {
		if p.inFlight[i].u == u {
			return true
		}
	}
	return false
}

// clearInFlight drops the pending request (u, idx) if present.
func (p *SingleSource) clearInFlight(u graph.NodeID, idx int) {
	for i := range p.inFlight {
		if p.inFlight[i].u == u && p.inFlight[i].idx == idx {
			last := len(p.inFlight) - 1
			p.inFlight[i] = p.inFlight[last]
			p.inFlight = p.inFlight[:last]
			return
		}
	}
}

// SingleSourceOpts tunes Algorithm 1 for ablation experiments.
type SingleSourceOpts struct {
	// RandomPriority replaces the new > idle > contributive request-edge
	// priority with a uniformly random edge order — the E9 ablation that
	// disables the futile-round machinery of Lemmas 3.2/3.3.
	RandomPriority bool
	// Stats, when non-nil, receives cross-node instrumentation (shared by
	// every node of the run; the engine is single-threaded). Used by the
	// Lemma 3.3 futile-round experiment.
	Stats *SingleSourceStats
}

// SingleSourceStats aggregates instrumentation across all nodes of one run.
type SingleSourceStats struct {
	// ContribRequestRounds[r] marks round r as one in which some node
	// assigned a request to a contributive edge (the negation of the first
	// futile-round condition of Definition 3.3). Indexed by round, it grows
	// on write; read it through ContribRequest.
	ContribRequestRounds []bool
	// RequestsByClass counts assigned requests per edge class
	// (new, idle, contributive).
	RequestsByClass [3]int64
	// LastRequestRound is the last round any node sent a token request
	// (Lemma 3.3 counts futile rounds up to this point).
	LastRequestRound int
}

// NewSingleSourceStats returns an empty stats collector.
func NewSingleSourceStats() *SingleSourceStats {
	return &SingleSourceStats{}
}

// ContribRequest reports whether some node assigned a request to a
// contributive edge in round r.
func (st *SingleSourceStats) ContribRequest(r int) bool {
	return r >= 0 && r < len(st.ContribRequestRounds) && st.ContribRequestRounds[r]
}

// markContribRequest records a contributive-edge request in round r.
func (st *SingleSourceStats) markContribRequest(r int) {
	if grow := r + 1 - len(st.ContribRequestRounds); grow > 0 {
		st.ContribRequestRounds = append(st.ContribRequestRounds, make([]bool, grow)...)
	}
	st.ContribRequestRounds[r] = true
}

// NewSingleSource returns the Algorithm 1 factory.
func NewSingleSource() sim.Factory { return NewSingleSourceWithOpts(SingleSourceOpts{}) }

// NewSingleSourceWithOpts returns the Algorithm 1 factory with ablations.
func NewSingleSourceWithOpts(opts SingleSourceOpts) sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := &SingleSource{
			env:         env,
			opts:        opts,
			haveIdx:     make([]bool, env.K+1),
			idxToGlobal: make([]token.ID, env.K+1),
			source:      -1,
			informed:    make([]bool, env.N),
			answer:      make([]int, env.N),
			answerDue:   make([]int, env.N),
			edges:       newEdgeTracker(env.N),
			arriveRound: make([]int, env.K+1),
		}
		for i := range p.idxToGlobal {
			p.idxToGlobal[i] = token.None
		}
		for _, t := range env.Initial {
			info := env.InfoOf(t)
			p.haveIdx[info.Index] = true
			p.idxToGlobal[info.Index] = t
			p.haveCount++
		}
		if p.haveCount == env.K {
			// The source is complete with respect to itself at time 0.
			p.complete = true
			p.source = env.ID
		}
		return p
	}
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *SingleSource) BeginRound(r int, neighbors []graph.NodeID) {
	p.round = r
	p.edges.beginRound(r, neighbors)
	// Promote last round's requests: those whose edge survived will deliver
	// a token at the end of this round; the rest were wasted by an edge
	// removal (charged to the adversary's TC budget).
	p.inFlight = p.inFlight[:0]
	for _, q := range p.sentNow {
		if p.edges.adjacent(q.u) {
			//dynspread:allow hotpath -- amortized: inFlight is reused across rounds and holds at most one request per neighbor
			p.inFlight = append(p.inFlight, q)
		}
	}
	p.sentNow = p.sentNow[:0]
}

// Send implements sim.Protocol.
//
//dynspread:hotpath
func (p *SingleSource) Send(r int) []sim.Message {
	if p.complete {
		return p.sendComplete()
	}
	return p.sendIncomplete()
}

// sendComplete handles lines 1–6 of Algorithm 1: announce completeness
// once per node, otherwise answer the previous round's request.
func (p *SingleSource) sendComplete() []sim.Message {
	out := p.out[:0]
	for _, u := range p.edges.nbrs {
		switch {
		case !p.informed[u]:
			p.informed[u] = true
			out = append(out, sim.CompletenessMsg(p.env.ID, u,
				sim.CompletenessAnn{Source: p.source, Count: p.env.K}))
		case p.answerDue[u] == p.round:
			idx := p.answer[u]
			g := p.idxToGlobal[idx]
			if g == token.None {
				continue
			}
			out = append(out, sim.TokenMsg(p.env.ID, u,
				sim.TokenPayload{ID: g, Owner: p.source, Index: idx, Count: p.env.K}))
		}
	}
	p.out = out
	return out
}

// sendIncomplete handles lines 7–20: assign one distinct missing-token
// request per edge to a known-complete neighbor, new edges first, then idle,
// then contributive.
func (p *SingleSource) sendIncomplete() []sim.Message {
	if p.source == -1 {
		return nil // no completeness announcement heard yet
	}
	// Tokens already arriving this round must not be re-requested. The
	// arriveRound stamp replaces a per-round map: index i arrives this round
	// iff its stamp equals the current round.
	for _, q := range p.inFlight {
		p.arriveRound[q.idx] = p.round
	}
	missing := p.missing[:0]
	for i := 1; i <= p.env.K; i++ {
		if !p.haveIdx[i] && p.arriveRound[i] != p.round {
			missing = append(missing, i)
		}
	}
	p.missing = missing
	if len(missing) == 0 {
		return nil
	}
	// Candidate edges: current neighbors known to be complete, bucketed by
	// class. Within a class, neighbor ID order keeps runs deterministic.
	newE, idleE, contribE := p.newE[:0], p.idleE[:0], p.contribE[:0]
	for _, u := range p.edges.nbrs {
		if !p.informed[u] {
			continue // u has not announced completeness to us
		}
		switch p.edges.class(u, p.inFlightPending(u)) {
		case edgeNew:
			newE = append(newE, u)
		case edgeIdle:
			idleE = append(idleE, u)
		case edgeContributive:
			contribE = append(contribE, u)
		}
	}
	p.newE, p.idleE, p.contribE = newE, idleE, contribE
	ordered := p.ordered[:0]
	for _, u := range newE {
		ordered = append(ordered, cand{u, edgeNew})
	}
	for _, u := range idleE {
		ordered = append(ordered, cand{u, edgeIdle})
	}
	for _, u := range contribE {
		ordered = append(ordered, cand{u, edgeContributive})
	}
	p.ordered = ordered
	if p.opts.RandomPriority {
		p.env.Rng.Shuffle(len(ordered), func(i, j int) {
			ordered[i], ordered[j] = ordered[j], ordered[i]
		})
	}

	out := p.out[:0]
	j := 0
	for _, c := range ordered {
		if j >= len(missing) {
			break
		}
		idx := missing[j]
		j++
		p.sentNow = append(p.sentNow, reqPair{u: c.u, idx: idx})
		if st := p.opts.Stats; st != nil {
			st.RequestsByClass[int(c.class)-1]++
			if c.class == edgeContributive {
				st.markContribRequest(p.round)
			}
			if p.round > st.LastRequestRound {
				st.LastRequestRound = p.round
			}
		}
		out = append(out, sim.RequestMsg(p.env.ID, c.u,
			sim.RequestPayload{Owner: p.source, Index: idx}))
	}
	p.out = out
	return out
}

// Deliver implements sim.Protocol. Note the field name collision: for an
// incomplete node, "informed" records which neighbors announced THEIR
// completeness (the paper's S_v); for a complete node it records whom WE
// announced to (the paper's R_v). A node is never both at once, and on the
// round it completes the set is reset.
//
//dynspread:hotpath
func (p *SingleSource) Deliver(r int, in []sim.Message) {
	// The engine delivers inboxes already sorted by sender (its (To, From)
	// delivery-order invariant, pinned by TestDeliveryOrderInvariant in sim),
	// so no re-sort is needed here.
	for i := range in {
		m := &in[i]
		if m.Has(sim.KindCompleteness) && !p.complete {
			p.source = m.Completeness.Source
			p.informed[m.From] = true
		}
		if m.Has(sim.KindRequest) {
			p.answer[m.From], p.answerDue[m.From] = m.Request.Index, r+1
		}
		if m.Has(sim.KindToken) {
			if !p.haveIdx[m.Token.Index] {
				p.haveIdx[m.Token.Index] = true
				p.idxToGlobal[m.Token.Index] = m.Token.ID
				p.haveCount++
				p.edges.markContributive(m.From)
			}
			p.clearInFlight(m.From, m.Token.Index)
		}
	}
	if !p.complete && p.haveCount == p.env.K {
		p.complete = true
		// Switch the set's role from S_v to R_v: start announcing afresh.
		clear(p.informed)
		p.sentNow = p.sentNow[:0]
		p.inFlight = p.inFlight[:0]
	}
}
