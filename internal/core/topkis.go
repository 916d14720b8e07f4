package core

import (
	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// Topkis is the second static-network baseline from the introduction
// (Topkis [39]): in every round, every node sends to each neighbor an
// arbitrary held token it has not yet sent to that neighbor. On a static
// connected n-node graph this solves k-token dissemination in O(n + k)
// rounds without any tree structure — but it sends up to one message per
// edge direction per round, so its message complexity is Θ(m·(n+k)) and its
// amortized cost has no adversary-competitive guarantee under churn. It
// exists as the contrast point to Algorithm 1's frugality.
type Topkis struct {
	env  sim.NodeEnv
	know *adaptive.Set
	// sent[u] is the set of tokens already forwarded to neighbor u, indexed
	// by node ID and taken on first contact from spare, a block of sets
	// carved from one slab for up to topkisBlock neighbors. A slice, not a
	// map: the per-neighbor lookup is on the round hot path.
	sent  []*bitset.Set
	spare []bitset.Set
	nbrs  []graph.NodeID
	// out is the reusable Send buffer; the engine copies messages out of it
	// before the next round. Its capacity grows in steps of topkisBlock
	// messages (capped at n−1), so it stops growing once the node has seen
	// its largest degree.
	out []sim.Message
}

// topkisBlock is the number of neighbors Topkis sizes its per-neighbor state
// for at a time. A node allocates one block of sent sets per topkisBlock
// distinct neighbors it meets (at most n−1 in all), instead of one set per
// neighbor, and at n ≤ topkisBlock+1 a single block covers every possible
// neighbor, so a dynamic adversary's new contacts cost nothing after the
// node's first round.
const topkisBlock = 8

// NewTopkis returns the baseline factory.
func NewTopkis() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := &Topkis{
			env:  env,
			know: adaptive.New(env.K),
			sent: make([]*bitset.Set, env.N),
		}
		for _, t := range env.Initial {
			p.know.Add(t)
		}
		return p
	}
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *Topkis) BeginRound(_ int, neighbors []graph.NodeID) { p.nbrs = neighbors }

// Send implements sim.Protocol: the lowest held token not yet sent to each
// neighbor ("an arbitrary not yet forwarded token").
//
//dynspread:hotpath
func (p *Topkis) Send(_ int) []sim.Message {
	if cap(p.out) < len(p.nbrs) {
		p.growOut()
	}
	out := p.out[:0]
	for _, u := range p.nbrs {
		s := p.sent[int(u)]
		if s == nil {
			s = p.newSent()
			p.sent[int(u)] = s
		}
		t := pickUnsent(p.know, s)
		if t == token.None {
			continue
		}
		s.Add(t)
		info := p.env.InfoOf(t)
		//dynspread:allow hotpath -- never regrows: growOut sized out for this round's neighbors
		out = append(out, sim.TokenMsg(p.env.ID, u,
			sim.TokenPayload{ID: t, Owner: info.Source, Index: info.Index}))
	}
	p.out = out
	return out
}

// growOut resizes the empty Send buffer to the next multiple of topkisBlock
// that holds this round's neighbors, capped at n−1.
func (p *Topkis) growOut() {
	c := (len(p.nbrs) + topkisBlock - 1) / topkisBlock * topkisBlock
	p.out = make([]sim.Message, 0, min(c, p.env.N-1))
}

// newSent returns an empty sent set for a first-contact neighbor, carving a
// new block of min(topkisBlock, n−1) sets from one slab when the spare ones
// are used up.
func (p *Topkis) newSent() *bitset.Set {
	if len(p.spare) == 0 {
		b := min(topkisBlock, p.env.N-1)
		w := bitset.WordsFor(p.env.K)
		slab := make([]uint64, b*w)
		p.spare = make([]bitset.Set, b)
		for i := range p.spare {
			p.spare[i] = bitset.Wrap(p.env.K, slab[i*w:(i+1)*w:(i+1)*w])
		}
	}
	s := &p.spare[0]
	p.spare = p.spare[1:]
	return s
}

// pickUnsent returns the lowest token in know but not in sentTo, or None.
// know is adaptive (near-empty early, near-full late); sentTo stays dense —
// it only ever grows and is probed, never unioned.
//
//dynspread:hotpath
func pickUnsent(know *adaptive.Set, sentTo *bitset.Set) token.ID {
	if t := know.FirstNotIn(sentTo); t >= 0 {
		return t
	}
	return token.None
}

// Arrive implements sim.TokenArriver: a streamed token joins the known set
// and gets pushed to every neighbor it has not been sent to, like any other.
//
//dynspread:hotpath
func (p *Topkis) Arrive(_ int, t token.ID) { p.know.Add(t) }

// Deliver implements sim.Protocol.
//
//dynspread:hotpath
func (p *Topkis) Deliver(_ int, in []sim.Message) {
	for i := range in {
		if in[i].Has(sim.KindToken) {
			p.know.Add(in[i].Token.ID)
		}
	}
}
