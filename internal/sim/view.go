package sim

import (
	"math/rand"

	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// View is the read-only execution state handed to adversaries when they pick
// the next round's graph. A strongly adaptive adversary may use all of it; an
// oblivious adversary must ignore everything except Round and N (the
// adversary package's oblivious adapters enforce this by construction —
// they pre-commit to a sequence that depends only on their own seed).
//
// All accessors return snapshots or read-only data; adversaries must not
// mutate anything reachable from a View.
type View struct {
	// Round is the round whose graph is being chosen (1-based).
	Round int
	// N is the number of nodes.
	N int
	// K is the number of tokens.
	K int
	// Prev is the graph of the previous round (the empty graph before round
	// 1, matching the paper's G_0 = (V, ∅)). Read-only.
	Prev *graph.Graph
	// LastSent holds the messages sent (and delivered) in the previous
	// round; nil before round 1 and in broadcast mode. Read-only. This is
	// what lets a strongly adaptive adversary cut edges that carry pending
	// request/response exchanges.
	LastSent []Message

	know []*adaptive.Set
}

// Knows reports whether node v currently holds token t.
//
//dynspread:hotpath
func (v *View) Knows(node graph.NodeID, t token.ID) bool {
	if node < 0 || node >= len(v.know) {
		return false
	}
	return v.know[node].Contains(t)
}

// KnowledgeCount returns |K_v(t)|, the number of tokens node v holds.
//
//dynspread:hotpath
func (v *View) KnowledgeCount(node graph.NodeID) int {
	if node < 0 || node >= len(v.know) {
		return 0
	}
	return v.know[node].Count()
}

// KnowledgeUnionCount returns |K_v ∪ other| for an adversary-supplied set
// (used by the Section 2 adversary for the potential function Φ without
// copying knowledge sets every round). It goes through the adaptive
// representation: a fused word sweep when K_v is dense, an O(|K_v|) probe
// walk while it is still sparse.
//
//dynspread:hotpath
func (v *View) KnowledgeUnionCount(node graph.NodeID, other *bitset.Set) int {
	if node < 0 || node >= len(v.know) {
		return -1
	}
	return v.know[node].UnionCount(other)
}

// BroadcastView extends View with the committed local-broadcast choices of
// the current round: Choices[v] is the token v is about to broadcast, or
// token.None if v stays silent. The strongly adaptive adversary of Section 2
// sees these before wiring the round's graph.
type BroadcastView struct {
	View
	Choices []token.ID
}

// NumBroadcasters returns the number of nodes broadcasting this round.
//
//dynspread:hotpath
func (v *BroadcastView) NumBroadcasters() int {
	c := 0
	for _, t := range v.Choices {
		if t != token.None {
			c++
		}
	}
	return c
}

// Adversary supplies the dynamic topology for unicast executions. NextGraph
// must return a connected graph on view.N nodes; the engine validates this
// and aborts the run otherwise.
type Adversary interface {
	// Name identifies the adversary in reports.
	Name() string
	// NextGraph returns the communication graph of round view.Round.
	//
	// The graph served for round r must stay unchanged until the same
	// adversary is asked for round r+2. The engine reads it during round r
	// and as view.Prev during round r+1, and never after that, so a dynamic
	// adversary may serve from two graphs it rewrites alternately (the
	// adversary package's two-slot ring) instead of allocating one per
	// round. An adversary whose graph never changes may serve the same
	// object every round; the engine then charges zero topological changes
	// without diffing.
	NextGraph(view *View) *graph.Graph
}

// BroadcastAdversary supplies the dynamic topology for local-broadcast
// executions; it additionally sees the round's committed broadcast choices
// (the paper's strongly adaptive adversary). Served graphs follow the same
// two-round rule as Adversary.NextGraph.
type BroadcastAdversary interface {
	Name() string
	NextGraph(view *BroadcastView) *graph.Graph
}

// NodeEnv is the per-node environment handed to protocol factories.
type NodeEnv struct {
	// ID is this node's identifier.
	ID graph.NodeID
	// N and K are common knowledge (number of nodes and tokens), as assumed
	// by the paper's algorithms.
	N, K int
	// NumSources is the number of source nodes s; Algorithm 2 assumes it is
	// known to all nodes (Section 3.2.2).
	NumSources int
	// Initial holds the tokens this node starts with.
	Initial []token.ID
	// InfoOf returns the ⟨source, index⟩ labeling of a token. Protocols use
	// it only to label tokens they hold (sources labeling their own tokens).
	InfoOf func(token.ID) token.Info
	// Rng is this node's private randomness stream.
	Rng *rand.Rand
}

// Protocol is a unicast token-forwarding algorithm instance at one node.
// Each round the engine calls BeginRound (delivering the paper's round-start
// neighbor information), then Send, then Deliver with the messages addressed
// to this node.
//
// Hot-path buffer contracts (what makes steady-state rounds allocation-free):
//
//   - neighbors is shared with the round's graph: read-only, valid until the
//     next BeginRound.
//   - The slice returned by Send is copied out before the protocol's next
//     Send, so implementations may reuse one buffer across rounds.
//   - in is delivered sorted by sender ID (the engine's (To, From) delivery
//     order); it aliases engine state, so it is read-only and must not be
//     retained or mutated past the Deliver call.
type Protocol interface {
	BeginRound(r int, neighbors []graph.NodeID)
	Send(r int) []Message
	Deliver(r int, in []Message)
}

// Factory builds the protocol instance for one node.
type Factory func(env NodeEnv) Protocol

// TokenArriver is the optional interface of protocols (unicast or broadcast)
// that support streaming token arrival: the engine calls Arrive at the start
// of round r — before Choose/BeginRound — when the arrival schedule injects
// token t at this node. The engine has already added t to the node's
// knowledge set, so the protocol may commit/send it in the same round.
// Executions whose arrival schedule injects tokens after round 0 require the
// protocol at every late token's source to implement this interface; the
// engine rejects the run otherwise.
type TokenArriver interface {
	Arrive(r int, t token.ID)
}

// BroadcastProtocol is a local-broadcast token-forwarding algorithm at one
// node. Choose commits the round's broadcast before the adversary wires the
// graph (nodes do not know their neighbors in advance in this mode); Deliver
// reports the broadcasts heard from the round's neighbors.
type BroadcastProtocol interface {
	Choose(r int) token.ID
	Deliver(r int, heard []BroadcastHear)
}

// BroadcastFactory builds the broadcast protocol instance for one node.
type BroadcastFactory func(env NodeEnv) BroadcastProtocol
