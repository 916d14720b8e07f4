package adversary

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/trace"
)

// Trace replay: the dynamics of a recorded (or externally imported)
// trace.GraphTrace, re-served round by round. Replaying the trace of a run
// together with the run's algorithm and seed reproduces the original
// execution — including its Metrics — exactly, because the engine's only
// other randomness source is the seed-derived node streams. Past the end of
// the trace the last recorded graph persists (a static tail), so replays of
// a completed run against a slower algorithm still terminate meaningfully.
//
// Replay adversaries are not registered in the component registry — they
// need a trace, not a seed — and are instead reached through the scenario
// layer (trace-backed dynamics) and the spreadsim -replay flag.

// ReplayName is the self-reported adversary name of trace replays.
const ReplayName = "trace-replay"

// replayCore applies the trace's events incrementally; both mode adapters
// share it. The engine requests rounds in increasing order, which is the
// only access pattern the cursor supports.
type replayCore struct {
	tr  *trace.GraphTrace
	cur *graph.Graph
	out ring
	pos int // rounds applied so far
}

func newReplayCore(tr *trace.GraphTrace) (*replayCore, error) {
	if tr == nil {
		return nil, fmt.Errorf("adversary: nil replay trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &replayCore{tr: tr, cur: graph.New(tr.N)}, nil
}

func (c *replayCore) step(r int) *graph.Graph {
	for c.pos < r && c.pos < len(c.tr.Rounds) {
		ev := c.tr.Rounds[c.pos]
		for _, e := range ev.Add {
			c.cur.AddEdge(e[0], e[1])
		}
		for _, e := range ev.Del {
			c.cur.RemoveEdge(e[0], e[1])
		}
		c.pos++
	}
	return c.out.copyOf(c.cur)
}

// Replay serves a recorded trace to unicast executions.
type Replay struct{ core *replayCore }

// NewReplay validates the trace and returns its unicast replay dynamics.
// Like every adversary, a Replay is stateful: one instance per execution.
func NewReplay(tr *trace.GraphTrace) (*Replay, error) {
	core, err := newReplayCore(tr)
	if err != nil {
		return nil, err
	}
	return &Replay{core: core}, nil
}

// Name implements sim.Adversary.
func (a *Replay) Name() string { return ReplayName }

// NextGraph implements sim.Adversary.
func (a *Replay) NextGraph(v *sim.View) *graph.Graph { return a.core.step(v.Round) }

// ReplayBroadcast serves a recorded trace to local-broadcast executions
// (it ignores the committed choices — a trace has already fixed its mind).
type ReplayBroadcast struct{ core *replayCore }

// NewReplayBroadcast validates the trace and returns its broadcast replay
// dynamics.
func NewReplayBroadcast(tr *trace.GraphTrace) (*ReplayBroadcast, error) {
	core, err := newReplayCore(tr)
	if err != nil {
		return nil, err
	}
	return &ReplayBroadcast{core: core}, nil
}

// Name implements sim.BroadcastAdversary.
func (a *ReplayBroadcast) Name() string { return ReplayName }

// NextGraph implements sim.BroadcastAdversary.
func (a *ReplayBroadcast) NextGraph(v *sim.BroadcastView) *graph.Graph { return a.core.step(v.Round) }
