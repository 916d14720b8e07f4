package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
	"dynspread/internal/token"
)

// This file holds the traced run's timing adapters. They wrap the engine's
// public extension points — sim.Factory/sim.Protocol,
// sim.BroadcastFactory/sim.BroadcastProtocol, sim.Adversary and
// sim.BroadcastAdversary — and time every call, so the per-layer split is
// measured from outside the program: protocol calls are the core layer,
// NextGraph is the adversary layer, and whatever else a trial spends is the
// engine (validation, connectivity, graph diff, delivery, accounting).

// phase names one kind of timed call.
type phase int

const (
	phaseBeginRound phase = iota
	phaseSend
	phaseDeliver
	phaseChoose
	phaseArrive
	phaseNextGraph
	numPhases
)

// callTimer accumulates one trial's per-phase call time and count. It
// belongs to a single trial, which runs on one goroutine.
type callTimer struct {
	ns    [numPhases]int64
	calls [numPhases]int64
	// roundsBegin is when the first round's first call happened: everything
	// before it is trial setup (registry resolution, adversary and factory
	// construction, the engine's per-node setup).
	roundsBegin time.Time
}

func (t *callTimer) done(p phase, start time.Time) {
	t.ns[p] += int64(time.Since(start))
	t.calls[p]++
}

// firstRound marks the end of setup at the first round-phase call.
func (t *callTimer) firstRound(now time.Time) {
	if t.roundsBegin.IsZero() {
		t.roundsBegin = now
	}
}

func (t *callTimer) totalCalls() int64 {
	var n int64
	for _, c := range t.calls {
		n += c
	}
	return n
}

type timedProtocol struct {
	p sim.Protocol
	t *callTimer
}

func (w *timedProtocol) BeginRound(r int, neighbors []graph.NodeID) {
	s := time.Now()
	w.p.BeginRound(r, neighbors)
	w.t.done(phaseBeginRound, s)
}

func (w *timedProtocol) Send(r int) []sim.Message {
	s := time.Now()
	out := w.p.Send(r)
	w.t.done(phaseSend, s)
	return out
}

func (w *timedProtocol) Deliver(r int, in []sim.Message) {
	s := time.Now()
	w.p.Deliver(r, in)
	w.t.done(phaseDeliver, s)
}

type timedBroadcastProtocol struct {
	p sim.BroadcastProtocol
	t *callTimer
}

func (w *timedBroadcastProtocol) Choose(r int) token.ID {
	s := time.Now()
	w.t.firstRound(s)
	c := w.p.Choose(r)
	w.t.done(phaseChoose, s)
	return c
}

func (w *timedBroadcastProtocol) Deliver(r int, heard []sim.BroadcastHear) {
	s := time.Now()
	w.p.Deliver(r, heard)
	w.t.done(phaseDeliver, s)
}

// timedArriver forwards sim.TokenArriver. It is a separate type so a wrapped
// protocol implements the optional interface exactly when the wrapped one
// does: the engine rejects late arrivals at protocols that lack it.
type timedArriver struct {
	a sim.TokenArriver
	t *callTimer
}

func (w timedArriver) Arrive(r int, tok token.ID) {
	s := time.Now()
	w.t.firstRound(s)
	w.a.Arrive(r, tok)
	w.t.done(phaseArrive, s)
}

func timeFactory(f sim.Factory, t *callTimer) sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := f(env)
		if p == nil {
			return nil // the engine reports the nil protocol
		}
		w := &timedProtocol{p: p, t: t}
		if a, ok := p.(sim.TokenArriver); ok {
			return struct {
				*timedProtocol
				timedArriver
			}{w, timedArriver{a, t}}
		}
		return w
	}
}

func timeBroadcastFactory(f sim.BroadcastFactory, t *callTimer) sim.BroadcastFactory {
	return func(env sim.NodeEnv) sim.BroadcastProtocol {
		p := f(env)
		if p == nil {
			return nil
		}
		w := &timedBroadcastProtocol{p: p, t: t}
		if a, ok := p.(sim.TokenArriver); ok {
			return struct {
				*timedBroadcastProtocol
				timedArriver
			}{w, timedArriver{a, t}}
		}
		return w
	}
}

type timedAdversary struct {
	a sim.Adversary
	t *callTimer
}

func (w *timedAdversary) Name() string { return w.a.Name() }

func (w *timedAdversary) NextGraph(view *sim.View) *graph.Graph {
	s := time.Now()
	w.t.firstRound(s)
	g := w.a.NextGraph(view)
	w.t.done(phaseNextGraph, s)
	return g
}

type timedBroadcastAdversary struct {
	a sim.BroadcastAdversary
	t *callTimer
}

func (w *timedBroadcastAdversary) Name() string { return w.a.Name() }

func (w *timedBroadcastAdversary) NextGraph(view *sim.BroadcastView) *graph.Graph {
	s := time.Now()
	g := w.a.NextGraph(view)
	w.t.done(phaseNextGraph, s)
	return g
}

// runTimed executes one classic algorithm×adversary trial the way
// sweep.RunTrialRecorded does, with every protocol and adversary call
// timed into t. The adapters forward every call unchanged, so the result
// equals sweep.RunTrial's (timed_test.go checks this for every cell of
// both sweep workloads).
func runTimed(tr sweep.Trial, ws *sim.Workspace, rec *sim.Recorder, t *callTimer) (*sim.Result, error) {
	if tr.Scenario != "" || tr.Replay != nil || tr.Arrivals != nil || tr.OnGraph != nil {
		return nil, errors.New("perfbench: timed trials take plain algorithm×adversary cells only")
	}
	s := max(tr.Sources, 1)
	assign, err := token.Balanced(tr.N, tr.K, s)
	if err != nil {
		return nil, err
	}
	alg, err := registry.LookupAlgorithm(tr.Algorithm)
	if err != nil {
		return nil, err
	}
	adv, err := registry.LookupAdversary(tr.Adversary)
	if err != nil {
		return nil, err
	}
	if !adv.Modes.Has(alg.Mode) {
		return nil, fmt.Errorf("perfbench: adversary %q cannot serve %v algorithm %q", tr.Adversary, alg.Mode, tr.Algorithm)
	}
	p := registry.Params{N: tr.N, K: tr.K, Sources: s, Seed: tr.Seed, Sigma: tr.Sigma,
		Options: tr.Options, AdvOptions: tr.AdvOptions}
	if alg.Mode == registry.Unicast {
		f, err := alg.Unicast(p)
		if err != nil {
			return nil, err
		}
		a, err := adv.Unicast(p)
		if err != nil {
			return nil, err
		}
		return sim.RunUnicast(sim.UnicastConfig{
			Assign: assign, Factory: timeFactory(f, t), Adversary: &timedAdversary{a, t},
			MaxRounds: tr.MaxRounds, Seed: tr.Seed, CheckStability: tr.CheckStability,
			Workspace: ws, Recorder: rec,
		})
	}
	f, err := alg.Broadcast(p)
	if err != nil {
		return nil, err
	}
	a, err := adv.Broadcast(p)
	if err != nil {
		return nil, err
	}
	return sim.RunBroadcast(sim.BroadcastConfig{
		Assign: assign, Factory: timeBroadcastFactory(f, t), Adversary: &timedBroadcastAdversary{a, t},
		MaxRounds: tr.MaxRounds, Seed: tr.Seed, Workspace: ws, Recorder: rec,
	})
}

// clockCost is the calibrated cost of timing one call, which the traced
// split subtracts so that protocol calls lasting tens of nanoseconds are not
// buried under the clock reads around them (a time.Now/time.Since pair costs
// 50-150 ns on virtualised hosts).
type clockCost struct {
	// inside is what one timed interval around an empty call reads.
	inside float64
	// wall is what one timed call adds to the trial's wall time.
	wall float64
}

// calibrateClock measures clockCost as the median of several batches.
func calibrateClock() clockCost {
	const batch, batches = 20000, 9
	var t callTimer
	noop := func() {}
	insides := make([]float64, batches)
	walls := make([]float64, batches)
	for b := range batches {
		t = callTimer{}
		start := time.Now()
		for range batch {
			noop()
		}
		bare := time.Since(start)
		start = time.Now()
		for range batch {
			s := time.Now()
			noop()
			t.done(phaseSend, s)
		}
		timed := time.Since(start)
		insides[b] = float64(t.ns[phaseSend]) / batch
		walls[b] = float64(timed-bare) / batch
	}
	sort.Float64s(insides)
	sort.Float64s(walls)
	return clockCost{inside: insides[batches/2], wall: walls[batches/2]}
}
