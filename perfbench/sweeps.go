package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
)

// sweepWorkload is a closed-loop sweep: one caller runs sweep.Run over the
// whole trial set, pass after pass, with GOMAXPROCS workers. It returns the
// grids of the trial set for the given trial seeds.
type sweepWorkload func(seeds []int64) []sweep.Grid

var sweepWorkloads = map[string]sweepWorkload{
	// The paper's unicast algorithms at their theorem regimes: the path
	// experiments E3-E6, E9 and E10 take.
	"paper-algorithms": func(seeds []int64) []sweep.Grid {
		var gs []sweep.Grid
		for _, n := range []int{24, 32} {
			cell := func(alg string, sources []int, advs ...string) sweep.Grid {
				return sweep.Grid{Ns: []int{n}, Ks: []int{n, 2 * n}, Sources: sources,
					Algorithms: []string{alg}, Adversaries: advs, Seeds: seeds, Sigma: 3}
			}
			gs = append(gs,
				cell("single-source", []int{1}, "churn", "request-cutter"),
				cell("multi-source", []int{4, n}, "churn", "request-cutter"),
				cell("oblivious", []int{n}, "regular", "churn"))
		}
		return gs
	},
	// The baselines over every dynamics generator, so the time falls on the
	// adversaries and the engine. The k=1024 Topkis cell starts with sparse
	// knowledge sets that get promoted.
	"baseline-dynamic": func(seeds []int64) []sweep.Grid {
		dyn := []string{"churn", "rewire", "markovian", "mobility"}
		cell := func(k, s int, algs []string, advs ...string) sweep.Grid {
			return sweep.Grid{Ns: []int{64}, Ks: []int{k}, Sources: []int{s},
				Algorithms: algs, Adversaries: advs, Seeds: seeds, Sigma: 3}
		}
		return []sweep.Grid{
			cell(1024, 1, []string{"topkis"}, "churn"),
			cell(128, 1, []string{"topkis"}, dyn...),
			cell(128, 64, []string{"flooding", "random-broadcast"}, dyn...),
			// random-broadcast never completes against free-edge.
			cell(128, 64, []string{"flooding"}, "free-edge"),
		}
	},
}

// trials expands the workload for one workload seed, one trial per cell,
// and resolves every trial's algorithm and adversary through the registry.
func (w sweepWorkload) trials(seed int64) ([]sweep.Trial, error) {
	seeds := []int64{rand.New(rand.NewSource(seed)).Int63n(1 << 40)}
	var out []sweep.Trial
	for _, g := range w(seeds) {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		out = append(out, g.Trials()...)
	}
	for _, t := range out {
		alg, err := registry.LookupAlgorithm(t.Algorithm)
		if err != nil {
			return nil, err
		}
		adv, err := registry.LookupAdversary(t.Adversary)
		if err != nil {
			return nil, err
		}
		if !adv.Modes.Has(alg.Mode) {
			return nil, fmt.Errorf("adversary %q cannot serve %v algorithm %q", t.Adversary, alg.Mode, t.Algorithm)
		}
	}
	return out, nil
}

// setupSweep is the set-up a sweep pays before its first result: grid
// expansion, registry resolution, and a one-round pass over every trial,
// which constructs each trial's adversary and protocols and sizes the
// workers' buffers.
func setupSweep(ctx context.Context, w sweepWorkload, seed int64, workers int) ([]sweep.Trial, error) {
	trials, err := w.trials(seed)
	if err != nil {
		return nil, err
	}
	warm := make([]sweep.Trial, len(trials))
	for i, t := range trials {
		t.MaxRounds = 1
		warm[i] = t
	}
	if _, err := sweep.Run(ctx, warm, sweep.Options{Parallelism: workers}); err != nil {
		return nil, err
	}
	return trials, nil
}

// checkTrial verifies one result: the trial completed, every node learned
// every token it did not start with, and the counts equal the reference.
func checkTrial(t sweep.Trial, got, ref *sim.Result) error {
	if got == nil || !got.Completed {
		return fmt.Errorf("%s did not complete", t)
	}
	if want := int64(t.K) * int64(t.N-1); got.Metrics.Learnings != want {
		return fmt.Errorf("%s: %d learnings, want k(n-1) = %d", t, got.Metrics.Learnings, want)
	}
	if ref != nil && (got.Rounds != ref.Rounds || got.Metrics.Messages != ref.Metrics.Messages ||
		got.Metrics.TC != ref.Metrics.TC || got.Metrics.Learnings != ref.Metrics.Learnings) {
		return fmt.Errorf("%s: rounds/messages/tc/learnings %d/%d/%d/%d, reference %d/%d/%d/%d", t,
			got.Rounds, got.Metrics.Messages, got.Metrics.TC, got.Metrics.Learnings,
			ref.Rounds, ref.Metrics.Messages, ref.Metrics.TC, ref.Metrics.Learnings)
	}
	return nil
}

// references runs every trial once on fresh buffers, outside any timed
// region, and checks each against the completion invariants.
func references(trials []sweep.Trial, workers int) ([]*sim.Result, error) {
	refs := make([]*sim.Result, len(trials))
	_, err := sim.ForEach(len(trials), workers, func() func(int) error {
		return func(i int) error {
			r, err := sweep.RunTrial(trials[i], nil)
			if err != nil {
				return err
			}
			refs[i] = r.Res
			return checkTrial(trials[i], r.Res, nil)
		}
	})
	return refs, err
}

// longestFirst orders the trials by their reference message count, largest
// first, so a pass ends on short trials and its wall time measures the
// pool's throughput rather than which worker happened to draw the last long
// trial.
func longestFirst(trials []sweep.Trial, refs []*sim.Result) {
	idx := make([]int, len(trials))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return refs[idx[a]].Metrics.Messages > refs[idx[b]].Metrics.Messages
	})
	ts, rs := slices.Clone(trials), slices.Clone(refs)
	for i, j := range idx {
		trials[i], refs[i] = ts[j], rs[j]
	}
}

// sweepCounts are the exact simulation counts of one pass over the trial
// set. A change that only makes the program faster leaves them unchanged.
func sweepCounts(refs []*sim.Result) map[string]float64 {
	var rounds, messages, tc, learnings, tokens float64
	for _, r := range refs {
		m := r.Metrics
		rounds += float64(r.Rounds)
		messages += float64(m.Messages)
		tc += float64(m.TC)
		learnings += float64(m.Learnings)
		// A local broadcast carries exactly one token.
		tokens += float64(m.TokenPayloads + m.Broadcasts)
	}
	return map[string]float64{
		"sim.rounds": rounds, "sim.messages": messages, "sim.tc": tc, "sim.learnings": learnings,
		"sim.useful_token_ratio": learnings / tokens,
	}
}

// passStats accumulates the passes of one measured phase.
type passStats struct {
	trials, failed int64
	// wall is the passes' total wall time, host-speed measurements aside.
	wall     time.Duration
	passes   intervals
	firstErr error
}

func (p *passStats) pass(n int, wall time.Duration) {
	p.trials += int64(n)
	p.wall += wall
	p.passes.add(n, wall)
}

func (p *passStats) fail(n int, err error) {
	p.failed += int64(n)
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// runSweepPasses runs untraced sweep.Run passes until budget is spent.
func runSweepPasses(ctx context.Context, trials []sweep.Trial, refs []*sim.Result, workers int, budget time.Duration) passStats {
	var st passStats
	for begin := time.Now(); time.Since(begin) < budget; {
		start := time.Now()
		res, err := sweep.Run(ctx, trials, sweep.Options{Parallelism: workers})
		st.pass(len(trials), time.Since(start))
		if err != nil {
			st.fail(len(trials), err)
			continue
		}
		for i, r := range res {
			if err := checkTrial(trials[i], r.Res, refs[i]); err != nil {
				st.fail(1, err)
			}
		}
	}
	return st
}

// layerTotals is the traced split summed over trials.
type layerTotals struct {
	trialNs, setupNs float64
	phaseNs          [numPhases]float64
	protoTotalNs     float64
	nextGraphCalls   int64
	rounds           float64
	protoNs, algNs   map[string]float64
	trialMs          []float64
	algTrialMs       map[string][]float64
	promotions       int64
	demotions        int64
	samples, dropped int64
	busyNs           float64
}

func (l *layerTotals) add(t sweep.Trial, res *sim.Result, tm *callTimer, start time.Time, raw time.Duration, c clockCost) {
	corr := float64(raw) - float64(tm.totalCalls())*c.wall
	l.busyNs += float64(raw)
	l.trialNs += corr
	l.setupNs += float64(tm.roundsBegin.Sub(start))
	var proto float64
	for p := range numPhases {
		ns := math.Max(0, float64(tm.ns[p])-float64(tm.calls[p])*c.inside)
		l.phaseNs[p] += ns
		if p != phaseNextGraph {
			proto += ns
		}
	}
	l.nextGraphCalls += tm.calls[phaseNextGraph]
	l.protoTotalNs += proto
	l.protoNs[t.Algorithm] += proto
	l.algNs[t.Algorithm] += corr
	l.rounds += float64(res.Rounds)
	l.trialMs = append(l.trialMs, corr/1e6)
	l.algTrialMs[t.Algorithm] = append(l.algTrialMs[t.Algorithm], corr/1e6)
}

// runTracedPasses runs the trial set through the timing adapters on the
// same pool shape as sweep.Run (sim.ForEach, one workspace per worker),
// with a flight recorder per worker that keeps only each trial's final
// sample, so its promotion and demotion counts cover the whole trial.
func runTracedPasses(trials []sweep.Trial, refs []*sim.Result, workers int, budget time.Duration, c clockCost) (passStats, *layerTotals) {
	type traced struct {
		res   *sim.Result
		tm    callTimer
		start time.Time
		raw   time.Duration
		snap  sim.RecorderSnapshot
		err   error
	}
	out := make([]traced, len(trials))
	l := &layerTotals{protoNs: map[string]float64{}, algNs: map[string]float64{}, algTrialMs: map[string][]float64{}}
	var st passStats
	for pass, begin := 0, time.Now(); time.Since(begin) < budget; pass++ {
		start := time.Now()
		sim.ForEach(len(trials), workers, func() func(int) error {
			ws := sim.NewWorkspace()
			rec := sim.NewRecorder(sim.RecorderConfig{Stride: math.MaxInt32, Capacity: 1})
			return func(i int) error {
				o := &out[i]
				*o = traced{start: time.Now()}
				o.res, o.err = runTimed(trials[i], ws, rec, &o.tm)
				o.raw = time.Since(o.start)
				o.snap = rec.Snapshot()
				return nil
			}
		})
		st.pass(len(trials), time.Since(start))
		for i := range out {
			o := &out[i]
			if o.err == nil {
				o.err = checkTrial(trials[i], o.res, refs[i])
			}
			if o.err != nil {
				st.fail(1, o.err)
				continue
			}
			l.add(trials[i], o.res, &o.tm, o.start, o.raw, c)
			if pass == 0 {
				for _, s := range o.snap.Samples {
					l.promotions += s.Promotions
					l.demotions += s.Demotions
				}
				l.samples += int64(len(o.snap.Samples))
				l.dropped += o.snap.Dropped
			}
		}
	}
	return st, l
}

// layerMetrics turns the traced totals into the per-layer metrics.
func (l *layerTotals) metrics(wall time.Duration, workers, trialsPerPass int) map[string]float64 {
	m := map[string]float64{
		"sweep.trial_ms_p50":         quantile(l.trialMs, 0.50),
		"sweep.trial_ms_p99":         quantile(l.trialMs, 0.99),
		"sweep.worker_busy_share":    l.busyNs / (float64(workers) * float64(wall)),
		"sim.round_us":               l.trialNs / l.rounds / 1e3,
		"sim.setup_share":            l.setupNs / l.trialNs,
		"adversary.next_graph_share": l.phaseNs[phaseNextGraph] / l.trialNs,
		"core.begin_round_share":     l.phaseNs[phaseBeginRound] / l.trialNs,
		"core.send_share":            l.phaseNs[phaseSend] / l.trialNs,
		"core.deliver_share":         l.phaseNs[phaseDeliver] / l.trialNs,
		"core.choose_share":          l.phaseNs[phaseChoose] / l.trialNs,
		"core.protocol_share":        l.protoTotalNs / l.trialNs,
		"sim.engine_self_share":      (l.trialNs - l.setupNs - l.protoTotalNs - l.phaseNs[phaseNextGraph]) / l.trialNs,
		"adaptive.promotions":        float64(l.promotions),
		"adaptive.demotions":         float64(l.demotions),
		"recorder.samples_per_trial": float64(l.samples) / float64(trialsPerPass),
		"recorder.dropped_per_trial": float64(l.dropped) / float64(trialsPerPass),
	}
	if c := l.nextGraphCalls; c > 0 {
		m["adversary.next_graph_us"] = l.phaseNs[phaseNextGraph] / float64(c) / 1e3
	}
	for _, a := range algorithms {
		if l.algNs[a] > 0 {
			m["core.protocol_share."+a] = l.protoNs[a] / l.algNs[a]
			m["sweep.trial_ms."+a] = quantile(l.algTrialMs[a], 0.5)
		}
	}
	return m
}

// runSweep measures one sweep workload.
func runSweep(ctx context.Context, w sweepWorkload, o options) (report, error) {
	workers := o.workers
	var setups intervals
	var trials []sweep.Trial
	for range setupReps {
		runtime.GC()
		start := time.Now()
		var err error
		if trials, err = setupSweep(ctx, w, o.seed, workers); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups.add(1, time.Since(start))
	}
	refs, err := references(trials, workers)
	if err != nil {
		return report{}, fmt.Errorf("reference run: %w", err)
	}
	longestFirst(trials, refs)
	rep := report{counts: sweepCounts(refs)}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	before := memAllocated()
	st := runSweepPasses(ctx, trials, refs, workers, budget)
	allocated := memAllocated() - before
	rep.attempted, rep.failed, rep.firstErr = st.trials, st.failed, st.firstErr
	tps := quantile(st.passes.rates(), 0.5)
	rep.passes, rep.setups = st.passes, setups
	rep.endToEnd = map[string]float64{
		"setup_s":         quantile(setups.refSecs(), 0.5),
		"ops_per_ref_s":   tps,
		"alloc_mb_per_op": float64(allocated) / 1e6 / float64(st.trials),
	}
	if !o.trace {
		return rep, nil
	}
	tst, l := runTracedPasses(trials, refs, workers, budget, calibrateClock())
	rep.attempted += tst.trials
	rep.failed += tst.failed
	if rep.firstErr == nil {
		rep.firstErr = tst.firstErr
	}
	rep.perLayer = l.metrics(tst.wall, workers, len(trials))
	for k, v := range rep.counts {
		rep.perLayer[k] = v
	}
	rep.perLayer["trace.overhead_share"] = 1 - quantile(tst.passes.rates(), 0.5)/tps
	rep.perLayer["max_rss_mb"] = maxRSSMB()
	return rep, nil
}
