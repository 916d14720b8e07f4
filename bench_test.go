package dynspread_test

// One benchmark per paper artifact (table/figure/theorem bound), backed by
// the same experiment harness that regenerates EXPERIMENTS.md, plus
// micro-benchmarks of the individual algorithms. Each experiment bench
// reports rows/op so regressions in coverage are visible alongside time.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkE6 -benchmem

import (
	"context"
	"testing"
	"time"

	"dynspread"
	"dynspread/internal/experiments"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var runner experiments.Runner
	for _, r := range experiments.All() {
		if r.ID == id {
			runner = r
			break
		}
	}
	if runner.Run == nil {
		b.Fatalf("experiment %s not found", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tb.Rows)), "rows/op")
	}
}

// BenchmarkE1LowerBoundLocalBroadcast regenerates Theorem 2.3's table:
// amortized local broadcasts of flooding vs the free-edge adversary.
func BenchmarkE1LowerBoundLocalBroadcast(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2FreeGraphStructure regenerates Figure 1 / Lemmas 2.1-2.2:
// free-graph component structure and sparse-round stalls.
func BenchmarkE2FreeGraphStructure(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3SingleSourceMessages regenerates Theorem 3.1's table:
// 1-adversary-competitive message complexity of Algorithm 1.
func BenchmarkE3SingleSourceMessages(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4SingleSourceRounds regenerates Theorem 3.4's table: O(nk)
// rounds on 3-edge-stable churn.
func BenchmarkE4SingleSourceRounds(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5MultiSource regenerates Theorems 3.5/3.6: the multi-source
// s-sweep.
func BenchmarkE5MultiSource(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Table1Oblivious regenerates Table 1 / Theorem 3.8: Algorithm
// 2's amortized messages vs k.
func BenchmarkE6Table1Oblivious(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7RandomWalkVisits regenerates Lemma 3.7's visit-bound table.
func BenchmarkE7RandomWalkVisits(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8StaticBaseline regenerates the introduction's static
// spanning-tree baseline table.
func BenchmarkE8StaticBaseline(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9PriorityAblation regenerates the request-priority ablation.
func BenchmarkE9PriorityAblation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10CenterSweep regenerates the center-density ablation.
func BenchmarkE10CenterSweep(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11FutileRounds regenerates the Lemma 3.3 futile-round table.
func BenchmarkE11FutileRounds(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Adaptivity regenerates the strong-vs-weak adversary table.
func BenchmarkE12Adaptivity(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13WalkCongestion regenerates the phase-1 congestion table.
func BenchmarkE13WalkCongestion(b *testing.B) { benchExperiment(b, "E13") }

// --- micro-benchmarks of single runs (time/op of one full dissemination) ---

func benchRun(b *testing.B, cfg dynspread.Config) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rep, err := dynspread.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Completed {
			b.Fatal("incomplete")
		}
		b.ReportMetric(rep.AmortizedPerToken, "msgs/token")
		b.ReportMetric(float64(rep.Rounds), "rounds/op")
	}
}

func BenchmarkRunSingleSourceChurn(b *testing.B) {
	benchRun(b, dynspread.Config{N: 32, K: 32, Algorithm: dynspread.AlgSingleSource, Adversary: dynspread.AdvChurn})
}

func BenchmarkRunSingleSourceRequestCutter(b *testing.B) {
	benchRun(b, dynspread.Config{N: 32, K: 32, Algorithm: dynspread.AlgSingleSource, Adversary: dynspread.AdvRequestCutter})
}

func BenchmarkRunMultiSourceChurn(b *testing.B) {
	benchRun(b, dynspread.Config{N: 32, K: 32, Sources: 8, Algorithm: dynspread.AlgMultiSource, Adversary: dynspread.AdvChurn})
}

func BenchmarkRunObliviousRegular(b *testing.B) {
	benchRun(b, dynspread.Config{N: 32, K: 32, Sources: 32, Algorithm: dynspread.AlgOblivious, Adversary: dynspread.AdvRegular})
}

func BenchmarkRunFloodingFreeEdge(b *testing.B) {
	benchRun(b, dynspread.Config{N: 24, K: 24, Sources: 24, Algorithm: dynspread.AlgFlooding, Adversary: dynspread.AdvFreeEdge})
}

func BenchmarkRunSpanningTreeStatic(b *testing.B) {
	benchRun(b, dynspread.Config{N: 32, K: 64, Algorithm: dynspread.AlgSpanningTree, Adversary: dynspread.AdvStatic})
}

// --- steady-round benchmarks: cost of ONE hot-path round ---
//
// These cap a non-completing deterministic trial at a fixed round count and
// report ns/round alongside the standard ns/op and allocs/op, so the perf
// trajectory tracks the engine's per-round cost directly. With a warm
// workspace the allocs/op of both must stay at the constant per-run setup
// cost — the alloc_gate tests enforce the stronger zero-per-round property.

func benchSteadyRounds(b *testing.B, cfg dynspread.Config, rounds int) {
	b.Helper()
	cfg.Workspace = sim.NewWorkspace()
	run := func(maxRounds int) time.Duration {
		c := cfg
		c.MaxRounds = maxRounds
		start := time.Now()
		rep, err := dynspread.Run(c)
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed {
			b.Fatal("trial completed; steady-round benchmark needs a capped run")
		}
		return elapsed
	}
	run(rounds) // warm the workspace
	// ns/round is measured differentially — full-length run minus
	// half-length run — so per-run setup (adversary construction, protocol
	// instances) cancels out and the metric tracks only the hot path, the
	// same technique the alloc_gate tests use for allocations. Min-of-3 per
	// length filters scheduler noise, which otherwise dominates a
	// single-iteration (-benchtime 1x) difference of two short runs.
	best := func(maxRounds int) time.Duration {
		bestD := run(maxRounds)
		for r := 0; r < 2; r++ {
			if d := run(maxRounds); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	half := rounds / 2
	var tFull, tHalf time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tFull += best(rounds)
		tHalf += best(half)
	}
	b.StopTimer()
	perRound := float64((tFull - tHalf).Nanoseconds()) / float64(b.N*(rounds-half))
	b.ReportMetric(max(perRound, 0), "ns/round")
}

// BenchmarkSteadyRoundUnicast measures the unicast hot path (value-typed
// messages, counting-sort delivery) via Topkis under the static adversary:
// ~256 messages per round on a 64-node graph.
func BenchmarkSteadyRoundUnicast(b *testing.B) {
	benchSteadyRounds(b, dynspread.Config{
		N: 64, K: 2048, Algorithm: dynspread.AlgTopkis, Adversary: dynspread.AdvStatic, Seed: 7,
	}, 400)
}

// BenchmarkSteadyRoundUnicastRecorded is the same workload with the flight
// recorder attached at the documented operational stride — compare against
// BenchmarkSteadyRoundUnicast to see the recorder's per-round cost (the
// TestRecorderOverheadGate bound is 1.10×; measured ~1.0×).
func BenchmarkSteadyRoundUnicastRecorded(b *testing.B) {
	benchSteadyRounds(b, dynspread.Config{
		N: 64, K: 2048, Algorithm: dynspread.AlgTopkis, Adversary: dynspread.AdvStatic, Seed: 7,
		Recorder: sim.NewRecorder(sim.RecorderConfig{Stride: 64}),
	}, 400)
}

// BenchmarkSteadyRoundBroadcast measures the local-broadcast hot path via
// flooding under the static adversary.
func BenchmarkSteadyRoundBroadcast(b *testing.B) {
	benchSteadyRounds(b, dynspread.Config{
		N: 64, K: 256, Sources: 64, Algorithm: dynspread.AlgFlooding, Adversary: dynspread.AdvStatic, Seed: 7,
	}, 400)
}

// --- sweep benchmarks: 64-trial grid, serial vs parallel vs no buffer reuse ---
//
// Compare with -benchmem:
//
//	go test -bench=BenchmarkSweep64 -benchmem
//
// Sweep64Parallel over Sweep64Serial shows the worker-pool speedup on
// multi-core (GOMAXPROCS workers vs 1); Sweep64Serial over
// Sweep64NoWorkspace shows the allocs/op cut from per-worker reuse of the
// engine's bitset/message/inbox buffers across sequential trials.

func sweepTrials64() []sweep.Trial {
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return sweep.Grid{
		Ns:          []int{24},
		Ks:          []int{24},
		Algorithms:  []string{"single-source", "topkis"},
		Adversaries: []string{"static", "churn"},
		Seeds:       seeds,
	}.Trials() // 2 algorithms × 2 adversaries × 16 seeds = 64 trials
}

func benchSweep(b *testing.B, parallelism int) {
	b.Helper()
	trials := sweepTrials64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sweep.Run(context.Background(), trials, sweep.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(trials) {
			b.Fatalf("got %d results", len(results))
		}
		b.ReportMetric(float64(len(results)), "trials/op")
	}
}

// BenchmarkSweep64Serial runs the grid on one worker (with buffer reuse).
func BenchmarkSweep64Serial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweep64Parallel runs the grid on GOMAXPROCS workers.
func BenchmarkSweep64Parallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweep64NoWorkspace runs the same 64 trials as cold per-trial
// engine calls (no workspace reuse) — the pre-sweep baseline.
func BenchmarkSweep64NoWorkspace(b *testing.B) {
	trials := sweepTrials64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trials {
			if _, err := sweep.RunTrial(tr, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(trials)), "trials/op")
	}
}
