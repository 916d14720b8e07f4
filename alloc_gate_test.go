package dynspread_test

// The allocation gate of the round hot path: once buffers are warm, a
// steady-state round must allocate NOTHING — in unicast mode (value-typed
// messages, counting-sort delivery, workspace buffers) and in broadcast
// mode (choice/heard buffers). The gate measures per-round allocations
// differentially: two executions of the same deterministic trial that
// differ only in MaxRounds allocate identically during setup and during
// their shared prefix, so any difference is exactly the allocation cost of
// the extra steady-state rounds.

import (
	"math/bits"
	"testing"
	"time"

	"dynspread"
	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/core"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
)

// perRoundAllocs returns the average allocations per steady-state round of
// cfg between rounds r1 and r2 (both below the trial's completion round).
func perRoundAllocs(t *testing.T, cfg dynspread.Config, r1, r2 int) float64 {
	t.Helper()
	cfg.Workspace = sim.NewWorkspace()
	run := func(rounds int) {
		c := cfg
		c.MaxRounds = rounds
		rep, err := dynspread.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", rounds)
		}
	}
	run(r2) // warm the workspace to the largest shape
	a1 := testing.AllocsPerRun(3, func() { run(r1) })
	a2 := testing.AllocsPerRun(3, func() { run(r2) })
	return (a2 - a1) / float64(r2-r1)
}

// gate fails the test unless cfg's steady-state rounds allocate exactly
// zero. testing.AllocsPerRun counts PROCESS-WIDE mallocs, so unrelated
// background activity (GC bookkeeping, runtime timers) occasionally leaks
// ±1 object into the differential — visible as spurious ±0.01 readings,
// sometimes negative. A real hot-path allocation reproduces on every
// attempt (even an amortized one, like a growing map, is consistently
// non-zero), so only a persistent non-zero reading fails.
func gate(t *testing.T, mode string, cfg dynspread.Config, r1, r2 int) {
	t.Helper()
	var got float64
	for attempt := 0; attempt < 3; attempt++ {
		if got = perRoundAllocs(t, cfg, r1, r2); got == 0 {
			return
		}
	}
	t.Fatalf("%s steady-state round allocates %.2f objects, want 0", mode, got)
}

// TestAllocGateUnicastFloodingRound: Topkis — the unicast flooder (every
// node pushes an unsent token to every neighbor every round) — under the
// registered static adversary must run its steady-state rounds with zero
// allocations.
func TestAllocGateUnicastFloodingRound(t *testing.T) {
	gate(t, "unicast flooding", dynspread.Config{
		N: 8, K: 512,
		Algorithm: dynspread.AlgTopkis,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}, 100, 200)
}

// TestAllocGateBroadcastFloodingRound: the paper's flooding algorithm under
// the registered static adversary must run its steady-state local-broadcast
// rounds with zero allocations.
func TestAllocGateBroadcastFloodingRound(t *testing.T) {
	gate(t, "broadcast flooding", dynspread.Config{
		N: 8, K: 64, Sources: 8,
		Algorithm: dynspread.AlgFlooding,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}, 100, 200)
}

// TestAllocGateMultiSourceRound: the paper's Multi-Source-Unicast, with
// s = 16 sources of 32 tokens each, must run its steady-state rounds
// (announcements, answers and Algorithm 1 requests all in play) with zero
// allocations under the static adversary.
func TestAllocGateMultiSourceRound(t *testing.T) {
	gate(t, "multi-source", dynspread.Config{
		N: 16, K: 512, Sources: 16,
		Algorithm: dynspread.AlgMultiSource,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}, 100, 200)
}

// TestAllocGateObliviousWalkRound: Algorithm 2's phase 1 must take its
// random-walk steps with zero allocations. With CF = 0.01 one center is
// marked, so the tokens are still walking at round 200 (they all park
// around round 850); the phase-1 cap lies beyond the measured window, so
// every measured round is a walk round.
func TestAllocGateObliviousWalkRound(t *testing.T) {
	gate(t, "oblivious walk", dynspread.Config{
		N: 16, K: 512, Sources: 16,
		Algorithm: dynspread.AlgOblivious,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
		Oblivious: core.ObliviousOpts{ForceTwoPhase: true, CF: 0.01, Phase1Cap: 1000},
	}, 100, 200)
}

// TestAllocGateDynamicRound: every registered adversary, in each mode it
// serves, must wire its steady-state rounds with zero allocations — Topkis
// for unicast, flooding for broadcast. This covers the adversary's graph
// generation (round graphs come from a two-slot ring and every generator
// keeps its scratch) and the engine's per-graph work on a graph it has not
// seen before: the connectivity check, the TC diff and the flattened
// neighbor lists.
//
// The gate does not run under the race detector: there sync.Pool drops
// items at random, so the per-run allocations of the fmt calls that name
// these adversaries differ from run to run and the differential is no
// longer exact.
func TestAllocGateDynamicRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	modes := []struct {
		mode registry.Mode
		alg  dynspread.Algorithm
	}{
		{registry.Unicast, dynspread.AlgTopkis},
		{registry.Broadcast, dynspread.AlgFlooding},
	}
	for _, adv := range registry.Adversaries() {
		for _, m := range modes {
			if !adv.Modes.Has(m.mode) {
				continue
			}
			name := adv.Name + "/" + string(m.alg)
			t.Run(name, func(t *testing.T) {
				gate(t, name, dynspread.Config{
					N: 8, K: 512,
					Algorithm: m.alg,
					Adversary: dynspread.Adversary(adv.Name),
					Seed:      7,
				}, 100, 200)
			})
		}
	}
}

// --- ns/round regression gates ---
//
// The speed analogue of the allocation gates, in two layers. Both express
// time as a RATIO against an in-process reference workload (a fixed
// memory+ALU sweep independent of the packages under test), so machine speed
// cancels and CI boxes of different generations apply the same bound; the
// baseline is re-measured inside every attempt so a load spike slows both
// sides of the ratio instead of just one.
//
//   - The ENGINE gate bounds the steady-state per-round time of a Topkis
//     trial, measured with the same differential trick as the allocation
//     gates (run(r2) − run(r1), so setup cancels). It catches regressions
//     anywhere on the round hot path — kernels, delivery sort, message
//     copies.
//   - The KERNEL gate bounds one fixed batch of the knowledge-set kernels
//     that dominate those rounds (FirstNotIn, UnionCount, ForEach, fused
//     Insert/Delete probes, across sparse and dense representations). The
//     batch is ~100% kernel work, so a 2× kernel slowdown doubles its
//     ratio — this is the bound the deliberate-slowdown check trips.
//
// Calibration (2026-08, PR 6, on a loaded shared VM): over repeated runs the
// engine ratio measures 0.061–0.070 (N=64 K=2048 Topkis static, rounds
// 200→400) and the kernel-batch ratio 0.84–1.06. A deliberate 2× slowdown
// of every kernel the batch exercises (verified once locally) pushes the
// kernel ratio to 1.80–1.85 — past the bound on every attempt — while the
// engine ratio moves to 0.07–0.10 (kernels are about half the round, and
// the engine bound deliberately carries headroom for the non-kernel half).
const (
	nsPerRoundMaxRatio  = 0.12
	kernelBatchMaxRatio = 1.6
)

// baselineUnitNanos times the reference workload: 64 rotate-xor-sum passes
// over a 64 KiB block, the machine-speed unit the round time is divided by.
func baselineUnitNanos() float64 {
	buf := make([]uint64, 1<<13)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var acc uint64
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		for pass := 0; pass < 64; pass++ {
			for _, w := range buf {
				acc += bits.RotateLeft64(w, 13) ^ (w >> 7)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	baselineSink = acc
	return float64(best.Nanoseconds())
}

var baselineSink uint64

// nsPerRound returns the minimum observed steady-state per-round time of cfg
// between rounds r1 and r2, in nanoseconds.
func nsPerRound(t *testing.T, cfg dynspread.Config, r1, r2 int) float64 {
	t.Helper()
	cfg.Workspace = sim.NewWorkspace()
	run := func(rounds int) time.Duration {
		c := cfg
		c.MaxRounds = rounds
		start := time.Now()
		rep, err := dynspread.Run(c)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", rounds)
		}
		return elapsed
	}
	run(r2) // warm the workspace (including sparse→dense promotion storage)
	best := func(rounds int) time.Duration {
		d := run(rounds)
		for i := 0; i < 2; i++ {
			if e := run(rounds); e < d {
				d = e
			}
		}
		return d
	}
	perRound := float64((best(r2) - best(r1)).Nanoseconds()) / float64(r2-r1)
	if perRound < 0 {
		perRound = 0
	}
	return perRound
}

// ratioGate runs measure (which must return a time-per-unit-of-work in
// nanoseconds) up to attempts times, re-measuring the baseline each attempt,
// and fails unless some attempt's ratio lands under bound. Taking the min
// over attempts means a load spike has to hit every attempt to produce a
// false failure.
func ratioGate(t *testing.T, what string, bound float64, measure func() float64) {
	t.Helper()
	bestRatio := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		ratio := measure() / baselineUnitNanos()
		if ratio < bestRatio {
			bestRatio = ratio
		}
		if bestRatio <= bound {
			t.Logf("%s ratio %.3f (bound %.3f)", what, bestRatio, bound)
			return
		}
	}
	t.Fatalf("%s costs %.3f baseline units, want <= %.3f — hot-path regression", what, bestRatio, bound)
}

// TestNsPerRoundGateUnicast bounds the steady-state per-round time of the
// kernel-heavy Topkis trial: K=2048 rounds are dominated by FirstNotIn
// sweeps, fused Insert deliveries, and the O(1) completion scan, with the
// delivery sort and message copies making up the rest.
func TestNsPerRoundGateUnicast(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	cfg := dynspread.Config{
		N: 64, K: 2048,
		Algorithm: dynspread.AlgTopkis,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}
	ratioGate(t, "steady-state round", nsPerRoundMaxRatio, func() float64 {
		return nsPerRound(t, cfg, 200, 400)
	})
}

// kernelBatchNanos times one fixed batch of the knowledge-set kernels a
// steady Topkis round leans on, across both representations: a sparse
// adaptive set (100/4096 elements) and a promoted dense one (2000/4096).
// The sent-sets hold a PREFIX of each know-set's elements — the shape
// Topkis's lowest-unsent rule produces — so every FirstNotIn sweeps past
// the whole prefix instead of stopping at the first word. Repetition counts
// per kernel are chosen so no single kernel dominates the batch; the batch
// mutates nothing net, so repeated calls measure identical work.
func kernelBatchNanos(t *testing.T) float64 {
	t.Helper()
	const n = 4096
	mk := func(count int) (*adaptive.Set, *bitset.Set) {
		know := adaptive.New(n)
		sent := bitset.New(n)
		for i := 0; i < count; i++ {
			e := i * n / count
			know.Insert(e)
			if i < count/2 {
				sent.Add(e)
			}
		}
		return know, sent
	}
	spKnow, spSent := mk(100)
	dnKnow, dnSent := mk(2000)
	if spKnow.Dense() || !dnKnow.Dense() {
		t.Fatal("kernel batch setup landed on the wrong representations")
	}
	other := bitset.New(n)
	for i := 0; i < n; i += 3 {
		other.Add(i)
	}
	sink := 0
	batch := func() {
		for rep := 0; rep < 16; rep++ {
			// Deep scans: 50 sparse Contains-probes / ~16 dense words each.
			for i := 0; i < 32; i++ {
				sink += spKnow.FirstNotIn(spSent)
				sink += dnKnow.FirstNotIn(dnSent)
			}
			// Word-batched popcount unions over all 64 words each.
			for i := 0; i < 16; i++ {
				sink += spKnow.UnionCount(other)
				sink += dnKnow.UnionCount(other)
			}
			// Membership churn: fused probe pairs across the universe.
			for i := 0; i < 64; i++ {
				probe := 1 + i*61%n
				if spKnow.Insert(probe) {
					spKnow.Delete(probe)
				}
				if dnKnow.Insert(probe) {
					dnKnow.Delete(probe)
				}
			}
			// Element sweeps (delivery/iteration shape).
			spKnow.ForEach(func(e int) { sink += e })
			dnKnow.ForEach(func(e int) { sink += e })
		}
	}
	batch() // warm caches
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		batch()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if sink == 42 {
		t.Log("unreachable, defeats dead-code elimination")
	}
	return float64(best.Nanoseconds())
}

// TestKernelBatchGate bounds the knowledge-set kernels directly: the batch
// is ~100% kernel work, so (unlike the engine-level gate, where kernels are
// about half the round) a 2× kernel slowdown doubles this ratio and fails
// the test with margin to spare. This is the bound the deliberate-slowdown
// verification trips.
func TestKernelBatchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	ratioGate(t, "kernel batch", kernelBatchMaxRatio, func() float64 {
		return kernelBatchNanos(t)
	})
}
