package main

import (
	"runtime"
	"time"
)

// The benchmark runs on shared machines whose speed swings by a third
// within seconds and drifts by a quarter over minutes, while the same
// code's throughput moves by a few percent between runs on a steady host.
// So every timed interval is followed by a fixed CPU kernel that calls no
// code of the program, and the interval is converted to reference seconds:
// one reference second is the time in which the kernel runs
// refKernelsPerSecond times. A change to the program leaves the kernel
// alone, so it moves the per-reference-second figures exactly as it moves
// the wall-clock ones; a change in host speed moves both the interval and
// the kernel.
const (
	// kernelIters sizes one kernel run at about 25 ms on a 2-vCPU Xeon VM.
	kernelIters = 400_000
	// refKernelsPerSecond is about that VM's kernel rate, so reference and
	// wall seconds are of the same order there.
	refKernelsPerSecond = 40
	// kernelShare is the kernel's time as a share of the interval before
	// it. The host's speed swings faster than an interval lasts, so the
	// kernel must sample a fair part of the run for the two to see the
	// same host on average.
	kernelShare = 0.2
)

// kernelMap is the kernel's working set: a map of 2^15 slots that the
// kernel fills and drains, so the kernel allocates nothing after its
// first run and leaves alloc_mb_per_op alone.
var (
	kernelMap  = make(map[int32]int32, 1<<15)
	kernelSink int32
)

// hostSpeed runs the kernel, single-threaded, at least once and for at
// least kernelShare of d, and returns its rate in runs per second. It
// first finishes any garbage collection the measured work left running,
// whose write barriers and mark workers would otherwise slow the kernel by
// whatever share of the cycle it met.
func hostSpeed(d time.Duration) float64 {
	runtime.GC()
	budget := time.Duration(kernelShare * float64(d))
	start := time.Now()
	runs := 0
	for runs == 0 || time.Since(start) < budget {
		kernel()
		runs++
	}
	return float64(runs) / time.Since(start).Seconds()
}

// kernel fills and drains kernelMap from a xorshift stream.
func kernel() {
	clear(kernelMap)
	x := uint32(12345)
	var sum int32
	for i := range int32(kernelIters) {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k := int32(x & (1<<15 - 1))
		if v, ok := kernelMap[k]; ok {
			sum += v
			delete(kernelMap, k)
		} else {
			kernelMap[k] = i
		}
	}
	kernelSink += sum
}

// intervals are the timed intervals of one measured phase: how many
// operations each completed, its wall time, and the host speed measured
// right after it.
type intervals struct {
	ops, secs, speeds []float64
}

// add records an interval and measures the host speed after it.
func (iv *intervals) add(ops int, d time.Duration) {
	iv.ops = append(iv.ops, float64(ops))
	iv.secs = append(iv.secs, d.Seconds())
	iv.speeds = append(iv.speeds, hostSpeed(d))
}

// refSecs are the intervals' lengths in reference seconds.
func (iv *intervals) refSecs() []float64 {
	out := make([]float64, len(iv.secs))
	for i, s := range iv.secs {
		out[i] = s * iv.speeds[i] / refKernelsPerSecond
	}
	return out
}

// rates are the intervals' operations per reference second.
func (iv *intervals) rates() []float64 {
	out := iv.refSecs()
	for i := range out {
		out[i] = iv.ops[i] / out[i]
	}
	return out
}

// wallRates are the intervals' operations per wall-clock second.
func (iv *intervals) wallRates() []float64 {
	out := make([]float64, len(iv.secs))
	for i, s := range iv.secs {
		out[i] = iv.ops[i] / s
	}
	return out
}

// info is the intervals as the line before the result prints them.
func (iv *intervals) info() map[string][]float64 {
	return map[string][]float64{
		"ops": iv.ops, "s": iv.secs, "kernels_per_s": iv.speeds,
		"ref_s": iv.refSecs(), "ops_per_s": iv.wallRates(), "ops_per_ref_s": iv.rates(),
	}
}
