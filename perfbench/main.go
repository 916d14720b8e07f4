// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the run's correctness, its operation counts and
// its metrics:
//
//	go run . --workload paper-algorithms --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 measures untraced
// for half the time and traced for the other half, and reports the
// per-layer split plus the tracing overhead (the gap between the two
// halves' throughput). README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	_ "dynspread/internal/adversary" // registers the adversaries
	_ "dynspread/internal/core"      // registers the algorithms
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, in reference seconds, and the last set-up is the one measured.
const setupReps = 15

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (main_test.go checks that the two agree).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics every workload reports with --trace 0. An
// operation is a trial on the sweep workloads and a request on
// service-mix. Times are in reference seconds (hostspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_ref_s", "1/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// algorithms are the algorithms the workloads run; per-algorithm metrics
// are keyed by them.
var algorithms = []string{"single-source", "multi-source", "oblivious", "topkis", "flooding", "random-broadcast"}

// paths are the four request paths of service-mix.
var paths = []string{"cold", "warm", "stream", "queued"}

// perLayer are the metrics every workload reports with --trace 1. A layer
// a workload does not reach reads 0; the run lists those metrics as
// "unmeasured" on the line before the result.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"sweep.trial_ms_p50", "ms", "lower"},
		{"sweep.trial_ms_p99", "ms", "lower"},
		{"sweep.worker_busy_share", "share", "higher"},
		{"sim.round_us", "us", "lower"},
		{"sim.engine_self_share", "share", "lower"},
		{"sim.setup_share", "share", "lower"},
		{"sim.rounds", "count", "lower"},
		{"sim.messages", "count", "lower"},
		{"sim.tc", "count", "lower"},
		{"sim.learnings", "count", "lower"},
		{"sim.useful_token_ratio", "share", "higher"},
		{"adversary.next_graph_share", "share", "lower"},
		{"adversary.next_graph_us", "us", "lower"},
		{"core.protocol_share", "share", "lower"},
		{"core.begin_round_share", "share", "lower"},
		{"core.send_share", "share", "lower"},
		{"core.deliver_share", "share", "lower"},
		{"core.choose_share", "share", "lower"},
		{"adaptive.promotions", "count", "lower"},
		{"adaptive.demotions", "count", "lower"},
		{"recorder.samples_per_trial", "count", "higher"},
		{"recorder.dropped_per_trial", "count", "lower"},
		{"service.queue_wait_ms_p50", "ms", "lower"},
		{"service.queue_wait_ms_p99", "ms", "lower"},
		{"service.cache_hit_ratio", "share", "higher"},
		{"service.stream_overflows", "count", "lower"},
		{"wire.round_series_bytes_per_trial", "B", "lower"},
		{"trace.overhead_share", "share", "lower"},
		{"max_rss_mb", "MB", "lower"},
	}
	for _, a := range algorithms {
		ms = append(ms,
			metricDef{"sweep.trial_ms." + a, "ms", "lower"},
			metricDef{"core.protocol_share." + a, "share", "lower"})
	}
	for _, p := range paths {
		ms = append(ms,
			metricDef{"service.latency_ms_p50." + p, "ms", "lower"},
			metricDef{"service.latency_ms_p99." + p, "ms", "lower"},
			metricDef{"service.samples." + p, "count", "higher"},
			metricDef{"service.run_ms_p50." + p, "ms", "lower"},
			metricDef{"service.overhead_share." + p, "share", "lower"},
			metricDef{"wire.response_bytes_per_trial." + p, "B", "lower"})
	}
	return ms
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	firstErr          error
	endToEnd          map[string]float64
	perLayer          map[string]float64
	// counts are exact simulation counts of a fixed part of the workload;
	// they are printed in both modes so traced and untraced runs can be
	// compared.
	counts map[string]float64
	// passes are the untraced intervals ops_per_ref_s is the median rate
	// of, and setups the set-ups setup_s is the median of; both are printed
	// with their wall times and host speeds, so the host's noise is visible.
	passes, setups intervals
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		o     options
		trace int
		secs  int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-algorithms, baseline-dynamic or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced per-layer split instead of the end-to-end metrics")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	o.workers = runtime.GOMAXPROCS(0)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 || (o.trace && o.seconds < 2*time.Second) {
		return errors.New("--seconds must be at least 1 (2 with --trace 1)")
	}
	ctx := context.Background()
	kernel() // sizes the kernel's map before anything is measured
	var (
		rep report
		err error
	)
	if w, ok := sweepWorkloads[o.workload]; ok {
		rep, err = runSweep(ctx, w, o)
	} else if o.workload == "service-mix" {
		rep, err = runService(ctx, o)
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}

	defs, values := endToEnd, rep.endToEnd
	if o.trace {
		defs, values = perLayer, rep.perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	var unmeasured []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			unmeasured = append(unmeasured, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if !o.trace && len(unmeasured) > 0 {
		return fmt.Errorf("end-to-end metrics not measured: %v", unmeasured)
	}
	info := map[string]any{
		"env": map[string]any{
			"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		"counts": rep.counts,
		"passes": rep.passes.info(),
		"setups": rep.setups.info(),
	}
	if o.trace {
		info["end_to_end_untraced_half"] = rep.endToEnd
		sort.Strings(unmeasured)
		info["unmeasured"] = unmeasured
	}
	if rep.firstErr != nil {
		info["first_error"] = rep.firstErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", rep.firstErr)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(res)
}

// memAllocated returns the bytes allocated by the process so far.
func memAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
