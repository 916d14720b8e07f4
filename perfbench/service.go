package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// service-mix drives an in-process spreadd server behind httptest with
// GOMAXPROCS closed-loop clients. Each client cycles through four request
// paths:
//
//	cold    a never-seen grid of SyncTrialLimit trials, answered
//	        synchronously (every trial a cache miss)
//	warm    the same grid again (every trial a cache hit)
//	stream  a recorded ?stream=1 run, which bypasses the cache and emits a
//	        round_series event per trial
//	queued  an async grid larger than SyncTrialLimit, timed to the "done"
//	        event of GET /v1/jobs/{id}/stream
const (
	svcN, svcK   = 16, 16
	gridSeeds    = 4 // × 2 algorithms × 2 adversaries
	gridTrials   = 4 * gridSeeds
	queuedSeeds  = 5
	queuedTrials = 4 * queuedSeeds // above the default SyncTrialLimit of 16
	svcCapacity  = 256
	countedCycle = 8 // per client: the cycles whose simulation counts are reported
	// segment is how long the clients run between two host-speed
	// measurements; each client finishes its current request first.
	segment = 2 * time.Second
)

// pathOp is one timed request.
type pathOp struct {
	path    string
	latency time.Duration
	traceID string
	trials  int
	bytes   int64
}

// svcRun is one measured phase against one server.
type svcRun struct {
	// traced makes every timed request carry a traceparent of a fresh
	// trace, so its job's spans can be read back by trace ID after the
	// server has forgotten the job itself.
	traced   bool
	mu       sync.Mutex
	ops      []pathOp
	failed   int64
	firstErr error
	counts   map[string]float64
	recorded []*wire.RoundSeries // every streamed trial's series
	counted  []*wire.RoundSeries // the counted cycles' share of recorded
	// wall is the segments' total wall time, host-speed measurements aside.
	wall time.Duration
	// segments are the requests completed in each segment of the run.
	segments intervals
}

func (r *svcRun) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// svcGrid is the grid of one request: seeds are unique per client, cycle
// and path, so no two requests of a run share a trial.
func svcGrid(seed int64, client, cycle, path, seeds int) *wire.GridSpec {
	ss := make([]int64, seeds)
	for i := range ss {
		ss[i] = seed<<32 + int64(((client*1_000_000+cycle)*4+path)*8+i)
	}
	return &wire.GridSpec{Ns: []int{svcN}, Ks: []int{svcK}, Algorithms: []string{"single-source", "topkis"},
		Adversaries: []string{"static", "churn"}, Seeds: ss, Sigma: 3}
}

// countingTransport counts response body bytes, so the traced run can
// report wire size per trial.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// server is one in-process spreadd behind httptest.
type server struct {
	srv *service.Server
	hs  *httptest.Server
}

// startServer builds a server and waits for its first 200 from /v1/readyz.
func startServer(ctx context.Context, tr *tracing.Tracer) (*server, error) {
	srv := service.New(service.Config{Parallelism: 1, Tracer: tr})
	s := &server{srv: srv, hs: httptest.NewServer(srv.Handler())}
	c := &service.Client{BaseURL: s.hs.URL, HTTPClient: s.hs.Client()}
	for {
		err := c.Ready(ctx)
		if err == nil {
			return s, nil
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *server) stop() {
	s.hs.Close()
	s.srv.Shutdown(context.Background())
}

func (s *server) client() (*service.Client, *countingTransport) {
	ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	return &service.Client{BaseURL: s.hs.URL, HTTPClient: &http.Client{Transport: ct}}, ct
}

// checkResults verifies the completion invariants of a job's results.
func checkResults(results []wire.TrialResult, want int) error {
	if len(results) != want {
		return fmt.Errorf("%d results, want %d", len(results), want)
	}
	for _, r := range results {
		if !r.Completed {
			return fmt.Errorf("trial %+v did not complete", r.Trial)
		}
		if w := int64(r.Trial.K) * int64(r.Trial.N-1); r.Metrics.Learnings != w {
			return fmt.Errorf("trial %+v: %d learnings, want k(n-1) = %d", r.Trial, r.Metrics.Learnings, w)
		}
	}
	return nil
}

// checkSeries verifies that a complete recorded series sums to the trial's
// metrics.
func checkSeries(r wire.TrialResult) error {
	s := r.RoundSeries
	if s == nil {
		return errors.New("recorded trial has no round series")
	}
	if s.Dropped != 0 {
		return nil
	}
	var msgs, learned, tc int64
	for _, x := range s.Samples() {
		msgs += x.Messages
		learned += x.Learned
		tc += x.TC
	}
	if msgs != r.Metrics.Messages || learned != r.Metrics.Learnings || tc != r.Metrics.TC {
		return fmt.Errorf("series sums messages/learned/tc %d/%d/%d, trial metrics %d/%d/%d",
			msgs, learned, tc, r.Metrics.Messages, r.Metrics.Learnings, r.Metrics.TC)
	}
	return nil
}

// cycle runs one client's four requests. Only the requests are timed; the
// checks of each answer run after its timer stops.
func (r *svcRun) cycle(ctx context.Context, c *service.Client, ct *countingTransport, seed int64, client, cyc int) {
	counted := cyc < countedCycle
	timed := func(path string, trials int, do func(ctx context.Context) error) error {
		op := pathOp{path: path, trials: trials}
		opCtx := ctx
		if r.traced {
			var sc tracing.SpanContext
			rand.Read(sc.Trace[:])
			rand.Read(sc.Span[:])
			opCtx = tracing.ContextWithRemote(ctx, sc)
			op.traceID = sc.Trace.String()
		}
		b0 := ct.n.Load()
		start := time.Now()
		err := do(opCtx)
		op.latency = time.Since(start)
		op.bytes = ct.n.Load() - b0
		r.mu.Lock()
		r.ops = append(r.ops, op)
		r.mu.Unlock()
		return err
	}
	check := func(path string, err error) {
		if err != nil {
			r.fail(fmt.Errorf("%s: %w", path, err))
		}
	}
	done := func(st service.JobStatus, trials int) error {
		if st.State != service.JobDone {
			return fmt.Errorf("job %s is %s", st.ID, st.State)
		}
		return checkResults(st.Results, trials)
	}

	cold := wire.RunRequest{Grid: svcGrid(seed, client, cyc, 0, gridSeeds)}
	var coldSt service.JobStatus
	check("cold", func() error {
		if err := timed("cold", gridTrials, func(ctx context.Context) (err error) {
			coldSt, err = c.Run(ctx, cold)
			return err
		}); err != nil {
			return err
		}
		if counted {
			r.count(coldSt.Results)
		}
		return done(coldSt, gridTrials)
	}())

	check("warm", func() error {
		var st service.JobStatus
		if err := timed("warm", gridTrials, func(ctx context.Context) (err error) {
			st, err = c.Run(ctx, cold)
			return err
		}); err != nil {
			return err
		}
		if st.CacheHits != gridTrials {
			return fmt.Errorf("job %s had %d cache hits, want %d", st.ID, st.CacheHits, gridTrials)
		}
		if !reflect.DeepEqual(st.Results, coldSt.Results) {
			return errors.New("warm results differ from the cold ones")
		}
		return done(st, gridTrials)
	}())

	check("stream", func() error {
		req := wire.RunRequest{Grid: svcGrid(seed, client, cyc, 1, gridSeeds),
			Record: &wire.RecordSpec{Stride: 1, Capacity: svcCapacity}}
		var id, state string
		streamed := make([]wire.TrialResult, gridTrials)
		if err := timed("stream", gridTrials, func(ctx context.Context) error {
			return c.RunStream(ctx, req, func(ev wire.StreamEvent) error {
				switch ev.Type {
				case "job":
					id = ev.ID
				case "result":
					if ev.Index < 0 || ev.Index >= len(streamed) || ev.Result == nil {
						return fmt.Errorf("bad result event %+v", ev)
					}
					streamed[ev.Index] = *ev.Result
				case "done":
					state = ev.State
				}
				return nil
			})
		}); err != nil {
			return err
		}
		if state != string(service.JobDone) {
			return fmt.Errorf("stream ended in state %q", state)
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return fmt.Errorf("fetch job: %w", err)
		}
		if !reflect.DeepEqual(st.Results, streamed) {
			return errors.New("streamed results differ from GET /v1/jobs/{id}")
		}
		if err := done(st, gridTrials); err != nil {
			return err
		}
		r.mu.Lock()
		for _, res := range streamed {
			r.recorded = append(r.recorded, res.RoundSeries)
			if counted {
				r.counted = append(r.counted, res.RoundSeries)
			}
		}
		r.mu.Unlock()
		if counted {
			r.count(streamed)
		}
		for _, res := range streamed {
			if err := checkSeries(res); err != nil {
				return err
			}
		}
		return nil
	}())

	check("queued", func() error {
		req := wire.RunRequest{Grid: svcGrid(seed, client, cyc, 2, queuedSeeds), Async: true}
		var id, state string
		if err := timed("queued", queuedTrials, func(ctx context.Context) error {
			st, err := c.Run(ctx, req)
			if err != nil {
				return err
			}
			id = st.ID
			return c.JobStream(ctx, id, func(ev wire.StreamEvent) error {
				if ev.Type == "done" {
					state = ev.State
				}
				return nil
			})
		}); err != nil {
			return err
		}
		if state != string(service.JobDone) {
			return fmt.Errorf("job %s ended in state %q", id, state)
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return fmt.Errorf("fetch job: %w", err)
		}
		if counted {
			r.count(st.Results)
		}
		return done(st, queuedTrials)
	}())
}

// count adds simulated trials to the exact counts of the counted cycles.
func (r *svcRun) count(results []wire.TrialResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range results {
		m := res.Metrics
		r.counts["sim.rounds"] += float64(res.Rounds)
		r.counts["sim.messages"] += float64(m.Messages)
		r.counts["sim.tc"] += float64(m.TC)
		r.counts["sim.learnings"] += float64(m.Learnings)
		r.counts["tokens"] += float64(m.TokenPayloads + m.Broadcasts)
	}
}

// measure runs the closed loop against s, segment by segment, until
// budget is spent, and measures the host speed after each segment.
func measure(ctx context.Context, s *server, o options, budget time.Duration, traced bool) *svcRun {
	r := &svcRun{traced: traced, counts: map[string]float64{}}
	clients := make([]*service.Client, o.workers)
	transports := make([]*countingTransport, o.workers)
	cycles := make([]int, o.workers)
	for w := range clients {
		clients[w], transports[w] = s.client()
		defer transports[w].base.CloseIdleConnections()
	}
	for begin := time.Now(); time.Since(begin) < budget; {
		start := time.Now()
		deadline := start.Add(segment)
		before := len(r.ops)
		var wg sync.WaitGroup
		for w := range o.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; time.Now().Before(deadline); cycles[w]++ {
					r.cycle(ctx, clients[w], transports[w], o.seed, w, cycles[w])
				}
			}()
		}
		wg.Wait()
		d := time.Since(start)
		r.wall += d
		r.segments.add(len(r.ops)-before, d)
	}
	if tok := r.counts["tokens"]; tok > 0 {
		r.counts["sim.useful_token_ratio"] = r.counts["sim.learnings"] / tok
	}
	delete(r.counts, "tokens")
	return r
}

func (r *svcRun) latencies(path string) []float64 {
	var xs []float64
	for _, op := range r.ops {
		if op.path == path {
			xs = append(xs, ms(op.latency))
		}
	}
	return xs
}

// runService measures service-mix.
func runService(ctx context.Context, o options) (report, error) {
	var (
		setups intervals
		s      *server
	)
	for i := range setupReps {
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = startServer(ctx, nil); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups.add(1, time.Since(start))
		if i < setupReps-1 {
			s.stop()
		}
	}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	before := memAllocated()
	r := measure(ctx, s, o, budget, false)
	allocated := memAllocated() - before
	s.stop()

	rep := report{attempted: int64(len(r.ops)), failed: r.failed, firstErr: r.firstErr, counts: r.counts}
	rps := quantile(r.segments.rates(), 0.5)
	rep.passes, rep.setups = r.segments, setups
	rep.endToEnd = map[string]float64{
		"setup_s":         quantile(setups.refSecs(), 0.5),
		"ops_per_ref_s":   rps,
		"alloc_mb_per_op": float64(allocated) / 1e6 / float64(len(r.ops)),
	}
	if !o.trace {
		return rep, nil
	}

	rep.perLayer = map[string]float64{}
	for k, v := range r.counts {
		rep.perLayer[k] = v
	}
	for _, p := range paths {
		lat := r.latencies(p)
		rep.perLayer["service.latency_ms_p50."+p] = quantile(lat, 0.50)
		rep.perLayer["service.latency_ms_p99."+p] = quantile(lat, 0.99)
		rep.perLayer["service.samples."+p] = float64(len(lat))
	}
	var promotions, demotions, samples, dropped float64
	for _, sr := range r.counted {
		for _, x := range sr.Samples() {
			promotions += float64(x.Promotions)
			demotions += float64(x.Demotions)
		}
	}
	for _, sr := range r.recorded {
		samples += float64(sr.Len())
		dropped += float64(sr.Dropped)
	}
	rep.perLayer["adaptive.promotions"] = promotions
	rep.perLayer["adaptive.demotions"] = demotions
	if n := float64(len(r.recorded)); n > 0 {
		rep.perLayer["recorder.samples_per_trial"] = samples / n
		rep.perLayer["recorder.dropped_per_trial"] = dropped / n
	}

	// The ring holds every span of the traced half: about 64 per cycle.
	tr := tracing.New(tracing.Config{RingSize: 1 << 17})
	ts, err := startServer(ctx, tr)
	if err != nil {
		return report{}, err
	}
	defer ts.stop()
	m0, err := scrape(ctx, ts)
	if err != nil {
		return report{}, err
	}
	t := measure(ctx, ts, o, budget, true)
	m1, err := scrape(ctx, ts)
	if err != nil {
		return report{}, err
	}
	rep.attempted += int64(len(t.ops))
	rep.failed += t.failed
	if rep.firstErr == nil {
		rep.firstErr = t.firstErr
	}
	rep.perLayer["trace.overhead_share"] = 1 - quantile(t.segments.rates(), 0.5)/rps
	rep.perLayer["max_rss_mb"] = maxRSSMB()
	hits := m1["dynspread_service_cache_hits_total"] - m0["dynspread_service_cache_hits_total"]
	misses := m1["dynspread_service_cache_misses_total"] - m0["dynspread_service_cache_misses_total"]
	rep.perLayer["service.cache_hit_ratio"] = hits / (hits + misses)
	rep.perLayer["service.stream_overflows"] = m1["dynspread_service_stream_overflows_total"] - m0["dynspread_service_stream_overflows_total"]
	if tr.Dropped() > 0 {
		return report{}, fmt.Errorf("trace ring overflowed: %d spans dropped", tr.Dropped())
	}
	if err := spanMetrics(ctx, ts, t, o.workers, rep.perLayer); err != nil {
		return report{}, err
	}
	var seriesBytes float64
	for _, sr := range t.recorded {
		b, err := json.Marshal(sr)
		if err != nil {
			return report{}, err
		}
		seriesBytes += float64(len(b))
	}
	if n := len(t.recorded); n > 0 {
		rep.perLayer["wire.round_series_bytes_per_trial"] = seriesBytes / float64(n)
	}
	return rep, nil
}

// scrape reads the unlabeled counters and gauges of GET /v1/metrics.
func scrape(ctx context.Context, s *server) (map[string]float64, error) {
	c := &service.Client{BaseURL: s.hs.URL, HTTPClient: s.hs.Client()}
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseText(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i := range fams {
		if v, ok := fams[i].Value(nil); ok {
			out[fams[i].Name] = v
		}
	}
	return out, nil
}

// spanMetrics reads every timed job's queue-wait, run and trial spans from
// GET /v1/traces/{id} and derives the service and trial-level metrics.
func spanMetrics(ctx context.Context, s *server, t *svcRun, workers int, m map[string]float64) error {
	c := &service.Client{BaseURL: s.hs.URL, HTTPClient: s.hs.Client()}
	var (
		queueWait, trialMs []float64
		algMs              = map[string][]float64{}
		runMs              = map[string][]float64{}
		runSum, latSum     = map[string]float64{}, map[string]float64{}
		bytesSum, trials   = map[string]float64{}, map[string]float64{}
		trialNs, rounds    float64
	)
	for _, op := range t.ops {
		latSum[op.path] += ms(op.latency)
		bytesSum[op.path] += float64(op.bytes)
		trials[op.path] += float64(op.trials)
		trace, err := c.Trace(ctx, op.traceID)
		if err != nil {
			return fmt.Errorf("trace %s: %w", op.traceID, err)
		}
		for _, sp := range trace.Spans {
			d := ms(sp.Duration())
			switch sp.Name {
			case "queue-wait":
				if op.path == "stream" || op.path == "queued" {
					queueWait = append(queueWait, d)
				}
			case "run":
				runMs[op.path] = append(runMs[op.path], d)
				runSum[op.path] += d
			case "trial":
				trialMs = append(trialMs, d)
				algMs[sp.Attrs["algorithm"]] = append(algMs[sp.Attrs["algorithm"]], d)
				trialNs += float64(sp.Duration())
				r, err := strconv.ParseInt(sp.Attrs["rounds"], 10, 64)
				if err != nil {
					return fmt.Errorf("trial span without rounds: %w", err)
				}
				rounds += float64(r)
			}
		}
	}
	m["service.queue_wait_ms_p50"] = quantile(queueWait, 0.50)
	m["service.queue_wait_ms_p99"] = quantile(queueWait, 0.99)
	for _, p := range paths {
		m["service.run_ms_p50."+p] = quantile(runMs[p], 0.5)
		if latSum[p] > 0 {
			m["service.overhead_share."+p] = 1 - runSum[p]/latSum[p]
		}
		if trials[p] > 0 {
			m["wire.response_bytes_per_trial."+p] = bytesSum[p] / trials[p]
		}
	}
	m["sweep.trial_ms_p50"] = quantile(trialMs, 0.50)
	m["sweep.trial_ms_p99"] = quantile(trialMs, 0.99)
	for a, xs := range algMs {
		m["sweep.trial_ms."+a] = quantile(xs, 0.5)
	}
	m["sweep.worker_busy_share"] = trialNs / (float64(workers) * float64(t.wall))
	if rounds > 0 {
		m["sim.round_us"] = trialNs / rounds / 1e3
	}
	return nil
}
