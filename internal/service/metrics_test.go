package service

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/wire"
)

// requiredFamilies is the metric surface the observability plane promises:
// a scrape of a worker-mode daemon must cover queue occupancy, jobs by
// state, cache traffic, HTTP traffic, and the sweep pool's trial-duration
// histogram.
var requiredFamilies = []string{
	"dynspread_service_queue_depth",
	"dynspread_service_queue_capacity",
	"dynspread_service_busy_workers",
	"dynspread_service_jobs",
	"dynspread_service_jobs_submitted_total",
	"dynspread_service_cache_hits_total",
	"dynspread_service_cache_misses_total",
	"dynspread_service_http_requests_total",
	"dynspread_service_http_request_seconds",
	"dynspread_service_streams_active",
	"dynspread_service_stream_overflows_total",
	"dynspread_sweep_trials_started_total",
	"dynspread_sweep_trials_completed_total",
	"dynspread_sweep_rounds_total",
	"dynspread_sweep_trial_duration_seconds",
}

// TestMetricsEndpoint scrapes /v1/metrics before, during, and after a run:
// every scrape must be STRICTLY valid Prometheus text (obs.ParseText fails
// on anything a scraper could choke on), the promised families must all be
// present, and every counter must be monotone non-decreasing across
// scrapes.
func TestMetricsEndpoint(t *testing.T) {
	h := newHarness(t, Config{JobWorkers: 2})
	ctx := context.Background()
	defer h.close(t, ctx)

	before := scrape(t, h)

	st, err := h.client.Run(ctx, wire.RunRequest{Grid: &e2eGrid, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	during := scrape(t, h) // mid-run scrape: concurrent updates must still expose cleanly
	if _, err := h.client.WaitJob(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Resubmit for cache hits, then a final scrape.
	st2, err := h.client.Run(ctx, wire.RunRequest{Grid: &e2eGrid, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.WaitJob(ctx, st2.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, h)

	for _, name := range requiredFamilies {
		if obs.Find(after, name) == nil {
			t.Errorf("family %s missing from scrape", name)
		}
	}
	if f := obs.Find(after, "dynspread_service_jobs"); f != nil && len(f.Samples) != 5 {
		t.Errorf("jobs-by-state has %d series, want all 5 states", len(f.Samples))
	}
	total := float64(len(mustTrials(t, e2eGrid)))
	if v, _ := obs.Find(after, "dynspread_sweep_trials_completed_total").Value(nil); v != total {
		t.Errorf("trials_completed = %v, want %v", v, total)
	}
	if v, _ := obs.Find(after, "dynspread_service_cache_hits_total").Value(nil); v != total {
		t.Errorf("cache_hits = %v, want %v (second submission fully cached)", v, total)
	}
	if f := obs.Find(after, "dynspread_sweep_trial_duration_seconds"); f != nil {
		var count float64
		for _, s := range f.Samples {
			if s.Name == "dynspread_sweep_trial_duration_seconds_count" {
				count = s.Value
			}
		}
		if count != total {
			t.Errorf("duration histogram count = %v, want %v", count, total)
		}
	}

	assertMonotone(t, before, during)
	assertMonotone(t, during, after)
}

// assertMonotone checks that no counter series went backwards between two
// scrapes (histogram buckets and counts included — they are counters too).
func assertMonotone(t *testing.T, earlier, later []obs.Family) {
	t.Helper()
	for _, lf := range later {
		if lf.Type != "counter" && lf.Type != "histogram" {
			continue
		}
		ef := obs.Find(earlier, lf.Name)
		if ef == nil {
			continue // family appeared between scrapes (first labeled child)
		}
		prev := map[string]float64{}
		for _, s := range ef.Samples {
			if lf.Type == "histogram" && s.Name == lf.Name+"_sum" {
				continue // the only non-counter histogram series
			}
			prev[seriesKey(s)] = s.Value
		}
		for _, s := range lf.Samples {
			if lf.Type == "histogram" && s.Name == lf.Name+"_sum" {
				continue
			}
			if before, ok := prev[seriesKey(s)]; ok && s.Value < before {
				t.Errorf("counter %s went backwards: %v -> %v", seriesKey(s), before, s.Value)
			}
		}
	}
}

func seriesKey(s obs.Sample) string {
	names := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		names = append(names, k)
	}
	sort.Strings(names)
	key := s.Name
	for _, k := range names {
		key += fmt.Sprintf("|%s=%s", k, s.Labels[k])
	}
	return key
}
