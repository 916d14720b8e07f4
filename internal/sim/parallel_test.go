package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

func runSeed(seed int64) (*Result, error) {
	assign, err := token.SingleSource(6, 3, 0)
	if err != nil {
		return nil, err
	}
	return RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   newPushProto,
		Adversary: staticAdv{graph.Cycle(6)},
		Seed:      seed,
	})
}

// runSeeds runs seeds 0..n-1 on ForEach, storing each result at its index.
func runSeeds(t *testing.T, n, workers int) []*Result {
	t.Helper()
	results := make([]*Result, n)
	i, err := ForEach(n, workers, func() func(i int) error {
		return func(i int) error {
			var err error
			results[i], err = runSeed(int64(i))
			return err
		}
	})
	if err != nil {
		t.Fatalf("index %d: %v", i, err)
	}
	return results
}

func TestForEachOrderAndResults(t *testing.T) {
	results := runSeeds(t, 8, 4)
	for i, r := range results {
		if r == nil || !r.Completed {
			t.Fatalf("trial %d: %+v", i, r)
		}
	}
	// Determinism: the same seeds on one worker must agree index by index.
	seq := runSeeds(t, 8, 1)
	for i := range seq {
		if seq[i].Metrics != results[i].Metrics {
			t.Fatalf("trial %d differs between parallel and sequential", i)
		}
	}
}

func TestForEachErrorPropagates(t *testing.T) {
	i, err := ForEach(3, 3, func() func(i int) error {
		return func(i int) error {
			if i == 1 {
				return fmt.Errorf("boom")
			}
			_, err := runSeed(int64(i))
			return err
		}
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if i != 1 {
		t.Fatalf("failing index = %d, want 1", i)
	}
}

func TestForEachDefaultsToGOMAXPROCS(t *testing.T) {
	var peak, cur int64
	n := 2*runtime.GOMAXPROCS(0) + 4
	_, err := ForEach(n, 0, func() func(i int) error { // defaults to GOMAXPROCS
		return func(int) error {
			c := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
					break
				}
			}
			atomic.AddInt64(&cur, -1)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := atomic.LoadInt64(&peak), int64(runtime.GOMAXPROCS(0)); got < 1 || got > limit {
		t.Fatalf("peak concurrency %d outside [1, GOMAXPROCS=%d]", got, limit)
	}
	if i, err := ForEach(0, 4, func() func(i int) error { return func(int) error { return nil } }); i != -1 || err != nil {
		t.Fatalf("empty run: %d, %v", i, err)
	}
}

func TestForEachStopsDispatchingAfterError(t *testing.T) {
	var ran atomic.Int64
	// One worker: after index 0 fails, indices 1 and 2 must never start.
	_, err := ForEach(3, 1, func() func(i int) error {
		return func(i int) error {
			if i == 0 {
				return fmt.Errorf("boom")
			}
			ran.Add(1)
			return nil
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d indices dispatched after the first error", n)
	}
}
