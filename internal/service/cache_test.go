package service

import (
	"fmt"
	"testing"

	"dynspread/internal/wire"
)

func TestKeyIsDeterministicAndDiscriminating(t *testing.T) {
	a := wire.TrialSpec{N: 16, K: 8, Algorithm: "single-source", Adversary: "churn", Seed: 1}
	if wire.Key(a) != wire.Key(a) {
		t.Fatal("same spec hashed to different keys")
	}
	// Normalization: an explicit default source count shares the entry.
	explicit := a
	explicit.Sources = 1
	if wire.Key(a) != wire.Key(explicit) {
		t.Fatal("sources=0 and sources=1 must share a key for classic trials")
	}
	distinct := []wire.TrialSpec{a}
	for _, mutate := range []func(*wire.TrialSpec){
		func(s *wire.TrialSpec) { s.Seed = 2 },
		func(s *wire.TrialSpec) { s.K = 9 },
		func(s *wire.TrialSpec) { s.Algorithm = "topkis" },
		func(s *wire.TrialSpec) { s.Adversary = "static" },
		func(s *wire.TrialSpec) { s.Sigma = 5 },
		func(s *wire.TrialSpec) { s.Arrivals = []int{0, 0, 0, 0, 1, 1, 1, 1} },
	} {
		v := a
		mutate(&v)
		distinct = append(distinct, v)
	}
	seen := map[string]int{}
	for i, s := range distinct {
		k := wire.Key(s)
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %d and %d collide: %+v vs %+v", prev, i, distinct[prev], s)
		}
		seen[k] = i
	}
}

func TestCacheLRUEvictionAndCounters(t *testing.T) {
	c := NewCache(2)
	res := func(rounds int) wire.TrialResult {
		return wire.TrialResult{Rounds: rounds, Completed: true}
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", res(1))
	c.Put("b", res(2))
	if got, ok := c.Get("a"); !ok || got.Rounds != 1 {
		t.Fatalf("a: %+v %v", got, ok)
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", res(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-putting a key refreshes in place without growing.
	c.Put("a", res(9))
	if got, _ := c.Get("a"); got.Rounds != 9 || c.Len() != 2 {
		t.Fatalf("refresh failed: %+v len=%d", got, c.Len())
	}
}

func TestCacheCapacityClamp(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprint(i), wire.TrialResult{Rounds: i})
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}
