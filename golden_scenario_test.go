package dynspread_test

// Golden rows for the scenario subsystem, locking it against regression the
// same way golden_test.go locks the engine: pinned metrics for runs with a
// streaming arrival schedule (uniform and Poisson-like), for an
// example-derived scenario, and a record→replay pair that must reproduce a
// live adversary's run bit for bit.

import (
	"bytes"
	"fmt"
	"testing"

	"dynspread"
)

type goldenScenarioRow struct {
	scenario string
	seed     int64

	completed  bool
	rounds     int
	messages   int64
	broadcasts int64
	learnings  int64
	tc         int64
	removals   int64
}

var goldenScenarioRows = []goldenScenarioRow{
	// Arrival schedules: token-stream is a uniform 2-tokens/round feed into
	// one source under churn (unicast); bursty-gossip is a Poisson-like
	// feed into 4 sources over edge-Markovian links (broadcast).
	{"token-stream", 1, true, 158, 12804, 0, 1104, 501, 453},
	{"token-stream", 7, true, 161, 13142, 0, 1104, 514, 466},
	{"bursty-gossip", 1, true, 500, 6932, 6932, 480, 2571, 2545},
	{"bursty-gossip", 7, true, 499, 6781, 6781, 480, 2507, 2480},
	// Example-derived: the sensornet example's free-edge run at its seed.
	{"sensornet", 11, true, 1023, 16864, 16864, 992, 10408, 10377},
}

func TestGoldenScenarioRows(t *testing.T) {
	for _, row := range goldenScenarioRows {
		name := fmt.Sprintf("%s/seed%d", row.scenario, row.seed)
		t.Run(name, func(t *testing.T) {
			rep, err := dynspread.Run(dynspread.Config{
				Scenario: dynspread.Scenario(row.scenario),
				Seed:     row.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics
			got := goldenScenarioRow{row.scenario, row.seed,
				rep.Completed, rep.Rounds, m.Messages, m.Broadcasts, m.Learnings, m.TC, m.Removals}
			if got != row {
				t.Errorf("scenario run diverged from golden row:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}

// TestGoldenTraceReplay records the dynamics of a golden-pinned engine run
// (single-source × churn at n=k=10, seed 1 — the third row of
// golden_test.go) and replays it: the replayed run must reproduce the
// recorded run's metrics exactly, and both must match the pinned values.
// The trace also survives a JSONL serialization round trip unchanged.
func TestGoldenTraceReplay(t *testing.T) {
	cfg := dynspread.Config{
		N: 10, K: 10, Sources: 1,
		Algorithm: dynspread.AlgSingleSource,
		Adversary: dynspread.AdvChurn,
		Seed:      1,
		MaxRounds: 20000,
	}
	rec, tr, err := dynspread.RunRecorded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The golden_test.go row for single-source/churn/seed1.
	want := goldenScenarioRow{"", 1, true, 22, 231, 0, 90, 38, 18}
	m := rec.Metrics
	got := goldenScenarioRow{"", 1, rec.Completed, rec.Rounds, m.Messages, m.Broadcasts, m.Learnings, m.TC, m.Removals}
	if got != want {
		t.Fatalf("recorded run diverged from the engine golden row:\n got  %+v\n want %+v", got, want)
	}
	if tr.NumRounds() != rec.Rounds {
		t.Fatalf("trace has %d rounds, run had %d", tr.NumRounds(), rec.Rounds)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := dynspread.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	replayCfg := cfg
	replayCfg.Adversary = ""
	replayCfg.Replay = tr2
	rep, err := dynspread.Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adversary != "trace-replay" {
		t.Fatalf("adversary name %q", rep.Adversary)
	}
	if rep.Metrics != rec.Metrics || rep.Rounds != rec.Rounds || rep.Completed != rec.Completed {
		t.Fatalf("replay diverged from recording:\n rec    %+v\n replay %+v", rec, rep)
	}
}
