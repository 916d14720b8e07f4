package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"dynspread/internal/sim"
)

// fuzzMaxRuns bounds how many accepted specs one fuzz input may execute, so
// a grid that expands to thousands of tiny trials stays a fast input.
const fuzzMaxRuns = 64

// tinySpec reports whether a spec is cheap enough to execute inside the
// fuzz loop: a classic trial of at most 16 nodes and tokens with an explicit
// round cap of at most 64.
func tinySpec(s TrialSpec) bool {
	return s.Scenario == "" && s.N <= 16 && s.K <= 16 && s.MaxRounds > 0 && s.MaxRounds <= 64
}

// FuzzRunRequest drives arbitrary bytes through the POST /v1/runs decode
// path (strict JSON decoding, then Specs). It must never panic; every spec
// Specs accepts must pass Validate and hash to the same content address as
// its normalized form; and when every accepted spec is tiny, RunSpecs must
// return either one result per spec, each within its round cap, or an
// error.
func FuzzRunRequest(f *testing.F) {
	f.Add(`{"trials":[{"n":8,"k":4,"algorithm":"single-source","adversary":"static","seed":1,"max_rounds":64}],"record":{"stride":2,"capacity":16}}`)
	f.Add(`{"grid":{"ns":[6,8],"ks":[4],"algorithms":["single-source","topkis"],"adversaries":["static","churn"],"seeds":[1,2],"max_rounds":32}}`)
	f.Add(`{"trials":[{"scenario":"token-stream","seed":3}]}`)
	f.Add(`{"trials":[{"n":6,"k":3,"algorithm":"topkis","adversary":"static","seed":2,"max_rounds":48,"arrivals":[0,2,5]}]}`)
	f.Add(`{"trials":[{"n":2000000,"k":4,"algorithm":"single-source","adversary":"static","seed":1}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader([]byte(in)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		specs, err := req.Specs()
		if err != nil {
			return
		}
		tiny := len(specs) <= fuzzMaxRuns
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec %d fails Validate: %v\n%+v", i, err, s)
			}
			if Key(s) != Key(s.Normalized()) {
				t.Fatalf("accepted spec %d is keyed differently from its normalized form: %+v", i, s)
			}
			tiny = tiny && tinySpec(s)
		}
		if !tiny {
			return
		}
		ctx := context.Background()
		if req.Record != nil {
			if req.Record.Validate() != nil {
				return // rejected with 400 before any run, as handleRuns does
			}
			ctx = WithRecord(ctx, req.Record)
		}
		res, err := RunSpecs(ctx, specs, 1, nil)
		if err != nil {
			return
		}
		if len(res) != len(specs) {
			t.Fatalf("RunSpecs returned %d results for %d specs", len(res), len(specs))
		}
		for i, r := range res {
			if r.Rounds > specs[i].MaxRounds {
				t.Fatalf("spec %d ran %d rounds past its cap %d", i, r.Rounds, specs[i].MaxRounds)
			}
		}
	})
}

// recordedSeriesJSON runs one small recorded trial and returns its round
// series as JSON — a seed with the shape real recordings have.
func recordedSeriesJSON(f *testing.F) string {
	f.Helper()
	var req RunRequest
	in := `{"trials":[{"n":8,"k":4,"algorithm":"single-source","adversary":"churn","seed":1,"max_rounds":64}],"record":{"stride":1,"capacity":16}}`
	if err := json.Unmarshal([]byte(in), &req); err != nil {
		f.Fatal(err)
	}
	specs, err := req.Specs()
	if err != nil {
		f.Fatal(err)
	}
	res, err := RunSpecs(WithRecord(context.Background(), req.Record), specs, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	if res[0].RoundSeries.Len() == 0 {
		f.Fatal("recorded trial returned no round series")
	}
	b, err := json.Marshal(res[0].RoundSeries)
	if err != nil {
		f.Fatal(err)
	}
	return string(b)
}

// FuzzRoundSeries drives arbitrary bytes through the client-side decode of
// a round series (strict JSON decoding, then Samples). It must never panic
// and must decode exactly one sample per Rounds entry, whatever the other
// columns hold; and re-encoding the decoded samples with SeriesFromSnapshot
// must decode back to the same samples.
func FuzzRoundSeries(f *testing.F) {
	f.Add(recordedSeriesJSON(f))
	// Columns longer and shorter than rounds.
	f.Add(`{"stride":1,"capacity":4,"rounds":[1,1,1],"known":[5],"messages":[1,2],"tc":[0,0,0,0,9]}`)
	f.Add(`{"stride":1,"capacity":4,"rounds":[],"known":[]}`)
	// Negative deltas, down to the minimum int64.
	f.Add(`{"stride":2,"capacity":4,"rounds":[10,-4,-9223372036854775808],"known":[7,-3,-1],"learned":[-1,-2,-3]}`)
	f.Fuzz(func(t *testing.T, in string) {
		var s RoundSeries
		dec := json.NewDecoder(bytes.NewReader([]byte(in)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return
		}
		got := s.Samples()
		if len(got) != len(s.Rounds) || len(got) != s.Len() {
			t.Fatalf("decoded %d samples from %d rounds (Len %d)", len(got), len(s.Rounds), s.Len())
		}
		again := SeriesFromSnapshot(&sim.RecorderSnapshot{
			Stride: s.Stride, Capacity: s.Capacity, Dropped: s.Dropped, Samples: got,
		})
		if back := again.Samples(); !reflect.DeepEqual(back, got) {
			t.Fatalf("samples do not round-trip:\n got %+v\nwant %+v", back, got)
		}
	})
}
