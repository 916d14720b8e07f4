package main

import (
	"reflect"
	"sort"
	"testing"

	"dynspread/internal/sim"
	"dynspread/internal/sweep"
)

// TestTimedMatchesRunTrial: the timing adapters forward every call
// unchanged, so every cell of both sweep workloads gives the same
// sim.Result through runTimed as through sweep.RunTrial — with the
// workspace and recorder reuse the traced passes use.
func TestTimedMatchesRunTrial(t *testing.T) {
	names := make([]string, 0, len(sweepWorkloads))
	for name := range sweepWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		trials, err := sweepWorkloads[name].trials(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws := sim.NewWorkspace()
		rec := sim.NewRecorder(sim.RecorderConfig{Stride: 1 << 30, Capacity: 1})
		for _, tr := range trials {
			want, err := sweep.RunTrial(tr, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, tr, err)
			}
			var tm callTimer
			got, err := runTimed(tr, ws, rec, &tm)
			if err != nil {
				t.Fatalf("%s: %s: timed: %v", name, tr, err)
			}
			if !reflect.DeepEqual(got, want.Res) {
				t.Errorf("%s: %s: timed result %+v, sweep.RunTrial %+v", name, tr, *got, *want.Res)
			}
			if tm.calls[phaseNextGraph] != int64(got.Rounds) || tm.roundsBegin.IsZero() {
				t.Errorf("%s: %s: %d NextGraph calls over %d rounds", name, tr, tm.calls[phaseNextGraph], got.Rounds)
			}
		}
	}
}
