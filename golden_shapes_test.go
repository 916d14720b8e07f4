package dynspread_test

// Pinned rows for the shapes golden_test.go cannot reach. Its rows run at
// N = K = 10, where Algorithm 2's phase-1 threshold s0 ≈ 34 exceeds s, so
// no golden row walks a token, and none runs Multi-Source at the sizes the
// paper-algorithm sweeps use. These rows pin both: Multi-Source at
// n ∈ {24, 32}, k ∈ {n, 2n}, s ∈ {4, n} under churn and the request
// cutter, and Algorithm 2 forced into its two phases with E6's center
// scale (CF = 0.05) under static, churn and near-regular dynamics — with
// the paper's phase-1 length and with a 30-round cap that switches while
// tokens are still walking.
//
// Regenerate (only when a deliberate semantic change lands) by running each
// config below through dynspread.Run and rewriting the table.

import (
	"fmt"
	"testing"

	"dynspread"
	"dynspread/internal/core"
)

type shapeRow struct {
	alg, adv  string
	n, k, s   int
	seed      int64
	phase1Cap int // oblivious only

	completed bool
	rounds    int
	messages  int64
	tc        int64
	learnings int64
	walks     int64
}

var shapeRows = []shapeRow{
	// Multi-Source-Unicast at the sweep sizes.
	{"multi-source", "churn", 24, 24, 4, 1, 0, true, 54, 1838, 194, 552, 0},
	{"multi-source", "request-cutter", 24, 24, 4, 1, 0, true, 297, 3435, 982, 552, 0},
	{"multi-source", "churn", 24, 24, 24, 1, 0, true, 116, 7465, 378, 552, 0},
	{"multi-source", "request-cutter", 24, 24, 24, 1, 0, true, 224, 12054, 1022, 552, 0},
	{"multi-source", "churn", 24, 48, 4, 1, 0, true, 90, 3094, 300, 1104, 0},
	{"multi-source", "request-cutter", 24, 48, 4, 1, 0, true, 573, 5398, 1942, 1104, 0},
	{"multi-source", "churn", 24, 48, 24, 1, 0, true, 139, 8690, 444, 1104, 0},
	{"multi-source", "request-cutter", 24, 48, 24, 1, 0, true, 381, 14924, 1825, 1104, 0},
	{"multi-source", "churn", 32, 32, 4, 1, 0, true, 70, 3221, 328, 992, 0},
	{"multi-source", "request-cutter", 32, 32, 4, 1, 0, true, 423, 6212, 1684, 992, 0},
	{"multi-source", "churn", 32, 32, 32, 1, 0, true, 156, 14931, 668, 992, 0},
	{"multi-source", "request-cutter", 32, 32, 32, 1, 0, true, 351, 27683, 1732, 992, 0},
	{"multi-source", "churn", 32, 64, 4, 1, 0, true, 127, 5606, 552, 1984, 0},
	{"multi-source", "request-cutter", 32, 64, 4, 1, 0, true, 920, 9449, 3199, 1984, 0},
	{"multi-source", "churn", 32, 64, 32, 1, 0, true, 231, 20845, 968, 1984, 0},
	{"multi-source", "request-cutter", 32, 64, 32, 1, 0, true, 583, 34342, 3219, 1984, 0},
	// Algorithm 2, both phases, paper phase-1 length.
	{"oblivious", "static", 24, 24, 24, 1, 0, true, 266, 1427, 48, 552, 191},
	{"oblivious", "churn", 24, 24, 24, 1, 0, true, 222, 1859, 691, 552, 173},
	{"oblivious", "regular", 24, 24, 24, 1, 0, true, 350, 4535, 17699, 552, 137},
	{"oblivious", "static", 24, 48, 24, 1, 0, true, 216, 2437, 48, 1104, 156},
	{"oblivious", "churn", 24, 48, 24, 1, 0, true, 276, 3461, 850, 1104, 270},
	{"oblivious", "regular", 24, 48, 24, 1, 0, true, 583, 8578, 29261, 1104, 235},
	{"oblivious", "static", 32, 32, 32, 1, 0, true, 372, 2398, 64, 992, 201},
	{"oblivious", "churn", 32, 32, 32, 1, 0, true, 395, 3435, 1619, 992, 353},
	{"oblivious", "regular", 32, 32, 32, 1, 0, true, 655, 10223, 48266, 992, 163},
	{"oblivious", "static", 32, 64, 32, 1, 0, true, 304, 4333, 64, 1984, 376},
	{"oblivious", "churn", 32, 64, 32, 1, 0, true, 412, 6165, 1686, 1984, 509},
	{"oblivious", "regular", 32, 64, 32, 1, 0, true, 1154, 16473, 85059, 1984, 408},
	// Algorithm 2 with a phase-1 cap that fires mid-walk (forced parks).
	{"oblivious", "static", 24, 48, 24, 1, 30, true, 106, 2935, 48, 1104, 112},
	{"oblivious", "churn", 24, 48, 24, 1, 30, true, 149, 7010, 474, 1104, 124},
	{"oblivious", "regular", 24, 48, 24, 1, 30, true, 455, 13964, 22889, 1104, 165},
}

func TestGoldenShapeRows(t *testing.T) {
	for _, row := range shapeRows {
		name := fmt.Sprintf("%s/%s/n%d/k%d/s%d/cap%d", row.alg, row.adv, row.n, row.k, row.s, row.phase1Cap)
		t.Run(name, func(t *testing.T) {
			cfg := dynspread.Config{
				N: row.n, K: row.k, Sources: row.s,
				Algorithm: dynspread.Algorithm(row.alg),
				Adversary: dynspread.Adversary(row.adv),
				Seed:      row.seed,
			}
			if row.alg == string(dynspread.AlgOblivious) {
				cfg.Oblivious = core.ObliviousOpts{ForceTwoPhase: true, CF: 0.05, Phase1Cap: row.phase1Cap}
			}
			rep, err := dynspread.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics
			got := shapeRow{row.alg, row.adv, row.n, row.k, row.s, row.seed, row.phase1Cap,
				rep.Completed, rep.Rounds, m.Messages, m.TC, m.Learnings, m.WalkPayloads}
			if got != row {
				t.Errorf("run diverged from pinned row:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}
