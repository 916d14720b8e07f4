package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dynspread/internal/graph"
)

func randomSequence(t *testing.T, n, rounds int, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, rounds)
	for i := range out {
		out[i] = graph.RandomConnected(n, 2*n, rng)
	}
	return out
}

func TestBuilderRoundTrip(t *testing.T) {
	const n, rounds = 12, 25
	seq := randomSequence(t, n, rounds, 5)

	b := NewBuilder(n)
	for _, g := range seq {
		b.Observe(g)
	}
	tr := b.Trace()
	if tr.NumRounds() != rounds || tr.N != n {
		t.Fatalf("trace shape: n=%d rounds=%d", tr.N, tr.NumRounds())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	gs, err := tr.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if !gs[i].Equal(seq[i]) {
			t.Fatalf("round %d graph diverged after rebuild", i+1)
		}
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != n || back.NumRounds() != rounds {
		t.Fatalf("decoded shape: n=%d rounds=%d", back.N, back.NumRounds())
	}
	gs2, err := back.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs2 {
		if !gs2[i].Equal(seq[i]) {
			t.Fatalf("round %d graph diverged after JSONL round trip", i+1)
		}
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	seq := randomSequence(t, 8, 10, 9)
	render := func() string {
		b := NewBuilder(8)
		for _, g := range seq {
			b.Observe(g)
		}
		var buf bytes.Buffer
		if err := b.Trace().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("serialized trace not deterministic")
	}
}

func TestReadRejectsCorruptTraces(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty input"},
		{"not a trace", `{"hello":1}` + "\n", "format"},
		{"bad version", `{"format":"dynspread-graph-trace","version":9,"n":4}` + "\n", "version"},
		{"round gap", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":2,"add":[[0,1]]}` + "\n", "expected 1"},
		{"duplicate insert", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"add":[[0,1],[0,1]]}` + "\n", "already present"},
		{"dangling delete", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"del":[[0,1]]}` + "\n", "not present"},
		{"edge out of range", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"add":[[0,9]]}` + "\n", "invalid edge"},
		{"too few nodes", `{"format":"dynspread-graph-trace","version":1,"n":1}` + "\n", "n <="},
		// A 70-byte header must not size a graph of 2^40 nodes.
		{"too many nodes", `{"format":"dynspread-graph-trace","version":1,"n":1099511627776}` + "\n", "n <="},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadGraphTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
