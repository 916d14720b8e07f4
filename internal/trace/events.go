package trace

// Dynamic-topology traces: a GraphTrace records one execution's per-round
// edge events (insertions and deletions relative to the previous round,
// starting from the paper's empty graph G_0) and serializes as JSONL — one
// header line carrying the node count, then one line per round. A recorded
// trace replayed through the trace-replay dynamics reproduces the exact
// graph sequence of the original run, which makes any execution — including
// ones driven by randomized or adaptive adversaries — deterministically
// reproducible and shareable as a flat file. The same format expresses real
// temporal-graph datasets: anything that can be written as timestamped edge
// events can be replayed as a workload.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dynspread/internal/graph"
)

// RoundEvents is the topological change of one round: the edges inserted
// into and removed from the previous round's graph, each as a [u, v] pair
// with u < v, both in canonical sorted order.
type RoundEvents struct {
	Add [][2]int `json:"add,omitempty"`
	Del [][2]int `json:"del,omitempty"`
}

// GraphTrace is a recorded dynamic-graph sequence: Rounds[i] holds the
// events producing round i+1's graph from round i's (round 0 is empty).
type GraphTrace struct {
	N      int
	Rounds []RoundEvents
}

// NumRounds returns the number of recorded rounds.
func (tr *GraphTrace) NumRounds() int { return len(tr.Rounds) }

// apply mutates g by one round's events, strictly: inserting an existing
// edge or deleting a missing one is a corruption error.
func apply(g *graph.Graph, round int, ev RoundEvents) error {
	for _, e := range ev.Add {
		if !g.AddEdge(e[0], e[1]) {
			return fmt.Errorf("trace: round %d inserts edge {%d,%d} already present (or invalid)", round, e[0], e[1])
		}
	}
	for _, e := range ev.Del {
		if !g.RemoveEdge(e[0], e[1]) {
			return fmt.Errorf("trace: round %d deletes edge {%d,%d} not present", round, e[0], e[1])
		}
	}
	return nil
}

// MaxN is the largest node count a trace may declare: the wire layer's
// MaxWireN. Validate checks it before sizing anything by N, so a tiny file
// with a huge header is an error rather than an out-of-memory crash.
const MaxN = 1 << 20

// Validate replays the whole trace against a scratch graph, verifying the
// node count and the event stream's internal consistency.
func (tr *GraphTrace) Validate() error {
	if tr.N < 2 || tr.N > MaxN {
		return fmt.Errorf("trace: need 2 <= n <= %d nodes, got %d", MaxN, tr.N)
	}
	g := graph.New(tr.N)
	for i, ev := range tr.Rounds {
		for _, e := range append(append([][2]int{}, ev.Add...), ev.Del...) {
			if e[0] < 0 || e[0] >= tr.N || e[1] < 0 || e[1] >= tr.N || e[0] == e[1] {
				return fmt.Errorf("trace: round %d has invalid edge {%d,%d} for n=%d", i+1, e[0], e[1], tr.N)
			}
		}
		if err := apply(g, i+1, ev); err != nil {
			return err
		}
	}
	return nil
}

// Graphs materializes the graph of every recorded round (1-based round r at
// index r-1). Mostly for tests; the replay dynamics applies events
// incrementally instead.
func (tr *GraphTrace) Graphs() ([]*graph.Graph, error) {
	g := graph.New(tr.N)
	out := make([]*graph.Graph, 0, len(tr.Rounds))
	for i, ev := range tr.Rounds {
		if err := apply(g, i+1, ev); err != nil {
			return nil, err
		}
		out = append(out, g.Clone())
	}
	return out, nil
}

// Builder accumulates a GraphTrace from the engine's per-round graphs (feed
// it every round's graph in order, e.g. from an OnRound hook).
type Builder struct {
	prev   *graph.Graph
	rounds []RoundEvents
}

// NewBuilder starts a trace for an n-node execution.
func NewBuilder(n int) *Builder {
	return &Builder{prev: graph.New(n)}
}

// Observe records the next round's graph.
func (b *Builder) Observe(g *graph.Graph) {
	d := graph.Compute(b.prev, g)
	var ev RoundEvents
	for _, e := range d.Inserted {
		ev.Add = append(ev.Add, [2]int{e.U, e.V})
	}
	for _, e := range d.Removed {
		ev.Del = append(ev.Del, [2]int{e.U, e.V})
	}
	sortEvents(ev.Add)
	sortEvents(ev.Del)
	b.rounds = append(b.rounds, ev)
	b.prev = g.Clone()
}

func sortEvents(es [][2]int) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}

// Trace returns the accumulated trace. The builder stays usable; later
// Observe calls extend the same underlying slice.
func (b *Builder) Trace() *GraphTrace {
	return &GraphTrace{N: b.prev.N(), Rounds: b.rounds}
}

// traceHeader is the first JSONL line: a format marker plus the node count.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	N       int    `json:"n"`
}

// traceRound is one JSONL round line (R is 1-based, for human readability
// and corruption detection).
type traceRound struct {
	R int `json:"r"`
	RoundEvents
}

const traceFormat = "dynspread-graph-trace"

// Write serializes the trace as JSONL.
func (tr *GraphTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: traceFormat, Version: 1, N: tr.N}); err != nil {
		return err
	}
	for i, ev := range tr.Rounds {
		if err := enc.Encode(traceRound{R: i + 1, RoundEvents: ev}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadGraphTrace parses a JSONL trace and validates it.
func ReadGraphTrace(r io.Reader) (*GraphTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("trace: not a %s file (format %q)", traceFormat, hdr.Format)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr.Version)
	}
	tr := &GraphTrace{N: hdr.N}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var row traceRound
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("trace: bad round line %d: %w", len(tr.Rounds)+1, err)
		}
		if row.R != len(tr.Rounds)+1 {
			return nil, fmt.Errorf("trace: round line says r=%d, expected %d", row.R, len(tr.Rounds)+1)
		}
		tr.Rounds = append(tr.Rounds, row.RoundEvents)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
