package graph

import (
	"math/rand"
	"testing"

	"dynspread/internal/unionfind"
)

// The in-place round-graph machinery — DiffCount, the BFS connectivity
// queries, CopyFrom/Clear and the Fill* generators — checked against the
// allocating references they replace on the adversaries' hot path. n = 600
// puts the adjacency rows (and the BFS visited set) in the sparse
// representation.
var inplaceSizes = []int{8, 64, 600}

// randomGraph returns a graph with about m random edges (often disconnected
// when m is small).
func randomGraph(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// twoIslands returns a graph with two connected halves and no edge between
// them.
func twoIslands(n int, rng *rand.Rand) *Graph {
	g := New(n)
	half := n / 2
	for v := 1; v < half; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for v := half + 1; v < n; v++ {
		g.AddEdge(v, half+rng.Intn(v-half))
	}
	return g
}

// testGraphs returns a mix of connected and disconnected graphs on n nodes.
func testGraphs(n int, rng *rand.Rand) []*Graph {
	return []*Graph{
		RandomConnected(n, n-1, rng),
		RandomConnected(n, 2*n, rng),
		RandomConnected(n, 4*n, rng),
		randomGraph(n, n/2, rng),
		randomGraph(n, n, rng),
		twoIslands(n, rng),
		New(n),
	}
}

func TestDiffCountMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range inplaceSizes {
		gs := testGraphs(n, rng)
		for i, a := range gs {
			for j, b := range gs {
				d := Compute(a, b)
				ins, rem := DiffCount(a, b)
				if ins != len(d.Inserted) || rem != len(d.Removed) {
					t.Fatalf("n=%d pair (%d,%d): DiffCount = (%d,%d), Compute = (%d,%d)",
						n, i, j, ins, rem, len(d.Inserted), len(d.Removed))
				}
			}
			// Same object, and nil on either side.
			if ins, rem := DiffCount(a, a); ins != 0 || rem != 0 {
				t.Fatalf("n=%d graph %d: DiffCount(g, g) = (%d,%d)", n, i, ins, rem)
			}
			if ins, rem := DiffCount(nil, a); ins != a.M() || rem != 0 {
				t.Fatalf("n=%d graph %d: DiffCount(nil, g) = (%d,%d)", n, i, ins, rem)
			}
			if ins, rem := DiffCount(a, nil); ins != 0 || rem != a.M() {
				t.Fatalf("n=%d graph %d: DiffCount(g, nil) = (%d,%d)", n, i, ins, rem)
			}
		}
	}
}

// dsuConnectedWithout is the union-find reference ConnectedWithout replaced.
func dsuConnectedWithout(g *Graph, e Edge) bool {
	d := unionfind.New(g.N())
	for _, f := range g.Edges() {
		if f != e {
			d.Union(f.U, f.V)
		}
	}
	return d.Components() == 1
}

func TestConnectivityMatchesDSU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range inplaceSizes {
		for round := 0; round < 4; round++ {
			for i, g := range testGraphs(n, rng) {
				want := g.DSU().Components() == 1
				// Every edge of a sparse graph is a candidate bridge; sample
				// the rest, plus non-edges (then it is just Connected). The
				// first queries run before Connected has memoized anything,
				// so both the full and the early-exit BFS are exercised.
				edges := g.Edges()
				for k := 0; k < 24 && len(edges) > 0; k++ {
					e := edges[rng.Intn(len(edges))]
					if got, want := g.ConnectedWithout(e), dsuConnectedWithout(g, e); got != want {
						t.Fatalf("n=%d graph %d: ConnectedWithout(%v) = %v, DSU says %v", n, i, e, got, want)
					}
				}
				if got := g.Connected(); got != want {
					t.Fatalf("n=%d graph %d: Connected = %v, DSU says %v", n, i, got, want)
				}
				a, b := rng.Intn(n), rng.Intn(n)
				if e := NewEdge(a, b); a != b && !g.HasEdge(a, b) {
					if got := g.ConnectedWithout(e); got != want {
						t.Fatalf("n=%d graph %d: ConnectedWithout(non-edge %v) = %v, want %v", n, i, e, got, want)
					}
				}
			}
		}
	}
}

// TestConnectivityMemoUnderMutation drives a churn-like mutation sequence
// — random insertions, removals that ConnectedWithout approved, and
// arbitrary removals, some right after another edge was approved — and
// checks the memoized connectivity against the DSU, so a memo that
// survives a mutation it should not would show.
func TestConnectivityMemoUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s GenScratch
	for _, n := range inplaceSizes {
		g := RandomConnected(n, n+n/2, rng)
		for step := 0; step < 600; step++ {
			if rng.Intn(4) == 0 {
				Connectify(g, rng, &s) // mostly connected, so cuts get approved
			}
			if rng.Intn(2) == 0 && g.M() > 0 {
				e, _ := g.EdgeAt(rng.Intn(g.M()))
				g.ConnectedWithout(e) // approves e, or not; e stays
			}
			switch rng.Intn(4) {
			case 0:
				g.AddEdge(rng.Intn(n), rng.Intn(n))
			case 1, 2:
				if g.M() == 0 {
					continue
				}
				e, _ := g.EdgeAt(rng.Intn(g.M()))
				ok := g.ConnectedWithout(e)
				if want := dsuConnectedWithout(g, e); ok != want {
					t.Fatalf("n=%d step %d: ConnectedWithout(%v) = %v, DSU says %v", n, step, e, ok, want)
				}
				if ok {
					g.RemoveEdge(e.U, e.V)
				}
			case 3:
				if g.M() == 0 {
					continue
				}
				e, _ := g.EdgeAt(rng.Intn(g.M()))
				g.RemoveEdge(e.U, e.V)
			}
			if rng.Intn(3) == 0 {
				if got, want := g.Connected(), g.DSU().Components() == 1; got != want {
					t.Fatalf("n=%d step %d: Connected = %v, DSU says %v", n, step, got, want)
				}
			}
		}
	}
}

// TestConnectivityMemoStaleApproval: an approval from ConnectedWithout is
// void once another edge is removed. On the 4-cycle, cutting {0,1} is safe
// until {2,3} goes; after that the same cut disconnects the graph.
func TestConnectivityMemoStaleApproval(t *testing.T) {
	g := Cycle(4)
	if !g.ConnectedWithout(NewEdge(0, 1)) {
		t.Fatal("a cycle edge is not a bridge")
	}
	g.RemoveEdge(2, 3)
	if !g.Connected() {
		t.Fatal("the 4-path reports disconnected")
	}
	g.RemoveEdge(0, 1)
	if g.Connected() {
		t.Fatal("removing {0,1} after {2,3} kept the stale approval: graph reports connected")
	}
}

func TestCopyFromClearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := New(3)
	dst.AddEdge(0, 2)
	for _, n := range inplaceSizes {
		for i, src := range testGraphs(n, rng) {
			// dst carries the previous graph's edges (and, first time round, a
			// different node count): CopyFrom must overwrite all of it.
			dst.CopyFrom(src)
			if !dst.Equal(src) || dst.Connected() != src.Connected() {
				t.Fatalf("n=%d graph %d: CopyFrom differs from its source", n, i)
			}
			if err := dst.Validate(); err != nil {
				t.Fatalf("n=%d graph %d: %v", n, i, err)
			}
			for v := 0; v < n; v++ {
				got, want := dst.NeighborsShared(v), src.Neighbors(v)
				if len(got) != len(want) {
					t.Fatalf("n=%d graph %d: node %d neighbors %v, want %v", n, i, v, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("n=%d graph %d: node %d neighbors %v, want %v", n, i, v, got, want)
					}
				}
			}
			// The copy is independent of its source.
			had := src.HasEdge(0, n-1)
			if had {
				dst.RemoveEdge(0, n-1)
			} else {
				dst.AddEdge(0, n-1)
			}
			if src.HasEdge(0, n-1) != had || dst.HasEdge(0, n-1) == had {
				t.Fatalf("n=%d graph %d: the copy is not independent of its source", n, i)
			}
			dst.Clear()
			if dst.M() != 0 || dst.N() != n || !dst.Equal(New(n)) {
				t.Fatalf("n=%d graph %d: Clear left M=%d N=%d", n, i, dst.M(), dst.N())
			}
			if err := dst.Validate(); err != nil {
				t.Fatalf("n=%d graph %d after Clear: %v", n, i, err)
			}
			if dst.Connected() {
				t.Fatalf("n=%d graph %d: cleared graph reports connected", n, i)
			}
			dst.CopyFrom(src)
			if !dst.Equal(src) {
				t.Fatalf("n=%d graph %d: CopyFrom after Clear differs", n, i)
			}
		}
	}
}

// TestFillGeneratorsMatchWrappers reuses one target graph and one scratch
// across sizes and seeds, so stale edges and stale buffers from the previous
// fill would show.
func TestFillGeneratorsMatchWrappers(t *testing.T) {
	var s GenScratch
	fills := []struct {
		name string
		fill func(g *Graph, rng *rand.Rand)
		want func(n int, rng *rand.Rand) *Graph
	}{
		{"tree",
			func(g *Graph, rng *rand.Rand) { FillRandomTree(g, rng, &s) },
			func(n int, rng *rand.Rand) *Graph { return RandomTree(n, rng) }},
		{"connected",
			func(g *Graph, rng *rand.Rand) { FillRandomConnected(g, 2*g.N(), rng, &s) },
			func(n int, rng *rand.Rand) *Graph { return RandomConnected(n, 2*n, rng) }},
		{"regularish",
			func(g *Graph, rng *rand.Rand) { FillRandomRegularish(g, 6, rng, &s) },
			func(n int, rng *rand.Rand) *Graph { return RandomRegularish(n, 6, rng) }},
	}
	for _, f := range fills {
		for _, n := range []int{1, 2, 3, 8, 64, 600, 9} {
			g := Complete(n) // every edge stale
			for seed := int64(1); seed <= 3; seed++ {
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				f.fill(g, rngA)
				want := f.want(n, rngB)
				if !g.Equal(want) {
					t.Fatalf("%s n=%d seed=%d: in-place fill differs from the wrapper", f.name, n, seed)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", f.name, n, seed, err)
				}
				if rngA.Int63() != rngB.Int63() {
					t.Fatalf("%s n=%d seed=%d: the fill made different draws", f.name, n, seed)
				}
			}
		}
	}
}

// connectifyRef is the map-based Connectify that the counting-sort version
// replaced; both must add the same edges with the same draws.
func connectifyRef(g *Graph, rng *rand.Rand) []Edge {
	d := g.DSU()
	if d.Components() <= 1 {
		return nil
	}
	reps := d.Representatives()
	members := make(map[int][]NodeID, len(reps))
	for v := 0; v < g.N(); v++ {
		r := d.Find(v)
		members[r] = append(members[r], v)
	}
	added := make([]Edge, 0, len(reps)-1)
	for i := 1; i < len(reps); i++ {
		a := members[reps[0]][rng.Intn(len(members[reps[0]]))]
		b := members[reps[i]][rng.Intn(len(members[reps[i]]))]
		if g.AddEdge(a, b) {
			added = append(added, NewEdge(a, b))
		}
		members[reps[0]] = append(members[reps[0]], members[reps[i]]...)
	}
	return added
}

func TestConnectifyMatchesReference(t *testing.T) {
	var s GenScratch
	rng := rand.New(rand.NewSource(11))
	for _, n := range inplaceSizes {
		for round := 0; round < 8; round++ {
			base := randomGraph(n, rng.Intn(n+1), rng)
			seed := rng.Int63()
			got, want := base.Clone(), base.Clone()
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			addedGot := Connectify(got, rngA, &s)
			addedWant := connectifyRef(want, rngB)
			if !got.Equal(want) || !got.Connected() {
				t.Fatalf("n=%d round %d: Connectify differs from the reference", n, round)
			}
			if len(addedGot) != len(addedWant) {
				t.Fatalf("n=%d round %d: added %v, reference %v", n, round, addedGot, addedWant)
			}
			for i := range addedGot {
				if addedGot[i] != addedWant[i] {
					t.Fatalf("n=%d round %d: added %v, reference %v", n, round, addedGot, addedWant)
				}
			}
			if rngA.Int63() != rngB.Int63() {
				t.Fatalf("n=%d round %d: Connectify made different draws", n, round)
			}
		}
	}
}

// randomTreeRef is the quadratic Prüfer decode (a scan for the smallest
// unused leaf at every step) that FillRandomTree's linear decode replaced;
// both must produce the same tree from the same draws.
func randomTreeRef(n int, rng *rand.Rand) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	if n == 2 {
		g.AddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, p := range prufer {
		degree[p]++
	}
	used := make([]bool, n)
	for _, p := range prufer {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 1 && !used[leaf] {
				g.AddEdge(leaf, p)
				used[leaf] = true
				degree[p]--
				break
			}
		}
	}
	var last []int
	for v := 0; v < n; v++ {
		if degree[v] == 1 && !used[v] {
			last = append(last, v)
		}
	}
	if len(last) == 2 {
		g.AddEdge(last[0], last[1])
	}
	return g
}

func TestRandomTreeMatchesQuadraticDecode(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 64, 600} {
		for seed := int64(1); seed <= 20; seed++ {
			got := RandomTree(n, rand.New(rand.NewSource(seed)))
			want := randomTreeRef(n, rand.New(rand.NewSource(seed)))
			if !got.Equal(want) {
				t.Fatalf("n=%d seed=%d: linear decode %v, quadratic decode %v", n, seed, got.Edges(), want.Edges())
			}
		}
	}
}
