// Command lowerbound runs the Section 2 lower-bound construction with full
// per-round tracing: flooding (or a random broadcaster) against the strongly
// adaptive free-edge adversary. The CSV on stdout has one row per round with
// the columns round,broadcasters,edges,learnings: the nodes that broadcast,
// the edges the adversary committed and the token learnings. Its cumulative
// learnings plot the staircase growth of the potential that the
// Ω(n²/log²n) amortized-message bound rests on. The stderr summary reports
// Φ(0), max Φ and the maximum number of free-graph components.
//
// Usage:
//
//	lowerbound -n 32 -alg flooding        # summary to stderr, CSV to stdout
//	lowerbound -n 32 -csv=false           # summary only
//
// The broadcast algorithm and the free-edge adversary are resolved through
// the component registry ("random" is accepted as shorthand for
// "random-broadcast").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"dynspread/internal/adversary"
	_ "dynspread/internal/core" // register the bundled algorithms
	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func main() {
	var (
		n       = flag.Int("n", 32, "number of nodes (k = n, n-gossip start)")
		alg     = flag.String("alg", "flooding", "broadcast algorithm: flooding | random-broadcast")
		seed    = flag.Int64("seed", 1, "random seed")
		emitCSV = flag.Bool("csv", true, "emit per-round CSV to stdout")
	)
	flag.Parse()

	assign, err := token.Gossip(*n)
	if err != nil {
		fatal(err)
	}
	algName := *alg
	if algName == "random" { // historical shorthand
		algName = "random-broadcast"
	}
	params := registry.Params{N: *n, K: *n, Sources: *n, Seed: *seed}
	algSpec, err := registry.LookupAlgorithm(algName)
	if err != nil {
		fatal(err)
	}
	if algSpec.Mode != registry.Broadcast {
		fatal(fmt.Errorf("%q is not a broadcast algorithm", algName))
	}
	factory, err := algSpec.Broadcast(params)
	if err != nil {
		fatal(err)
	}
	advSpec, err := registry.LookupAdversary("free-edge")
	if err != nil {
		fatal(err)
	}
	badv, err := advSpec.Broadcast(params)
	if err != nil {
		fatal(err)
	}
	// The tracer needs the adversary's potential-function bookkeeping, which
	// only the concrete free-edge type exposes.
	adv, ok := badv.(*adversary.FreeEdge)
	if !ok {
		fatal(fmt.Errorf("free-edge registry entry built a %T, not *adversary.FreeEdge", badv))
	}

	out := bufio.NewWriter(os.Stdout)
	if *emitCSV {
		fmt.Fprintln(out, "round,broadcasters,edges,learnings")
	}
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   factory,
		Adversary: adv,
		Seed:      *seed,
		MaxRounds: 8 * (*n) * (*n),
		OnRound: func(r int, g *graph.Graph, choices []token.ID, learned int64) {
			b := 0
			for _, c := range choices {
				if c != token.None {
					b++
				}
			}
			if *emitCSV {
				fmt.Fprintf(out, "%d,%g,%g,%g\n", r, float64(b), float64(g.M()), float64(learned))
			}
		},
	})
	if err != nil {
		fatal(err)
	}

	st := adv.Stats()
	fmt.Fprintf(os.Stderr, "n=%d k=%d alg=%s adversary=%s\n", *n, *n, algName, adv.Name())
	fmt.Fprintf(os.Stderr, "completed=%v rounds=%d broadcasts=%d amortized=%.1f msgs/token (n²=%d)\n",
		res.Completed, res.Rounds, res.Metrics.Broadcasts,
		res.Metrics.AmortizedPerToken(*n), (*n)*(*n))
	fmt.Fprintf(os.Stderr, "Φ(0)=%d  maxΦ=%d  max components=%d  sparse rounds=%d (ΔΦ=%d)  bound violations=%d\n",
		st.InitialPhi, int64(*n)*int64(*n), st.MaxComponents, st.SparseRounds, st.SparseProgress, st.BoundViolations)
	if !adv.SetupOK() {
		fmt.Fprintln(os.Stderr, "warning: Φ(0) > 0.8nk — probabilistic-method event failed")
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowerbound:", err)
	os.Exit(1)
}
