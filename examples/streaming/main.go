// Streaming: one node streams a long sequence of tokens (the paper's
// audio/video-transmission motivation for large k). Shows how Algorithm 1's
// amortized message cost per token converges to the optimal Θ(n) as the
// stream grows — the k=512 endpoint is the registered "streaming" scenario —
// and how the adversary-competitive accounting splits the bill with the
// adversary. The closing run is the "token-stream" scenario, where the
// stream is taken literally: tokens ARRIVE over time at the source while
// the network churns, instead of all being present at round 0.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"dynspread"
)

func main() {
	const n = 32

	fmt.Printf("single source streaming k tokens to %d nodes over adaptive churn\n\n", n)
	fmt.Printf("%6s %8s %10s %8s %12s %16s %10s\n",
		"k", "rounds", "messages", "TC(E)", "residual", "residual/(n²+nk)", "amortized")

	for _, k := range []int{8, 32, 128, 512} {
		cfg := dynspread.Config{
			N: n, K: k, Sources: 1,
			Algorithm: dynspread.AlgSingleSource,
			Adversary: dynspread.AdvRequestCutter, // strongly adaptive
			Seed:      5,
			MaxRounds: 4000 * k,
		}
		if k == 512 {
			// The full-length stream is the registered scenario.
			cfg = dynspread.Config{Scenario: dynspread.ScenStreaming, Seed: 5, MaxRounds: 4000 * k}
		}
		rep, err := dynspread.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Completed {
			log.Fatalf("k=%d: incomplete", k)
		}
		bound := float64(n*n + n*k)
		fmt.Printf("%6d %8d %10d %8d %12.0f %16.2f %10.1f\n",
			k, rep.Rounds, rep.Metrics.Messages, rep.Metrics.TC,
			rep.CompetitiveResidual, rep.CompetitiveResidual/bound, rep.AmortizedPerToken)
	}

	fmt.Println()
	fmt.Printf("as k grows the amortized cost approaches the optimal Θ(n) = Θ(%d):\n", n)
	fmt.Println("the O(n²) completeness-announcement term is paid once and amortizes")
	fmt.Println("away, and every request wasted by the adversary's rewiring is covered")
	fmt.Println("by its own TC budget (1-adversary-competitive, Theorem 3.1).")

	// The streaming regime taken literally: the "token-stream" scenario
	// injects 2 tokens per round at the source (an arrival schedule) while
	// the network churns — the amortized accounting is unchanged.
	rep, err := dynspread.Run(dynspread.Config{
		Scenario: dynspread.ScenTokenStream,
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Completed {
		log.Fatal("token-stream: incomplete")
	}
	fmt.Println()
	fmt.Printf("token-stream scenario (tokens arriving 2/round at the source):\n")
	fmt.Printf("  completed in %d rounds, %d messages, %.1f amortized/token\n",
		rep.Rounds, rep.Metrics.Messages, rep.AmortizedPerToken)
}
