// Single-source similarity search with the landmark index: find the
// vertices "electrically closest" to a query vertex — the primitive behind
// resistance-based recommendation and clustering.
//
// Run with:
//
//	go run ./examples/singlesource
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	landmarkrd "landmarkrd"
)

func main() {
	// A Watts-Strogatz graph: locally clustered, so "electrically close"
	// differs interestingly from "few hops away".
	g, err := landmarkrd.WattsStrogatz(5000, 3, 0.05, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	// A one-landmark index is the K=1 portfolio; the max-degree vertex is
	// the default landmark.
	start := time.Now()
	idx, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
		K: 1, Mode: landmarkrd.DiagSketch, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("landmark index (v=%d, sketch diagonal): built in %v, %d bytes\n",
		idx.Primary(), time.Since(start).Round(time.Millisecond), idx.MemoryBytes())

	src := 1234
	start = time.Now()
	all, _, err := landmarkrd.PortfolioSingleSource(idx, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-source query from %d: %v\n\n", src, time.Since(start).Round(time.Microsecond))

	order := make([]int, 0, g.N())
	for u := range all {
		if u != src {
			order = append(order, u)
		}
	}
	sort.Slice(order, func(i, j int) bool { return all[order[i]] < all[order[j]] })

	hops := g.BFS(src)
	fmt.Println("ten closest vertices by resistance distance (with hop distance):")
	for i := 0; i < 10; i++ {
		u := order[i]
		exact, err := landmarkrd.Exact(g, src, u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d. vertex %-6d r̂=%.4f  r=%.4f  hops=%d\n", i+1, u, all[u], exact, hops[u])
	}

	fmt.Println("\nten farthest vertices by resistance distance:")
	for i := 0; i < 10; i++ {
		u := order[len(order)-1-i]
		fmt.Printf("  %2d. vertex %-6d r̂=%.4f  hops=%d\n", i+1, u, all[u], hops[u])
	}
}
