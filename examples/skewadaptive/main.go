// Skew adaptivity: the FESIAmerge / FESIAhash strategy switch of Section VI
// and Fig. 11.
//
// When one input is dramatically smaller than the other, probing each small
// element through the large set's bitmap (FESIAhash, O(min(n1, n2))) beats
// scanning both bitmaps (FESIAmerge). This example sweeps the size ratio
// and shows where each strategy wins and which arm the adaptive entry point
// ran, read from the library's per-arm query counters.
//
// Run with:
//
//	go run ./examples/skewadaptive
package main

import (
	"fmt"
	"math/rand"
	"time"

	"fesia"
	"fesia/internal/datasets"
)

func main() {
	const n2 = 200_000
	rng := rand.New(rand.NewSource(3))
	// Before the first query, so every executor records the arm it runs.
	fesia.EnableStats()

	fmt.Printf("backend %s\n", fesia.Backend())
	fmt.Printf("%-12s %12s %12s %12s %s\n", "skew n1/n2", "merge", "hash", "adaptive", "adaptive ran")
	for _, skew := range []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0 / 2, 1} {
		n1 := int(float64(n2) * skew)
		ea, eb := datasets.GenPair(rng, n1, n2, n1/10, 1<<24)
		a := fesia.MustBuild(ea)
		b := fesia.MustBuild(eb)

		tMerge := timeIt(func() int { return fesia.MergeCount(a, b) })
		tHash := timeIt(func() int { return fesia.HashCount(a, b) })
		tAuto := timeIt(func() int { return fesia.IntersectCount(a, b) })

		fmt.Printf("%-12s %10.0fus %10.0fus %10.0fus %s\n",
			fmt.Sprintf("%d/%d", n1, n2),
			us(tMerge), us(tHash), us(tAuto), adaptiveArm(a, b))
	}
	fmt.Println("\nThe adaptive strategy hashes below a size ratio of 1/4, the")
	fmt.Println("crossover in Fig. 11 of the paper, and on the avx512 backend also")
	fmt.Println("whenever the smaller set fills one 16-element gathered probe group.")
}

// adaptiveArm runs one adaptive intersection and names the arm it took, from
// the per-arm query counters it moved.
func adaptiveArm(a, b *fesia.Set) string {
	before := fesia.Stats()
	sink += fesia.IntersectCount(a, b)
	if after := fesia.Stats(); after.Counter(fesia.CtrQueriesHash) > before.Counter(fesia.CtrQueriesHash) {
		return "hash"
	}
	return "merge"
}

func timeIt(f func() int) time.Duration {
	f() // warm-up
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		start := time.Now()
		iters := 0
		for time.Since(start) < 5*time.Millisecond {
			sink += f()
			iters++
		}
		if d := time.Since(start) / time.Duration(iters); d < best {
			best = d
		}
	}
	return best
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

var sink int
