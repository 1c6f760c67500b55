// Quickstart: build two FESIA sets and intersect them.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"fesia"
)

func main() {
	// The running example of the paper (Section III-B, Example 1).
	a := fesia.MustBuild([]uint32{1, 4, 15, 21, 32, 34})
	b := fesia.MustBuild([]uint32{2, 6, 12, 16, 21, 23})

	fmt.Println("A =", a.Elements())
	fmt.Println("B =", b.Elements())
	fmt.Println("A ∩ B =", fesia.Intersect(a, b))
	fmt.Println("|A ∩ B| =", fesia.IntersectCount(a, b))

	// Membership probes are O(1) expected: one bitmap bit plus one tiny
	// segment scan.
	fmt.Println("A contains 21:", a.Contains(21))
	fmt.Println("A contains 22:", a.Contains(22))

	// Sets are configurable: emulated ISA width, segment size, bitmap
	// scale, hash seed. Sets intersected together must share options.
	wideA := fesia.MustBuild(a.Elements(), fesia.WithWidth(fesia.AVX512), fesia.WithSegmentBits(16))
	wideB := fesia.MustBuild(b.Elements(), fesia.WithWidth(fesia.AVX512), fesia.WithSegmentBits(16))
	fmt.Println("AVX512/seg16 count:", fesia.IntersectCount(wideA, wideB))

	// k-way intersection prunes all k bitmaps at once (Section VI).
	c := fesia.MustBuild([]uint32{21, 23, 40, 50})
	fmt.Println("A ∩ B ∩ C =", fesia.IntersectK(a, b, c))

	// The structure is compact: bitmap + rank directory + reordered set.
	fmt.Printf("A: %d elements, %d-bit bitmap, ~%d bytes\n",
		a.Len(), a.BitmapBits(), a.MemoryBytes())
}
