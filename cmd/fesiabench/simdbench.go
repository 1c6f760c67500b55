// SIMD backend benchmark mode (-simdjson): measures every dispatched assembly
// routine against its pure-Go reference on the same inputs and writes one row
// per ladder tier to BENCH_simd.json. Each routine appears up to three times —
// "<name>/avx512", "<name>/avx2" and "<name>/go" — toggled via
// simd.SetAsmEnabled / simd.SetAvx512Enabled, so the file documents exactly
// what each rung of the ISA ladder buys on the build machine. The mode also enforces structural gates at generation time: the
// fused bitmap-filter kernel must beat the pure-Go loop by
// simdFilterMinSpeedup, the end-to-end merge count must not be slower with
// the backend on, and — only on AVX-512 hardware — the compress-store
// materialize kernel must beat the AVX2 tier by simdMaterializeMinSpeedup and
// the gathered hash probe must beat the scalar probe loop by
// simdProbeMinSpeedup. Gates whose tier the machine lacks are skipped, not
// failed: on machines without any assembly backend the mode degrades to
// writing go-only rows.
package main

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/hashutil"
	"fesia/internal/simd"
)

// simdFilterMinSpeedup is the acceptance floor for the fused bitmap-filter
// microbenchmark: asm must be at least this many times faster than pure Go.
const simdFilterMinSpeedup = 1.5

// simdEndToEndMaxRatio caps the asm/go ns ratio of the end-to-end merge
// count: the backend must deliver a measurable win, so asm may take at most
// this fraction of the pure-Go time (a little above 1.0 would only allow
// parity; 0.97 demands a real improvement while absorbing timer noise).
const simdEndToEndMaxRatio = 0.97

// simdMaterializeMinSpeedup is the AVX-512-only acceptance floor for the
// ordered-intersect materialize kernel: the avx512 tier (compress-store)
// must beat the avx2 tier (which has no vector materialize and runs the
// generated scalar kernels) by at least this factor on 16x16 segments.
const simdMaterializeMinSpeedup = 1.2

// simdProbeMinSpeedup is the AVX-512-only acceptance floor for the gathered
// hash probe: one VPGATHERDD probe stage must beat the scalar
// hash-test-compress loop by at least this factor.
const simdProbeMinSpeedup = 1.15

// probeStageGo is the scalar reference for the gathered probe stage: hash
// each element, test its bitmap bit, compress survivors (element and
// position) to the out slices. It mirrors internal/core's scalar probe loop
// so the avx512/go row pair measures exactly what VPGATHERDD replaces.
func probeStageGo(elems []uint32, words []uint64, h hashutil.Hasher, posMask uint64, outE, outP []uint32) int {
	n := 0
	for _, x := range elems {
		pos := h.Hash(x) & posMask
		if words[pos>>6]>>(pos&63)&1 != 0 {
			outE[n] = x
			outP[n] = uint32(pos)
			n++
		}
	}
	return n
}

func runSimdBench(path string, quick bool) ([]benchResult, error) {
	n := 200_000
	if quick {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(3))

	// Microbenchmark inputs: one 64 KiB bitmap pair per side for the fused
	// filter, mixed-density words so the mask stream has structure.
	const nblocks = 256
	aw := make([]uint64, nblocks*simd.BlockWords)
	bw := make([]uint64, nblocks*simd.BlockWords)
	for i := range aw {
		aw[i] = rng.Uint64() & rng.Uint64()
		bw[i] = rng.Uint64() & rng.Uint64()
	}
	masks := make([]uint32, nblocks)

	smallA := []uint32{3, 9, 17, 22, 31, 40, 51, 63}
	smallB := []uint32{1, 9, 18, 22, 35, 40}
	longList := make([]uint32, 48)
	for i := range longList {
		longList[i] = uint32(i * 3)
	}

	// 16x16 segment pair for the materialize kernel: the zmm-register sizes
	// only the AVX-512 rung serves with a vector kernel.
	seg16a := make([]uint32, 16)
	seg16b := make([]uint32, 16)
	for i := range seg16a {
		seg16a[i] = uint32(i * 5)
		seg16b[i] = uint32(i*5 + i%3) // overlaps on i%3==0
	}
	var seg16dst [16]uint32

	// Gathered-probe inputs: two probe blocks of elements against a 64 Kbit
	// bitmap, roughly half survivors.
	const probeN = 128
	probeElems := make([]uint32, probeN)
	for i := range probeElems {
		probeElems[i] = rng.Uint32()
	}
	const probeBits = 1 << 16
	probeWords := make([]uint64, probeBits/64)
	for i := range probeWords {
		probeWords[i] = rng.Uint64()
	}
	probeHasher := hashutil.New(0)
	var probeOutE, probeOutP [probeN]uint32

	// End-to-end merge pair at the default config.
	ab, bb := datasets.GenPairSelectivity(rng, n, n, 0.1, uint32(16*n))
	sa := core.MustNewSet(ab, core.DefaultConfig())
	sb := core.MustNewSet(bb, core.DefaultConfig())
	ex := core.NewExecutor()

	// End-to-end skewed pair at Scale 1 (big segments, hash strategy): the
	// shape served by the gathered probe and the 16-lane kernels.
	hb, hs := datasets.GenPairSelectivity(rng, n, n/20, 0.2, uint32(16*n))
	ha := core.MustNewSet(hb, core.Config{Scale: 1})
	hc := core.MustNewSet(hs, core.Config{Scale: 1})
	e2eDst := make([]uint32, n/20+1)

	var sink int
	cases := []benchCase{
		{"filter-seg8", func() int { sink = simd.AndSegMasks(masks, aw, bw, 8); return sink }},
		{"filter-seg16", func() int { sink = simd.AndSegMasks(masks, aw, bw, 16); return sink }},
		{"filter-seg32", func() int { sink = simd.AndSegMasks(masks, aw, bw, 32); return sink }},
		{"count-small", func() int { return simd.CountSmall(smallA, smallB) }},
		{"intersect-small16", func() int { return simd.IntersectSmall(seg16dst[:], seg16a, seg16b) }},
		{"probe-stage", func() int {
			if simd.GatherProbeActive() {
				nOut, _ := simd.ProbeStage(probeElems, probeWords, probeHasher.Seed(), probeBits-1, probeOutE[:], probeOutP[:])
				return nOut
			}
			return probeStageGo(probeElems, probeWords, probeHasher, probeBits-1, probeOutE[:], probeOutP[:])
		}},
		{"contains-long", func() int {
			hits := 0
			for x := uint32(0); x < 64; x++ {
				if simd.Contains(longList, x) {
					hits++
				}
			}
			return hits
		}},
		{"merge-count", func() int { return ex.CountMerge(sa, sb) }},
		{"intersect-hash-e2e", func() int { return ex.Intersect(e2eDst, ha, hc) }},
	}

	// The ladder, top rung first: each tier forces dispatch to exactly that
	// rung (avx2 on AVX-512 hardware is the forced-AVX2 tier, the same state
	// the FESIA_DISABLE_AVX512 env hatch pins at startup).
	tiers := []struct {
		suffix      string
		asm, avx512 bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}}

	results := make([]benchResult, 0, 3*len(cases))
	speed := make(map[string]map[string]float64, len(cases)) // name -> tier -> ns/op
	for _, c := range cases {
		speed[c.name] = make(map[string]float64, len(tiers))
		for _, tier := range tiers {
			if tier.asm && !simd.HasAsm() {
				continue
			}
			if tier.avx512 && !simd.HasAVX512() {
				continue
			}
			prevAsm := simd.SetAsmEnabled(tier.asm)
			prevAvx512 := simd.SetAvx512Enabled(tier.avx512)
			count := c.run() // warm up outside the measurement
			r := testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					c.run()
				}
			})
			simd.SetAvx512Enabled(prevAvx512)
			simd.SetAsmEnabled(prevAsm)
			name := c.name + "/" + tier.suffix
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			speed[c.name][tier.suffix] = ns
			results = append(results, benchResult{
				Strategy:    name,
				NsPerOp:     ns,
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Count:       count,
			})
			fmt.Printf("  %-26s %12.1f ns/op %6d allocs/op\n", name, ns, r.AllocsPerOp())
		}
		if g, ok := speed[c.name]["go"]; ok {
			if a, ok := speed[c.name]["avx2"]; ok {
				fmt.Printf("  %-26s %12.2fx\n", c.name+" avx2 speedup", g/a)
			}
			if z, ok := speed[c.name]["avx512"]; ok {
				fmt.Printf("  %-26s %12.2fx\n", c.name+" avx512 speedup", g/z)
			}
		}
	}

	if simd.HasAsm() {
		for _, name := range []string{"filter-seg8", "filter-seg16", "filter-seg32"} {
			if ratio := speed[name]["go"] / speed[name]["avx2"]; ratio < simdFilterMinSpeedup {
				return results, fmt.Errorf("%s: asm speedup %.2fx below the %.1fx floor", name, ratio, simdFilterMinSpeedup)
			}
		}
		if ratio := speed["merge-count"]["avx2"] / speed["merge-count"]["go"]; ratio > simdEndToEndMaxRatio {
			return results, fmt.Errorf("merge-count: asm/go ratio %.3f exceeds %.2f — no end-to-end win", ratio, simdEndToEndMaxRatio)
		}
		fmt.Printf("\nstructural gates passed: filter >= %.1fx, end-to-end merge ratio <= %.2f\n",
			simdFilterMinSpeedup, simdEndToEndMaxRatio)
	} else {
		fmt.Println("\nassembly backend unavailable: wrote go-only rows, gates skipped")
	}
	if simd.HasAVX512() {
		if ratio := speed["intersect-small16"]["avx2"] / speed["intersect-small16"]["avx512"]; ratio < simdMaterializeMinSpeedup {
			return results, fmt.Errorf("intersect-small16: avx512 materialize %.2fx over avx2 tier, below the %.2fx floor", ratio, simdMaterializeMinSpeedup)
		}
		if ratio := speed["probe-stage"]["go"] / speed["probe-stage"]["avx512"]; ratio < simdProbeMinSpeedup {
			return results, fmt.Errorf("probe-stage: gathered probe %.2fx over scalar loop, below the %.2fx floor", ratio, simdProbeMinSpeedup)
		}
		fmt.Printf("avx512 gates passed: materialize >= %.2fx over avx2, gathered probe >= %.2fx over scalar (backend %s)\n",
			simdMaterializeMinSpeedup, simdProbeMinSpeedup, simd.Backend())
	} else {
		fmt.Println("avx512 tier unavailable on this machine: avx512 gates skipped (not failed)")
	}
	return results, writeResults(path, results)
}
