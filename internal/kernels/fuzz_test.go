package kernels

import (
	"encoding/binary"
	"sort"
	"testing"

	"fesia/internal/simd"
)

// FuzzTableCount differentially tests every kernel table (all widths, all
// strides) and, on every dispatch tier, the query path's small-set kernels
// (simd.CountSmall, simd.IntersectSmall) against the scalar generic kernel
// on fuzzer-chosen segment contents and sizes, including the over-cap
// fallback boundary.
func FuzzTableCount(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte splits the remainder into the two sets.
		cut := int(data[0])
		data = data[1:]
		if len(data) > 400 {
			data = data[:400]
		}
		if cut > len(data) {
			cut = len(data)
		}
		a := toSortedSet(data[:cut])
		b := toSortedSet(data[cut:])
		want := GenericCount(a, b)
		dst := make([]uint32, min(len(a), len(b))+1)
		wantDst := make([]uint32, min(len(a), len(b))+1)
		GenericIntersect(wantDst, a, b)
		// Each dispatch tier must agree: forcing a tier exercises its
		// small-set kernels (including forced-AVX2 on AVX-512 hardware).
		forEachTier(t, func(t *testing.T, _ string) {
			if got := simd.CountSmall(a, b); got != want {
				t.Fatalf("CountSmall = %d, want %d\na=%v\nb=%v", got, want, a, b)
			}
			n := simd.IntersectSmall(dst, a, b)
			if n != want {
				t.Fatalf("IntersectSmall = %d, want %d", n, want)
			}
			for i, v := range dst[:n] {
				if v != wantDst[i] {
					t.Fatalf("IntersectSmall elem %d = %d, want %d (ordered output)", i, v, wantDst[i])
				}
			}
			for _, tbl := range Tables() {
				if got := tbl.Count(a, b); got != want {
					t.Fatalf("%v stride %d Count = %d, want %d\na=%v\nb=%v",
						tbl.Width(), tbl.Stride(), got, want, a, b)
				}
				n := tbl.Intersect(dst, a, b)
				if n != want {
					t.Fatalf("%v stride %d Intersect = %d, want %d", tbl.Width(), tbl.Stride(), n, want)
				}
				for i, v := range dst[:n] {
					if v != wantDst[i] {
						t.Fatalf("%v stride %d Intersect elem %d = %d, want %d (ordered output)",
							tbl.Width(), tbl.Stride(), i, v, wantDst[i])
					}
				}
			}
		})
		// The general kernels must agree at every width too.
		for _, w := range []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512} {
			if got := GeneralCount(w, a, b); got != want {
				t.Fatalf("GeneralCount(%v) = %d, want %d", w, got, want)
			}
		}
	})
}

func toSortedSet(data []byte) []uint32 {
	var out []uint32
	for i := 0; i+1 < len(data); i += 2 {
		// Small universe: frequent collisions and matches.
		out = append(out, uint32(binary.LittleEndian.Uint16(data[i:]))%512)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}
