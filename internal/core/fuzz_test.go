package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"fesia/internal/simd"
)

// decodeSets splits fuzz input bytes into two element lists plus a config
// selector, so the fuzzer explores set contents, sizes, and configurations
// together.
func decodeSets(data []byte) (ea, eb []uint32, cfg Config) {
	if len(data) == 0 {
		return nil, nil, DefaultConfig()
	}
	sel := data[0]
	data = data[1:]
	widths := []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512}
	cfg = Config{
		Width:   widths[int(sel)%3],
		SegBits: []int{8, 16, 32}[int(sel>>2)%3],
	}
	split := len(data) / 2
	toSet := func(b []byte) []uint32 {
		out := make([]uint32, 0, len(b)/3)
		for i := 0; i+3 < len(b); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(b[i:]))
		}
		return out
	}
	return toSet(data[:split]), toSet(data[split:]), cfg
}

func refCountMap(a, b []uint32) int {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	seen := make(map[uint32]bool)
	n := 0
	for _, v := range b {
		if in[v] && !seen[v] {
			seen[v] = true
			n++
		}
	}
	return n
}

// FuzzIntersect differentially tests all intersection strategies against a
// map-based reference, across fuzz-chosen contents and configurations.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 2, 3, 4, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xAB}, 100))
	f.Add(append([]byte{9}, bytes.Repeat([]byte{0, 1, 2, 3}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		ea, eb, cfg := decodeSets(data)
		want := refCountMap(ea, eb)
		sa, err := NewSet(ea, cfg)
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		sb, err := NewSet(eb, cfg)
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		if got := CountMerge(sa, sb); got != want {
			t.Fatalf("CountMerge = %d, want %d (cfg %+v)", got, want, cfg)
		}
		if got := CountHash(sa, sb); got != want {
			t.Fatalf("CountHash = %d, want %d", got, want)
		}
		if got := CountMergeParallel(sa, sb, 3); got != want {
			t.Fatalf("CountMergeParallel = %d, want %d", got, want)
		}
		dst := make([]uint32, min(sa.Len(), sb.Len())+1)
		if got := IntersectMerge(dst, sa, sb); got != want {
			t.Fatalf("IntersectMerge = %d, want %d", got, want)
		}
	})
}

// FuzzHybridIntersect differentially tests the cross-representation
// dispatch matrix: the fuzzer picks both element lists AND both
// representations, and every strategy must agree with the map-based
// reference for all nine (Rep × Rep) pairs.
func FuzzHybridIntersect(f *testing.F) {
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{1, 1, 2, 3, 4, 1, 2, 3, 4}, uint8(0x12))
	f.Add(bytes.Repeat([]byte{0xAB}, 100), uint8(0x21))
	f.Add(append([]byte{9}, bytes.Repeat([]byte{0, 1, 2, 3}, 40)...), uint8(0x10))
	f.Add(bytes.Repeat([]byte{7, 0, 0, 0}, 60), uint8(0x22))
	f.Fuzz(func(t *testing.T, data []byte, repSel uint8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		ea, eb, cfg := decodeSets(data)
		reps := []Rep{RepSegmented, RepArray, RepDense, RepAuto}
		cfgA, cfgB := cfg, cfg
		cfgA.Rep = reps[int(repSel)%4]
		cfgB.Rep = reps[int(repSel>>4)%4]
		// A forced dense representation allocates span/8 bytes; cap the
		// value range under it so the fuzzer spends its budget on logic, not
		// on filling hundred-megabyte bitmaps.
		clampSpan := func(elems []uint32, r Rep) []uint32 {
			if r != RepDense {
				return elems
			}
			out := make([]uint32, len(elems))
			for i, v := range elems {
				out[i] = v % (1 << 22)
			}
			return out
		}
		ea = clampSpan(ea, cfgA.Rep)
		eb = clampSpan(eb, cfgB.Rep)
		want := refCountMap(ea, eb)
		sa, err := NewSet(ea, cfgA)
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		sb, err := NewSet(eb, cfgB)
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		if got := Count(sa, sb); got != want {
			t.Fatalf("Count(%v×%v) = %d, want %d (cfg %+v)", sa.Rep(), sb.Rep(), got, want, cfg)
		}
		if got := CountMerge(sa, sb); got != want {
			t.Fatalf("CountMerge(%v×%v) = %d, want %d", sa.Rep(), sb.Rep(), got, want)
		}
		if got := CountHash(sa, sb); got != want {
			t.Fatalf("CountHash(%v×%v) = %d, want %d", sa.Rep(), sb.Rep(), got, want)
		}
		dst := make([]uint32, min(sa.Len(), sb.Len())+1)
		if got := IntersectMerge(dst, sa, sb); got != want {
			t.Fatalf("IntersectMerge(%v×%v) = %d, want %d", sa.Rep(), sb.Rep(), got, want)
		}
		for _, v := range dst[:want] {
			if !sa.Contains(v) || !sb.Contains(v) {
				t.Fatalf("IntersectMerge(%v×%v) emitted non-member %d", sa.Rep(), sb.Rep(), v)
			}
		}
		// The ctx and streaming entry points run the same pair frame: each
		// must produce Executor.Intersect's elements in its order.
		e := NewExecutor()
		ctx := context.Background()
		order := append([]uint32(nil), dst[:e.Intersect(dst, sa, sb)]...)
		if len(order) != want {
			t.Fatalf("Executor.Intersect(%v×%v) = %d, want %d", sa.Rep(), sb.Rep(), len(order), want)
		}
		if got, err := e.CountCtx(ctx, sa, sb); err != nil || got != want {
			t.Fatalf("CountCtx(%v×%v) = %d, %v, want %d", sa.Rep(), sb.Rep(), got, err, want)
		}
		n, err := e.IntersectIntoCtx(ctx, dst, sa, sb)
		if err != nil || !slices.Equal(dst[:n], order) {
			t.Fatalf("IntersectIntoCtx(%v×%v) = %v, %v, want Intersect's %v", sa.Rep(), sb.Rep(), dst[:n], err, order)
		}
		var streamed []uint32
		e.Visit(sa, sb, func(v uint32) { streamed = append(streamed, v) })
		if !slices.Equal(streamed, order) {
			t.Fatalf("Visit(%v×%v) = %v, want Intersect's %v", sa.Rep(), sb.Rep(), streamed, order)
		}
		// A third set an eighth of a's size skews the query past
		// kwayProbeRatio, so the fuzzer reaches the probe chain.
		ec := ea[:len(ea)/8]
		sc, err := NewSet(ec, cfgA)
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		if got, want3 := CountK(sa, sb, sc), refCountMap(ec, eb); got != want3 {
			t.Fatalf("CountK(%v×%v×%v) = %d, want %d", sa.Rep(), sb.Rep(), sc.Rep(), got, want3)
		}
		// Round-trip both sets through the v3 codec and recheck: the
		// deserialized pair must intersect identically.
		var buf bytes.Buffer
		if _, err := sa.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		ra, err := ReadSet(&buf)
		if err != nil {
			t.Fatalf("ReadSet: %v", err)
		}
		if got := Count(ra, sb); got != want {
			t.Fatalf("Count after round trip = %d, want %d", got, want)
		}
	})
}

// FuzzReadSet throws arbitrary bytes at the deserializer: it must never
// panic, and anything it accepts must be structurally sound.
func FuzzReadSet(f *testing.F) {
	valid := MustNewSet([]uint32{1, 5, 9, 1 << 30}, DefaultConfig())
	var buf bytes.Buffer
	if _, err := valid.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	bigger := MustNewSet([]uint32{2, 4, 8, 16, 1 << 10, 1 << 20, 1<<20 + 1}, DefaultConfig())
	var v2b bytes.Buffer
	if _, err := bigger.WriteTo(&v2b); err != nil {
		f.Fatal(err)
	}
	f.Add(v2b.Bytes())
	// v3 representation-tagged seeds: one per representation.
	for _, cfg := range []Config{{Rep: RepArray}, {Rep: RepDense}, {Rep: RepSegmented}} {
		s := MustNewSet([]uint32{3, 6, 9, 70, 131}, cfg)
		var b bytes.Buffer
		if _, err := s.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("FESIA1\x00\x00junk"))
	f.Add([]byte("FESIA2\x00\x00junk"))
	f.Add([]byte("FESIA3\x00\x00junk"))
	f.Add([]byte{})
	// Regression: a forged header demanding a multi-terabyte bitmap must
	// fail at the first short read, not allocate (found by fuzzing).
	huge := append([]byte(nil), buf.Bytes()[:28]...)
	huge = append(huge, 0, 0, 0, 0, 0, 0, 0, 0)       // seed
	huge = append(huge, 0, 0, 0, 0, 0, 0, 0, 0)       // n = 0
	huge = append(huge, 0, 0, 0, 0, 0, 0, 0x30, 0x40) // mBits = enormous pow2-ish
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted sets must behave: self-intersection equals cardinality.
		if got := CountMerge(s, s); got != s.Len() {
			t.Fatalf("accepted set self-intersects to %d, len %d", got, s.Len())
		}
	})
}

// FuzzReadCorpus throws arbitrary bytes at the corpus deserializer: it must
// never panic or allocate absurdly, and any corpus it accepts must consist of
// structurally sound, mutually intersectable sets.
func FuzzReadCorpus(f *testing.F) {
	lists := [][]uint32{
		{1, 5, 9, 1 << 30},
		{},
		{2, 5, 1 << 10},
	}
	sets, err := BuildSets(lists, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteCorpus(&buf, sets); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	if _, err := WriteCorpus(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// Mixed-representation v3 corpus seed: auto picks array, dense and
	// segmented across these lists.
	autoCfg := DefaultConfig()
	autoCfg.Rep = RepAuto
	mixed, err := BuildSets([][]uint32{
		{1, 2, 3},
		{10, 11, 12, 13, 14, 15, 16, 17},
		nil,
	}, autoCfg)
	if err != nil {
		f.Fatal(err)
	}
	var mixedBuf bytes.Buffer
	if _, err := WriteCorpus(&mixedBuf, mixed); err != nil {
		f.Fatal(err)
	}
	f.Add(mixedBuf.Bytes())
	f.Add([]byte("FESIAC2\x00junk"))
	f.Add([]byte("FESIAC3\x00junk"))
	f.Add([]byte{})
	// Forged header demanding an enormous corpus: must fail at a short read,
	// not allocate.
	huge := append([]byte(nil), buf.Bytes()[:8+28]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // numSets
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadCorpus(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range loaded {
			if got := CountMerge(s, s); got != s.Len() {
				t.Fatalf("accepted set self-intersects to %d, len %d", got, s.Len())
			}
		}
		if len(loaded) >= 2 {
			_ = Count(loaded[0], loaded[1])
		}
	})
}
