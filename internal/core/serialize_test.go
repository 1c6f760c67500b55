package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fesia/internal/simd"
	"fesia/internal/testutil"
)

func roundTrip(t *testing.T, s *Set) *Set {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatalf("ReadSet: %v", err)
	}
	return got
}

// TestReadStrideField checks the headers' kernel-stride field on both
// readers, over both formats. Writers record 1. No query reads a kernel
// table, so a stream whose header names a sampled AVX512 table (stride 4 or
// 8) still loads, with the same elements, and a stride no table ever had is
// rejected.
func TestReadStrideField(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := Config{Width: simd.WidthAVX512}
	set := MustNewSet(randSet(rng, 500, 1<<16), cfg)
	corpus, err := BuildSets([][]uint32{randSet(rng, 300, 1<<16), randSet(rng, 40, 1<<16)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// forge rewrites the width and stride fields and re-seals the checksum
	// that covers them: a v3 set header's, at crcAt, or the stream's
	// trailing one.
	forge := func(data []byte, crcAt int, w simd.Width, stride uint32) []byte {
		out := bytes.Clone(data)
		le.PutUint32(out[8:], uint32(w))
		le.PutUint32(out[16:], stride)
		if crcAt < 0 {
			crcAt = len(out) - 4
		}
		le.PutUint32(out[crcAt:], crc32cOf(out[:crcAt]))
		return out
	}
	for _, v3 := range []bool{false, true} {
		setData, corpusData, setCRC := setBytes(t, set, v3), corpusBytes(t, corpus), -1
		if v3 {
			corpusData, setCRC = corpusBytesV3(t, corpus), 60
		}
		for _, data := range [][]byte{setData, corpusData} {
			if st := le.Uint32(data[16:]); st != 1 {
				t.Fatalf("v3 %v: writer recorded stride %d, want 1", v3, st)
			}
		}
		for _, tc := range []struct {
			w      simd.Width
			stride uint32
			ok     bool
		}{
			{simd.WidthAVX512, 0, true},
			{simd.WidthAVX512, 4, true},
			{simd.WidthAVX512, 8, true},
			{simd.WidthAVX512, 3, false},
			{simd.WidthAVX, 4, false},
		} {
			got, err := ReadSet(bytes.NewReader(forge(setData, setCRC, tc.w, tc.stride)))
			switch {
			case tc.ok && err != nil:
				t.Errorf("v3 %v: ReadSet, width %v stride %d: %v", v3, tc.w, tc.stride, err)
			case tc.ok && !slices.Equal(got.Elements(), set.Elements()):
				t.Errorf("v3 %v: ReadSet, width %v stride %d: elements changed", v3, tc.w, tc.stride)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "kernel stride")):
				t.Errorf("v3 %v: ReadSet, width %v stride %d: err = %v, want a kernel stride error", v3, tc.w, tc.stride, err)
			}
			sets, err := ReadCorpus(bytes.NewReader(forge(corpusData, -1, tc.w, tc.stride)))
			switch {
			case tc.ok && err != nil:
				t.Errorf("v3 %v: ReadCorpus, width %v stride %d: %v", v3, tc.w, tc.stride, err)
			case tc.ok && (len(sets) != 2 || !slices.Equal(sets[1].Elements(), corpus[1].Elements())):
				t.Errorf("v3 %v: ReadCorpus, width %v stride %d: sets changed", v3, tc.w, tc.stride)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "kernel stride")):
				t.Errorf("v3 %v: ReadCorpus, width %v stride %d: err = %v, want a kernel stride error", v3, tc.w, tc.stride, err)
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	configs := []Config{
		{},
		{Width: simd.WidthSSE, SegBits: 16},
		{Width: simd.WidthAVX512, Scale: 4, Seed: 99},
	}
	for _, cfg := range configs {
		for _, n := range []int{0, 1, 100, 5000} {
			orig := MustNewSet(randSet(rng, n, 1<<20), cfg)
			got := roundTrip(t, orig)
			if got.Len() != orig.Len() || got.BitmapBits() != orig.BitmapBits() {
				t.Fatalf("round trip changed shape: %d/%d bits %d/%d",
					got.Len(), orig.Len(), got.BitmapBits(), orig.BitmapBits())
			}
			if got.Config() != orig.Config() {
				t.Fatalf("round trip changed config: %+v vs %+v", got.Config(), orig.Config())
			}
			ge, oe := got.Elements(), orig.Elements()
			for i := range oe {
				if ge[i] != oe[i] {
					t.Fatalf("elements differ at %d", i)
				}
			}
			if got.MaxSegmentLen() != orig.MaxSegmentLen() {
				t.Fatalf("maxSeg differs: %d vs %d", got.MaxSegmentLen(), orig.MaxSegmentLen())
			}
			// A deserialized set must intersect correctly with a live one.
			other := MustNewSet(randSet(rng, 500, 1<<20), cfg)
			if CountMerge(got, other) != CountMerge(orig, other) {
				t.Fatal("deserialized set intersects differently")
			}
		}
	}
}

func TestReadSetRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	orig := MustNewSet(randSet(rng, 300, 1<<16), DefaultConfig())
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	if _, err := ReadSet(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := ReadSet(bytes.NewReader(pristine[:20])); err == nil {
		t.Error("truncated stream should fail")
	}
	bad := append([]byte(nil), pristine...)
	bad[0] = 'X'
	if _, err := ReadSet(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	// Flip bytes throughout the payload; every corruption must either fail
	// or produce a structurally valid set (never panic).
	for pos := 8; pos < len(pristine); pos += 37 {
		mut := append([]byte(nil), pristine...)
		mut[pos] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadSet panicked on corruption at byte %d: %v", pos, r)
				}
			}()
			s, err := ReadSet(bytes.NewReader(mut))
			if err != nil {
				return // rejected: good
			}
			// Accepted: the set must still behave sanely.
			_ = s.Elements()
			_ = CountMerge(s, s)
		}()
	}
}

// TestDispatchTrace checks the trace used by the Table II i-cache replay:
// every entry is a surviving segment pair with both sizes >= 1 (a set bit
// implies at least one element), and the trace length matches the
// breakdown's surviving-pair count.
func TestDispatchTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := MustNewSet(randSet(rng, 4000, 1<<18), DefaultConfig())
	b := MustNewSet(randSet(rng, 4000, 1<<18), DefaultConfig())
	trace := DispatchTrace(a, b)
	bd := CountMergeBreakdown(a, b)
	if len(trace) != bd.SegPairs {
		t.Fatalf("trace has %d entries, breakdown reports %d pairs", len(trace), bd.SegPairs)
	}
	total := 0
	for _, p := range trace {
		if p[0] < 1 || p[1] < 1 {
			t.Fatalf("trace entry %v has an empty side", p)
		}
		total += min(p[0], p[1])
	}
	if total < bd.Count {
		t.Errorf("trace upper bound %d below actual count %d", total, bd.Count)
	}
}

// errWriter fails after n bytes, exercising WriteTo's error paths.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, bytes.ErrTooLarge
	}
	w.left -= len(p)
	return len(p), nil
}

func TestWriteToErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := MustNewSet(randSet(rng, 3000, 1<<18), DefaultConfig())
	var full bytes.Buffer
	if _, err := s.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	// Fail at several cut points: header, bitmap, offsets, elements.
	for _, limit := range []int{0, 4, 40, 2000, full.Len() - 10} {
		if _, err := s.WriteTo(&errWriter{left: limit}); err == nil {
			t.Errorf("WriteTo with %d-byte sink should fail", limit)
		}
	}
}

// TestReadRejectsRetiredFormats: v4 and v3 are the formats read. The
// pre-hybrid set streams (FESIA1 without checksums, FESIA2 with them) and
// the segmented-only corpus stream (FESIAC2) fail at the magic, with an
// error that names it.
func TestReadRejectsRetiredFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	s := MustNewSet(randSet(rng, 300, 1<<18), DefaultConfig())
	var set bytes.Buffer
	if _, err := s.WriteTo(&set); err != nil {
		t.Fatal(err)
	}
	readSet := func(b []byte) error { _, err := ReadSet(bytes.NewReader(b)); return err }
	readCorpus := func(b []byte) error { _, err := ReadCorpus(bytes.NewReader(b)); return err }
	for _, c := range []struct {
		magic  string
		stream []byte
		read   func([]byte) error
	}{
		{"FESIA1", set.Bytes(), readSet},
		{"FESIA2", set.Bytes(), readSet},
		{"FESIAC2", corpusBytes(t, []*Set{s}), readCorpus},
	} {
		t.Run(c.magic, func(t *testing.T) {
			retagged := append([]byte(nil), c.stream...)
			copy(retagged, c.magic)
			err := c.read(retagged)
			if err == nil || !strings.Contains(err.Error(), c.magic) {
				t.Errorf("%s stream: err = %v, want a bad-magic error naming %s", c.magic, err, c.magic)
			}
		})
	}
}

// TestReadSetRejectsStrayBits is the regression test for the bitmap/element
// consistency hole: a stream of either format with an extra set bit that no
// element hashes to must be rejected, not loaded into a set whose bitmap
// disagrees with its element lists. The checksum covering the bitmap is
// recomputed, so only the structural validator stands in the way.
func TestReadSetRejectsStrayBits(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	orig := MustNewSet(randSet(rng, 60, 1<<12), DefaultConfig())
	wordsLen := int(orig.BitmapBits() / 8)
	for _, v3 := range []bool{false, true} {
		data := setBytes(t, orig, v3)
		// v4 layout: magic(8) + config(28) + numSets(8) + entry(24), then
		// the set's region, led by its bitmap words, and the trailing CRC.
		// v3 layout: magic(8) + header(52) + header CRC(4), then the bitmap
		// words and their CRC.
		wordsOff, crcFrom, crcAt := 8+28+8+24, 0, len(data)-4
		if v3 {
			wordsOff = 8 + 52 + 4
			crcFrom, crcAt = wordsOff, wordsOff+wordsLen
		}
		planted := false
		for off := wordsOff; off < wordsOff+wordsLen; off++ {
			if data[off] == 0 {
				data[off] = 1
				planted = true
				break
			}
		}
		if !planted {
			t.Fatal("fixture bitmap has no zero byte to plant a stray bit in")
		}
		binary.LittleEndian.PutUint32(data[crcAt:], crc32cOf(data[crcFrom:crcAt]))
		_, err := ReadSet(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("v3 %v: stray set bit accepted", v3)
		}
		if !strings.Contains(err.Error(), "stray or missing bits") {
			t.Fatalf("v3 %v: stray set bit rejected by %v, want the bitmap check", v3, err)
		}
	}
}

// TestReadSetDetectsAllTruncations: a set stream of either format cut at
// every offset must fail to load.
func TestReadSetDetectsAllTruncations(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	s := MustNewSet(randSet(rng, 120, 1<<13), DefaultConfig())
	for _, v3 := range []bool{false, true} {
		data := setBytes(t, s, v3)
		testutil.ForEachTruncation(data, func(n int, trunc []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("v3 %v: ReadSet panicked on %d-byte truncation: %v", v3, n, r)
				}
			}()
			if _, err := ReadSet(bytes.NewReader(trunc)); err == nil {
				t.Fatalf("v3 %v: truncation to %d of %d bytes loaded successfully", v3, n, len(data))
			}
		})
	}
}

// TestReadSetDetectsAllByteFlips: flipping any single byte of a set stream
// of either format must fail the load — its CRC32C guarantees 100%
// single-byte detection (v1 had none; see TestReadSetRejectsCorruption's
// weaker "error or structurally sound" contract).
func TestReadSetDetectsAllByteFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	s := MustNewSet(randSet(rng, 120, 1<<13), DefaultConfig())
	for _, v3 := range []bool{false, true} {
		data := setBytes(t, s, v3)
		testutil.ForEachByteFlip(data, func(pos int, corrupted []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("v3 %v: ReadSet panicked on flip at byte %d: %v", v3, pos, r)
				}
			}()
			if _, err := ReadSet(bytes.NewReader(corrupted)); err == nil {
				t.Fatalf("v3 %v: flip at byte %d of %d loaded successfully", v3, pos, len(data))
			}
		})
	}
}

// TestReadSetFaultyMedia: a set stream of either format that ends or fails
// after any number of bytes surfaces an error rather than a panic or a
// partial set, and so does a write failing at any point.
func TestReadSetFaultyMedia(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	s := MustNewSet(randSet(rng, 200, 1<<13), DefaultConfig())
	for _, v3 := range []bool{false, true} {
		testutil.ForEachReadFault(setBytes(t, s, v3), 1, func(desc string, r io.Reader) {
			if _, err := ReadSet(r); err == nil {
				t.Fatalf("v3 %v: %s loaded successfully", v3, desc)
			}
		})
	}
	data := setBytes(t, s, false)
	for failAt := 0; failAt < len(data); failAt += 5 {
		if _, err := s.WriteTo(&testutil.FailingWriter{FailAt: failAt}); !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("write failing after %d bytes: err = %v, want ErrInjected", failAt, err)
		}
	}
}

func TestReadSetRejectsBadHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	orig := MustNewSet(randSet(rng, 50, 1000), DefaultConfig())
	data := setBytes(t, orig, false)
	// Layout after magic: width(4) segBits(4) stride(4) scale(8) seed(8)
	// numSets(8), then the entry: rep(1) kept(1) 0(2) base(4) n(8) mBits(8).
	corrupt := func(off int, val byte) []byte {
		out := append([]byte(nil), data...)
		out[8+off] = val
		return out
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"width", corrupt(0, 7)},
		{"segBits", corrupt(4, 9)},
		{"stride", corrupt(8, 3)},
		{"numSets", corrupt(28, 2)},
		{"rep", corrupt(36, 3)},
		{"kept", corrupt(37, 2)},
		{"mBits-notpow2", corrupt(36+16, 3)},
	} {
		if _, err := ReadSet(bytes.NewReader(c.data)); err == nil {
			t.Errorf("corrupted %s accepted", c.name)
		}
	}
}

// TestSnapshotStreamsPinned pins the snapshot streams to SHA-256 digests of
// a seeded fixture covering every representation and the empty set: the v4
// streams WriteCorpus and Set.WriteTo write, and the v3 streams of the
// test-only v3 writers, which v3 files already written hold. The in-memory
// layout may change; the bytes a snapshot holds may not.
func TestSnapshotStreamsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	dense := make([]uint32, 0, 600)
	for v := uint32(7000); len(dense) < 600; v += 1 + uint32(rng.Intn(3)) {
		dense = append(dense, v)
	}
	lists := [][]uint32{
		randSet(rng, 900, 1<<18), // segmented under RepAuto
		randSet(rng, 60, 1<<18),  // array under RepAuto
		dense,                    // dense under RepAuto
		nil,
		randSet(rng, 3000, 1<<20),
	}
	for _, c := range []struct {
		name             string
		cfg              Config
		corpus, sets     string // v4
		corpusV3, setsV3 string
	}{
		{"auto", Config{Rep: RepAuto, Seed: 5},
			"0ecbcd03710ffeafd08573024a97c1443f6e6f1f1ebe44cc52be04913de84a14",
			"6dfd8704171f62fb46d0c2f9f2def5682d587b9f1579d2db8560efe8ad62b377",
			"0b6af6177443c45b16c0c378f5821a59f214e823303ca8936292dea90af51747",
			"117dc51cb18a91069de70d2c98bf27e3de59be4aad7b6244cd0ca195de4f5e15"},
		{"segmented", Config{Width: simd.WidthSSE, SegBits: 16, Seed: 9},
			"271f62e16c1b6fa2f007c60c7cf1ba674b22e06a3f1ee9f41651cd9ede3dd523",
			"72857ad048b5155d594fee6bd178b6d9f4d35a7eaa49f6fcf57a1cf039677d64",
			"667bb679e9eef43eddce2c4a9e4608eb1dbb0f23b58b8e11887fc4d5c0d92825",
			"e9e2dbcae1101c5a1390e248e09c92bb20b9e5ee2ae2fd9fd3cd77a0ddeb6712"},
	} {
		built, err := BuildSets(lists, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range built {
			want := RepSegmented
			if c.cfg.Rep == RepAuto {
				want = []Rep{RepSegmented, RepArray, RepDense, RepArray, RepSegmented}[i]
			}
			if s.Rep() != want {
				t.Fatalf("%s: set %d built as %v, want %v", c.name, i, s.Rep(), want)
			}
		}
		for _, v3 := range []bool{false, true} {
			corpus, sets := sha256.New(), sha256.New()
			if v3 {
				_, err = writeCorpusV3(corpus, built)
			} else {
				_, err = WriteCorpus(corpus, built)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range built {
				sets.Write(setBytes(t, s, v3))
			}
			wantCorpus, wantSets := c.corpus, c.sets
			if v3 {
				wantCorpus, wantSets = c.corpusV3, c.setsV3
			}
			if got := hex.EncodeToString(corpus.Sum(nil)); got != wantCorpus {
				t.Errorf("%s, v3 %v: corpus stream digest %s, want %s", c.name, v3, got, wantCorpus)
			}
			if got := hex.EncodeToString(sets.Sum(nil)); got != wantSets {
				t.Errorf("%s, v3 %v: set stream digest %s, want %s", c.name, v3, got, wantSets)
			}
		}
	}
}
