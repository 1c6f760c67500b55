package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
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

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	configs := []Config{
		{},
		{Width: simd.WidthSSE, SegBits: 16},
		{Width: simd.WidthAVX512, Stride: 4, Scale: 4, Seed: 99},
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

// TestReadRejectsRetiredFormats: v3 is the only format read. The
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
// consistency hole: a stream with an extra set bit that no element hashes to
// must be rejected, not loaded into a set whose bitmap disagrees with its
// element lists. The bitmap section's checksum is recomputed, so only the
// structural validator stands in the way.
func TestReadSetRejectsStrayBits(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	orig := MustNewSet(randSet(rng, 60, 1<<12), DefaultConfig())
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// v3 layout: magic(8) + header(52) + header CRC(4), then the bitmap
	// words and their CRC.
	wordsOff := 8 + 52 + 4
	wordsLen := int(orig.BitmapBits() / 8)
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
	binary.LittleEndian.PutUint32(data[wordsOff+wordsLen:], crc32cOf(data[wordsOff:wordsOff+wordsLen]))
	_, err := ReadSet(bytes.NewReader(data))
	if err == nil {
		t.Fatal("stray set bit accepted")
	}
	if !strings.Contains(err.Error(), "stray or missing bits") {
		t.Fatalf("stray set bit rejected by %v, want the bitmap check", err)
	}
}

// TestReadSetDetectsAllTruncations: a v2 snapshot cut at every offset must
// fail to load.
func TestReadSetDetectsAllTruncations(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	s := MustNewSet(randSet(rng, 120, 1<<13), DefaultConfig())
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.ForEachTruncation(buf.Bytes(), func(n int, trunc []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadSet panicked on %d-byte truncation: %v", n, r)
			}
		}()
		if _, err := ReadSet(bytes.NewReader(trunc)); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded successfully", n, buf.Len())
		}
	})
}

// TestReadSetDetectsAllByteFlips: flipping any single byte of a v2 snapshot
// must fail the load — the per-section CRC32C guarantees 100% single-byte
// detection (v1 had none; see TestReadSetRejectsCorruption's weaker
// "error or structurally sound" contract).
func TestReadSetDetectsAllByteFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	s := MustNewSet(randSet(rng, 120, 1<<13), DefaultConfig())
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.ForEachByteFlip(buf.Bytes(), func(pos int, corrupted []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadSet panicked on flip at byte %d: %v", pos, r)
			}
		}()
		if _, err := ReadSet(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("flip at byte %d of %d loaded successfully", pos, buf.Len())
		}
	})
}

// TestReadSetFaultyMedia: mid-stream read failures surface the underlying
// error rather than a panic or a partial set.
func TestReadSetFaultyMedia(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	s := MustNewSet(randSet(rng, 200, 1<<13), DefaultConfig())
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for failAt := 0; failAt < len(data); failAt += 5 {
		if _, err := ReadSet(&testutil.FlakyReader{R: bytes.NewReader(data), FailAt: failAt}); err == nil {
			t.Fatalf("read failing after %d bytes loaded successfully", failAt)
		}
	}
	for failAt := 0; failAt < len(data); failAt += 5 {
		if _, err := s.WriteTo(&testutil.FailingWriter{FailAt: failAt}); !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("write failing after %d bytes: err = %v, want ErrInjected", failAt, err)
		}
	}
}

func TestReadSetRejectsBadHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	orig := MustNewSet(randSet(rng, 50, 1000), DefaultConfig())
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header layout after magic: width(4) segBits(4) stride(4) scale(8)
	// seed(8) n(8) mBits(8).
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
		{"mBits-notpow2", corrupt(28+8, 3)},
	} {
		if _, err := ReadSet(bytes.NewReader(c.data)); err == nil {
			t.Errorf("corrupted %s accepted", c.name)
		}
	}
}

// TestSnapshotStreamsPinned pins the v3 snapshot streams — WriteCorpus and
// Set.WriteTo — to SHA-256 digests of a seeded fixture covering every
// representation and the empty set. The in-memory layout may change; the
// bytes a snapshot holds may not.
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
		name         string
		cfg          Config
		corpus, sets string
	}{
		{"auto", Config{Rep: RepAuto, Seed: 5},
			"0b6af6177443c45b16c0c378f5821a59f214e823303ca8936292dea90af51747",
			"117dc51cb18a91069de70d2c98bf27e3de59be4aad7b6244cd0ca195de4f5e15"},
		{"segmented", Config{Width: simd.WidthSSE, SegBits: 16, Seed: 9},
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
		var buf bytes.Buffer
		if _, err := WriteCorpus(&buf, built); err != nil {
			t.Fatal(err)
		}
		corpus := sha256.Sum256(buf.Bytes())
		h := sha256.New()
		for _, s := range built {
			if _, err := s.WriteTo(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(corpus[:]); got != c.corpus {
			t.Errorf("%s: WriteCorpus stream digest %s, want %s", c.name, got, c.corpus)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sets {
			t.Errorf("%s: Set.WriteTo stream digest %s, want %s", c.name, got, c.sets)
		}
	}
}
