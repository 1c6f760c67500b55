package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fesia/internal/testutil"
)

// corpusFixture builds a small arena corpus whose serialized stream stays in
// the low kilobytes, so the exhaustive truncation and byte-flip sweeps remain
// cheap.
func corpusFixture(t *testing.T, seed int64, numSets, maxElems int) []*Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]uint32, numSets)
	for i := range lists {
		lists[i] = randSet(rng, rng.Intn(maxElems+1), 1<<14)
	}
	sets, err := BuildSets(lists, DefaultConfig())
	if err != nil {
		t.Fatalf("BuildSets: %v", err)
	}
	return sets
}

func corpusBytes(t *testing.T, sets []*Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteCorpus(&buf, sets)
	if err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteCorpus reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestCorpusRoundTrip round-trips a corpus at the default scale, where every
// segmented set has a rank directory, and at Scale 1, where some keep their
// offsets instead: BuildSets, NewSet, ReadSet and ReadCorpus must agree on
// every segment of every set in both layouts.
func TestCorpusRoundTrip(t *testing.T) {
	scale1 := DefaultConfig()
	scale1.Scale = 1
	for _, cfg := range []Config{DefaultConfig(), scale1} {
		t.Run(fmt.Sprintf("scale=%v", cfg.Scale), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			lists := make([][]uint32, 9)
			for i := range lists {
				lists[i] = randSet(rng, rng.Intn(121), 1<<14) // includes empty sets
			}
			sets, err := BuildSets(lists, cfg)
			if err != nil {
				t.Fatal(err)
			}
			testCorpusRoundTrip(t, sets, cfg)
			kept := 0
			for _, s := range sets {
				if !s.hasDirectory() {
					kept++
				}
			}
			if cfg.Scale == 1 && kept == 0 {
				t.Error("no set of the Scale-1 corpus kept its offsets")
			}
		})
	}
}

func testCorpusRoundTrip(t *testing.T, sets []*Set, cfg Config) {
	data := corpusBytes(t, sets)
	got, err := ReadCorpus(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if len(got) != len(sets) {
		t.Fatalf("round trip returned %d sets, want %d", len(got), len(sets))
	}
	for i := range sets {
		// A loaded set must serialize to the identical per-set stream — the
		// strongest structural equality available.
		var want, have bytes.Buffer
		if _, err := sets[i].WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if _, err := got[i].WriteTo(&have); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Fatalf("set %d: round trip changed serialized form", i)
		}
	}
	// BuildSets, NewSet, ReadSet and ReadCorpus must agree on the layout the
	// offsets describe, whichever form each set keeps its bounds in.
	for i, built := range sets {
		var snap bytes.Buffer
		if _, err := built.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		read, err := ReadSet(&snap)
		if err != nil {
			t.Fatalf("set %d: ReadSet: %v", i, err)
		}
		fresh := MustNewSet(built.Elements(), cfg)
		for name, s := range map[string]*Set{"NewSet": fresh, "ReadSet": read, "ReadCorpus": got[i]} {
			if !reflect.DeepEqual(s.Stats(), built.Stats()) {
				t.Errorf("set %d: %s Stats %+v, BuildSets %+v", i, name, s.Stats(), built.Stats())
			}
			if s.MemoryBytes() != built.MemoryBytes() {
				t.Errorf("set %d: %s MemoryBytes %d, BuildSets %d", i, name, s.MemoryBytes(), built.MemoryBytes())
			}
			if s.hasDirectory() != built.hasDirectory() {
				t.Errorf("set %d: %s directory %v, BuildSets %v", i, name, s.hasDirectory(), built.hasDirectory())
			}
			for seg := range built.NumSegments() {
				if !slices.Equal(s.Segment(seg), built.Segment(seg)) {
					t.Fatalf("set %d: %s segment %d is %v, BuildSets %v", i, name, seg, s.Segment(seg), built.Segment(seg))
				}
			}
		}
	}
	// Loaded sets must intersect correctly against live ones and each other.
	for i := range sets {
		for j := range sets {
			if Count(got[i], got[j]) != Count(sets[i], sets[j]) {
				t.Fatalf("loaded sets %d,%d intersect differently", i, j)
			}
		}
		if Count(got[i], sets[i]) != sets[i].Len() {
			t.Fatalf("loaded set %d does not match its original", i)
		}
	}
}

func TestCorpusEmpty(t *testing.T) {
	data := corpusBytes(t, nil)
	got, err := ReadCorpus(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadCorpus(empty corpus): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty corpus round-tripped to %d sets", len(got))
	}
}

func TestWriteCorpusRejectsMixedConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := MustNewSet(randSet(rng, 50, 1<<12), DefaultConfig())
	cfg := DefaultConfig()
	cfg.Seed = 12345
	b := MustNewSet(randSet(rng, 50, 1<<12), cfg)
	if _, err := WriteCorpus(&bytes.Buffer{}, []*Set{a, b}); err == nil {
		t.Fatal("mixed-config corpus accepted")
	}
}

// TestCorpusDetectsTruncation: a snapshot cut at EVERY possible offset must
// fail to load — never panic, never succeed.
func TestCorpusDetectsTruncation(t *testing.T) {
	sets := corpusFixture(t, 73, 4, 80)
	data := corpusBytes(t, sets)
	testutil.ForEachTruncation(data, func(n int, trunc []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadCorpus panicked on %d-byte truncation: %v", n, r)
			}
		}()
		if _, err := ReadCorpus(bytes.NewReader(trunc)); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded successfully", n, len(data))
		}
	})
}

// TestCorpusDetectsByteFlips: flipping EVERY byte of the snapshot, one at a
// time, must fail the load. 100% detection is the acceptance bar — the
// trailing whole-file CRC32C guarantees it for single-byte damage.
func TestCorpusDetectsByteFlips(t *testing.T) {
	sets := corpusFixture(t, 74, 3, 60)
	data := corpusBytes(t, sets)
	testutil.ForEachByteFlip(data, func(pos int, corrupted []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadCorpus panicked on flip at byte %d: %v", pos, r)
			}
		}()
		if _, err := ReadCorpus(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("flip at byte %d of %d loaded successfully", pos, len(data))
		}
	})
}

// TestCorpusValidatesBitmapBehindValidCRC forges one byte of a one-set
// corpus, recomputes the trailing checksum, and asserts which check rejects
// each forged offset, proving structural validation still runs after the
// checksum gate passes (defense in depth against a buggy writer, not just
// bit rot). The v3 layout puts the set's entry — rep, base, n, mBits (24
// bytes) — after magic(8) + config(28) + numSets(8), and its bitmap words
// right after the entry. A byte of mBits fails the header check; a stray bit
// in the bitmap words fails the bitmap check the read runs on the sets it
// copies into its arena.
func TestCorpusValidatesBitmapBehindValidCRC(t *testing.T) {
	sets := corpusFixture(t, 75, 1, 40)
	data := corpusBytes(t, sets)
	entry := 8 + 28 + 8
	wordsOff, wordsLen := entry+24, int(sets[0].BitmapBits()/8)
	stray := slices.Index(data[wordsOff:wordsOff+wordsLen], 0)
	if stray < 0 {
		t.Fatal("fixture bitmap has no zero byte to plant a stray bit in")
	}
	for _, tc := range []struct {
		name string
		off  int    // the byte forged: its low bit flips
		want string // the rejecting check's error
	}{
		{"mBits", entry + 16, "invalid bitmap size"},
		{"bitmap", wordsOff + stray, "stray or missing bits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := slices.Clone(data)
			forged[tc.off] ^= 1
			binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32cOf(forged[:len(forged)-4]))
			if _, err := ReadCorpus(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("byte %d forged behind a valid checksum: err = %v, want %q", tc.off, err, tc.want)
			}
		})
	}
}

// TestCorpusFaultyMedia drives the reader and writer through the injected
// fault fakes: mid-stream read failures and write failures at every point
// must surface as errors.
func TestCorpusFaultyMedia(t *testing.T) {
	sets := corpusFixture(t, 76, 3, 60)
	data := corpusBytes(t, sets)

	for failAt := 0; failAt < len(data); failAt += 7 {
		r := &testutil.FlakyReader{R: bytes.NewReader(data), FailAt: failAt}
		if _, err := ReadCorpus(r); err == nil {
			t.Fatalf("read failing after %d bytes loaded successfully", failAt)
		}
	}
	for failAt := 0; failAt < len(data); failAt += 7 {
		w := &testutil.FailingWriter{FailAt: failAt}
		if _, err := WriteCorpus(w, sets); !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("write failing after %d bytes: err = %v, want ErrInjected", failAt, err)
		}
	}
}

// TestCorpusForgedHeaders hand-crafts hostile headers: enormous set counts
// and sizes must fail fast without large allocations.
func TestCorpusForgedHeaders(t *testing.T) {
	sets := corpusFixture(t, 77, 2, 40)
	data := corpusBytes(t, sets)

	forge := func(mutate func([]byte)) []byte {
		out := append([]byte(nil), data...)
		mutate(out)
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"numSets=2^56", forge(func(b []byte) { b[8+28+7] = 0x01 })},
		{"mBits=2^52", forge(func(b []byte) {
			off := 8 + 28 + 8 + 8 // first set's mBits
			for i := 0; i < 8; i++ {
				b[off+i] = 0
			}
			b[off+6] = 0x10
		})},
		{"n=2^56", forge(func(b []byte) {
			off := 8 + 28 + 8 // first set's n
			b[off+7] = 0x01
		})},
	}
	for _, c := range cases {
		if _, err := ReadCorpus(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: forged header accepted", c.name)
		}
	}

	// Sizes that pass the header checks, over a stream that ends right
	// after the one set's header entry: the read must fail at the missing
	// payload without first allocating what the header declares.
	headerOnly := func(rep Rep, n, mBits uint64) []byte {
		le := binary.LittleEndian
		out := append([]byte(nil), data[:8+28]...) // magic, config
		out = le.AppendUint64(out, 1)              // numSets
		out = le.AppendUint32(out, uint32(rep))
		out = le.AppendUint32(out, 0) // base
		out = le.AppendUint64(out, n)
		return le.AppendUint64(out, mBits)
	}
	// The last case is an arena just past the cap a u32 word offset
	// addresses (checkArena): a 2^31-word bitmap and its directory. Its
	// error must come from the cap, before any payload is read.
	capErr := checkArena(maxArenaWords + 1)
	for _, c := range []struct {
		name string
		data []byte
		want error // the error the read must return, when not nil
	}{
		{"segmented n=2^36 mBits=2^40", headerOnly(RepSegmented, 1<<36, 1<<40), nil},
		{"dense mBits=2^32", headerOnly(RepDense, 1, 1<<32), nil},
		{"arena of 2^32 words", headerOnly(RepSegmented, 0, 64<<31), capErr},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCorpus(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged header accepted", c.name)
		} else if c.want != nil && err.Error() != c.want.Error() {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
			t.Errorf("%s: failing read allocated %d bytes, want under 8 MiB", c.name, alloc)
		}
	}
}

// TestBuildAndLoadAllocsPerSet: building or loading a corpus makes a fixed
// number of allocations, not a number that grows with the set count — the
// headers share one slab, the payloads one arena and the sorted copies one
// buffer.
func TestBuildAndLoadAllocsPerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	lists := make([][]uint32, 10_000)
	for i := range lists {
		lists[i] = randSet(rng, 8, 1<<20)
	}
	sets, err := BuildSets(lists, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := corpusBytes(t, sets)
	perSet := func(f func() error) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(lists))
	}
	build := perSet(func() error { _, err := BuildSets(lists, DefaultConfig()); return err })
	load := perSet(func() error { _, err := ReadCorpus(bytes.NewReader(data)); return err })
	t.Logf("allocations per set: BuildSets %.4f, ReadCorpus %.4f", build, load)
	if build >= 0.05 || load >= 0.05 {
		t.Errorf("allocations per set: BuildSets %.3f, ReadCorpus %.3f; want both under 0.05", build, load)
	}
}
