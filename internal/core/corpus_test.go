package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

func corpusBytes(t testing.TB, sets []*Set) []byte {
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

// corpusFormats are the corpus streams ReadCorpus reads: v4, which
// WriteCorpus writes, and v3, from its test-only writer.
var corpusFormats = []struct {
	name  string
	bytes func(testing.TB, []*Set) []byte
}{{"v4", corpusBytes}, {"v3", corpusBytesV3}}

// TestCorpusRoundTrip round-trips a corpus over SegBits 8, 16 and 32, the
// default scale, where every segmented set has a rank directory, and Scale
// 1, where some keep their offsets instead, and RepSegmented and RepAuto:
// BuildSets, NewSet, ReadSet and ReadCorpus of the v4 and the v3 streams
// must agree on every set.
func TestCorpusRoundTrip(t *testing.T) {
	for _, scale := range []float64{0, 1} {
		t.Run(fmt.Sprintf("scale=%v", scale), func(t *testing.T) {
			for _, segBits := range []int{8, 16, 32} {
				for _, rep := range []Rep{RepSegmented, RepAuto} {
					cfg := Config{SegBits: segBits, Scale: scale, Rep: rep}
					t.Run(fmt.Sprintf("segBits=%d/%v", segBits, rep), func(t *testing.T) {
						rng := rand.New(rand.NewSource(71))
						lists := make([][]uint32, 9)
						for i := range lists {
							lists[i] = randSet(rng, rng.Intn(121), 1<<14) // includes empty sets
						}
						lists = append(lists,
							randSet(rng, 2000, 1<<20), // segmented under RepAuto; keeps offsets at Scale 1
							randSet(rng, 500, 1<<12),  // dense under RepAuto
						)
						sets, err := BuildSets(lists, cfg)
						if err != nil {
							t.Fatal(err)
						}
						testCorpusRoundTrip(t, sets, cfg)
						kept := 0
						for _, s := range sets {
							if s.rep == RepSegmented && !s.hasDirectory() {
								kept++
							}
						}
						if scale == 1 && kept == 0 {
							t.Error("no set of the Scale-1 corpus kept its offsets")
						}
					})
				}
			}
		})
	}
}

func testCorpusRoundTrip(t *testing.T, sets []*Set, cfg Config) {
	loaded := map[string][]*Set{}
	for _, f := range corpusFormats {
		got, err := ReadCorpus(bytes.NewReader(f.bytes(t, sets)))
		if err != nil {
			t.Fatalf("ReadCorpus of the %s stream: %v", f.name, err)
		}
		if len(got) != len(sets) {
			t.Fatalf("%s round trip returned %d sets, want %d", f.name, len(got), len(sets))
		}
		loaded["ReadCorpus "+f.name] = got
	}
	readSet := func(data []byte) *Set {
		s, err := ReadSet(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadSet: %v", err)
		}
		return s
	}
	// BuildSets, NewSet, ReadSet and ReadCorpus of either format must agree
	// on every set, whichever form it keeps its bounds in. A loaded set
	// must write the stream its original writes: the same arena region.
	for i, built := range sets {
		want := setBytes(t, built, false)
		for name, s := range map[string]*Set{
			"NewSet":        MustNewSet(built.Elements(), cfg),
			"ReadSet v4":    readSet(want),
			"ReadSet v3":    readSet(setBytes(t, built, true)),
			"ReadCorpus v4": loaded["ReadCorpus v4"][i],
			"ReadCorpus v3": loaded["ReadCorpus v3"][i],
		} {
			if !bytes.Equal(setBytes(t, s, false), want) {
				t.Fatalf("set %d: %s writes a different stream", i, name)
			}
			if s.rep != built.rep || s.maxSeg != built.maxSeg {
				t.Errorf("set %d: %s rep %v maxSeg %d, BuildSets %v %d", i, name, s.rep, s.maxSeg, built.rep, built.maxSeg)
			}
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
				lo, hi := s.bounds(seg)
				if wlo, whi := built.bounds(seg); lo != wlo || hi != whi {
					t.Fatalf("set %d: %s bounds of segment %d [%d, %d), BuildSets [%d, %d)", i, name, seg, lo, hi, wlo, whi)
				}
				if !slices.Equal(s.Segment(seg), built.Segment(seg)) {
					t.Fatalf("set %d: %s segment %d is %v, BuildSets %v", i, name, seg, s.Segment(seg), built.Segment(seg))
				}
			}
		}
	}
	// Loaded sets must intersect correctly against live ones and each other.
	for name, got := range loaded {
		for i := range sets {
			for j := range sets {
				if Count(got[i], got[j]) != Count(sets[i], sets[j]) {
					t.Fatalf("%s: loaded sets %d,%d intersect differently", name, i, j)
				}
			}
			if Count(got[i], sets[i]) != sets[i].Len() {
				t.Fatalf("%s: loaded set %d does not match its original", name, i)
			}
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

// TestCorpusDetectsTruncation: a snapshot of either format cut at EVERY
// possible offset must fail to load — never panic, never succeed.
func TestCorpusDetectsTruncation(t *testing.T) {
	sets := corpusFixture(t, 73, 4, 80)
	for _, f := range corpusFormats {
		data := f.bytes(t, sets)
		testutil.ForEachTruncation(data, func(n int, trunc []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: ReadCorpus panicked on %d-byte truncation: %v", f.name, n, r)
				}
			}()
			if _, err := ReadCorpus(bytes.NewReader(trunc)); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes loaded successfully", f.name, n, len(data))
			}
		})
	}
}

// TestCorpusDetectsByteFlips: flipping EVERY byte of a snapshot of either
// format, one at a time, must fail the load. 100% detection is the
// acceptance bar — the trailing whole-file CRC32C guarantees it for
// single-byte damage.
func TestCorpusDetectsByteFlips(t *testing.T) {
	sets := corpusFixture(t, 74, 3, 60)
	for _, f := range corpusFormats {
		data := f.bytes(t, sets)
		testutil.ForEachByteFlip(data, func(pos int, corrupted []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: ReadCorpus panicked on flip at byte %d: %v", f.name, pos, r)
				}
			}()
			if _, err := ReadCorpus(bytes.NewReader(corrupted)); err == nil {
				t.Fatalf("%s: flip at byte %d of %d loaded successfully", f.name, pos, len(data))
			}
		})
	}
}

// TestCorpusValidatesBitmapBehindValidCRC forges one byte of a one-set
// corpus, recomputes the trailing checksum, and asserts which check rejects
// each forged offset, proving structural validation still runs after the
// checksum gate passes (defense in depth against a buggy writer, not just
// bit rot). Both formats put the set's entry — rep, base, n, mBits (24
// bytes) — after magic(8) + config(28) + numSets(8), and its bitmap words
// right after the entry. A byte of mBits fails the header check; a stray bit
// in the bitmap words fails the bitmap check. In v4 the words are followed
// by the rank directory, the elements and, after an odd count, a zero pad:
// a forged directory base fails the walk, and a nonzero pad fails the
// canonical-image check.
func TestCorpusValidatesBitmapBehindValidCRC(t *testing.T) {
	s := MustNewSet(randSet(rand.New(rand.NewSource(75)), 39, 1<<14), DefaultConfig())
	if s.Len()%2 == 0 {
		t.Fatalf("fixture holds %d elements, want an odd count", s.Len())
	}
	entry := 8 + 28 + 8
	wordsOff, wordsLen := entry+24, int(s.BitmapBits()/8)
	dirOff := wordsOff + wordsLen
	padOff := dirOff + wordsLen + 4*s.Len()
	for _, tc := range []struct {
		name string
		off  func(words []byte) int // the byte forged: its low bit flips
		want string                 // the rejecting check's error
		v4   bool                   // a v4 part, which v3 lays out differently
	}{
		{"mBits", func([]byte) int { return entry + 16 }, "invalid bitmap size", false},
		{"bitmap", func(words []byte) int { return wordsOff + slices.Index(words, 0) }, "stray or missing bits", false},
		{"directory", func([]byte) int { return dirOff + 4 }, "rank directory", true},
		{"pad", func([]byte) int { return padOff }, "nonzero pad", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range corpusFormats {
				if tc.v4 && f.name != "v4" {
					continue
				}
				forged := f.bytes(t, []*Set{s})
				off := tc.off(forged[wordsOff : wordsOff+wordsLen])
				if off < wordsOff && tc.name == "bitmap" {
					t.Fatal("fixture bitmap has no zero byte to plant a stray bit in")
				}
				forged[off] ^= 1
				binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32cOf(forged[:len(forged)-4]))
				if _, err := ReadCorpus(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: byte %d forged behind a valid checksum: err = %v, want %q", f.name, off, err, tc.want)
				}
			}
		})
	}
}

// hideLength hides a reader's Seek, so ReadCorpus cannot tell how many
// bytes it holds.
type hideLength struct{ io.Reader }

// TestCorpusFaultyMedia drives the reader and writer through the injected
// fault fakes: a stream of either format that ends or fails after any
// number of bytes, and a write failure at every point, must surface as
// errors.
func TestCorpusFaultyMedia(t *testing.T) {
	sets := corpusFixture(t, 76, 3, 60)
	for _, f := range corpusFormats {
		testutil.ForEachReadFault(f.bytes(t, sets), 1, func(desc string, r io.Reader) {
			if _, err := ReadCorpus(r); err == nil {
				t.Fatalf("%s: %s loaded successfully", f.name, desc)
			}
		})
	}
	data := corpusBytes(t, sets)
	for failAt := 0; failAt < len(data); failAt += 7 {
		w := &testutil.FailingWriter{FailAt: failAt}
		if _, err := WriteCorpus(w, sets); !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("write failing after %d bytes: err = %v, want ErrInjected", failAt, err)
		}
	}
}

// TestCorpusForgedHeaders hand-crafts hostile headers in both formats:
// enormous set counts and sizes must fail fast without large allocations,
// from a reader that tells its length and from one that hides it.
func TestCorpusForgedHeaders(t *testing.T) {
	sets := corpusFixture(t, 77, 2, 40)
	for _, f := range corpusFormats {
		data := f.bytes(t, sets)
		forge := func(mutate func([]byte)) []byte {
			out := append([]byte(nil), data...)
			mutate(out)
			return out
		}
		// Sizes that pass the header checks, over a stream that ends right
		// after the one set's header entry: the read must fail at the
		// missing payload without first allocating what the header
		// declares.
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
			{"numSets=2^56", forge(func(b []byte) { b[8+28+7] = 0x01 }), nil},
			{"numSets=2^39", forge(func(b []byte) { binary.LittleEndian.PutUint64(b[8+28:], 1<<39) }), nil},
			{"mBits=2^52", forge(func(b []byte) {
				off := 8 + 28 + 8 + 16 // first set's mBits
				for i := 0; i < 8; i++ {
					b[off+i] = 0
				}
				b[off+6] = 0x10
			}), nil},
			{"n=2^56", forge(func(b []byte) {
				off := 8 + 28 + 8 + 8 // first set's n
				b[off+7] = 0x01
			}), nil},
			{"segmented n=2^36 mBits=2^40", headerOnly(RepSegmented, 1<<36, 1<<40), nil},
			{"dense mBits=2^32", headerOnly(RepDense, 1, 1<<32), nil},
			{"arena of 2^32 words", headerOnly(RepSegmented, 0, 64<<31), capErr},
		} {
			for _, r := range []struct {
				name string
				r    io.Reader
			}{{"length told", bytes.NewReader(c.data)}, {"length hidden", hideLength{bytes.NewReader(c.data)}}} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := ReadCorpus(r.r)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("%s, %s, %s: forged header accepted", f.name, c.name, r.name)
				} else if c.want != nil && err.Error() != c.want.Error() {
					t.Errorf("%s, %s, %s: err = %v, want %v", f.name, c.name, r.name, err, c.want)
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
					t.Errorf("%s, %s, %s: failing read allocated %d bytes, want under 8 MiB", f.name, c.name, r.name, alloc)
				}
			}
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

// TestSnapshotByteOrder drives the big-endian fix-up of the regions on this
// host: a stream written with the bytes of every region value reversed, as
// a big-endian host holds its arena, must differ from the stream, and a
// read that reverses them back, as a big-endian host's read does, must
// return the original sets, every representation and a set that keeps its
// offsets among them.
func TestSnapshotByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cfg := Config{Scale: 1, Rep: RepAuto}
	sets, err := BuildSets([][]uint32{
		randSet(rng, 2000, 1<<20), // segmented, keeps its offsets at Scale 1
		randSet(rng, 301, 1<<24),  // segmented, odd: a pad
		randSet(rng, 77, 1<<20),   // array
		randSet(rng, 500, 1<<12),  // dense
		nil,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sets[0].hasDirectory() || sets[1].rep != RepSegmented || sets[2].rep != RepArray || sets[3].rep != RepDense {
		t.Fatal("fixture lost a representation or its kept offsets")
	}
	var swapped bytes.Buffer
	if _, err := writeSnapshot(&swapped, sets, true); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(swapped.Bytes(), corpusBytes(t, sets)) {
		t.Fatal("the byte-reversed image equals the stream")
	}
	sr := newStreamReader(bytes.NewReader(swapped.Bytes()))
	var magic [8]byte
	if err := sr.read(magic[:]); err != nil || magic != corpusMagicV4 {
		t.Fatalf("magic %q, err %v", magic, err)
	}
	got, err := readV4(sr, false, true)
	if err != nil {
		t.Fatalf("reading the byte-reversed image: %v", err)
	}
	for i, s := range sets {
		if !bytes.Equal(setBytes(t, got[i], false), setBytes(t, s, false)) || got[i].maxSeg != s.maxSeg {
			t.Errorf("set %d changed through the byte-order fix-up", i)
		}
	}
}
