package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"fesia/internal/hashutil"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Serialization of a Set, so the offline construction phase (Section VII-A:
// "the data structure of our approach is built offline") can be paid once
// and the structure shipped to query servers. Snapshots travel through
// object stores and disks the query servers do not control, so a stream is
// treated as untrusted: it carries CRC32C checksums and the reader
// re-validates every structural invariant, turning bit rot into a load-time
// error instead of silent result corruption.
//
// One format is written: the v4 stream of corpus.go, the sets' arena
// regions as they lie in memory. Set.WriteTo writes it with one set, and
// ReadSet reads it holding exactly one. ReadSet also reads the v3 set stream
// ("FESIA3") for files already written, a fixed little-endian stream that
// keeps offsets in place of the rank directory:
//
//	magic "FESIA3\x00\x00" (8 bytes)
//	config: width, segBits, stride (uint32 each), scale (float64), seed (uint64)
//	        (stride is written as 1 and otherwise ignored; see readConfig)
//	rep (uint32), base (uint32)
//	n (uint64), mBits (uint64)
//	header CRC32C (uint32, covering magic + everything above)
//	payload sections, each followed by its CRC32C (uint32):
//	  RepSegmented: bitmap words (mBits/64 × uint64), offsets (nseg+1 ×
//	                uint32), reordered (n × uint32); base is 0
//	  RepArray:     sorted elements (n × uint32); mBits and base are 0
//	  RepDense:     dense words (mBits/64 × uint64) covering value range
//	                [base, base+mBits)
//
// Its reader validates the offsets and derives the directory from them. The
// earlier FESIA1 and FESIA2 streams (segmented-only) fail as a bad magic.

var setMagicV3 = [8]byte{'F', 'E', 'S', 'I', 'A', '3', 0, 0}

// castagnoli is the CRC32C polynomial table — the checksum of iSCSI, ext4
// and most storage formats, with hardware support on modern CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter counts bytes and accumulates a running CRC32C over everything
// written through it. EmitCRC appends the current section digest (bypassing
// the accumulator) and resets it for the next section.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// emitCRC writes the running section checksum and resets it.
func (c *crcWriter) emitCRC() error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], c.crc)
	n, err := c.w.Write(b[:])
	c.n += int64(n)
	c.crc = 0
	return err
}

// crcReader accumulates a running CRC32C over everything read through it.
// checkCRC reads a stored section checksum (bypassing the accumulator),
// compares it against the running digest, and resets for the next section.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

func (c *crcReader) checkCRC(section string) error {
	computed := c.crc
	var b [4]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return fmt.Errorf("core: reading %s checksum: %w", section, noEOF(err))
	}
	stored := binary.LittleEndian.Uint32(b[:])
	c.crc = 0
	if stored != computed {
		return fmt.Errorf("core: %s checksum mismatch (stored %08x, computed %08x)",
			section, stored, computed)
	}
	return nil
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: mid-stream EOF always
// means truncation here, never a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteTo serializes the set as a v4 stream holding it alone (see
// WriteCorpus). It implements io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	n, err := writeSnapshot(w, []*Set{s}, bigEndianHost())
	statsOutcome(err, stats.CtrSnapshotWrites, stats.CtrSnapshotWriteErrors)
	return n, err
}

// maxReasonable bounds header-declared sizes: anything above it is treated
// as corruption rather than attempted.
const maxReasonable = 1 << 40

// readConfig reads and decodes the build configuration that opens every
// stream header (parseConfig).
func readConfig(r io.Reader) (Config, error) {
	var b [configBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Config{}, fmt.Errorf("core: reading header: %w", noEOF(err))
	}
	return parseConfig(b[:])
}

// configBytes is the size of a stream header's configuration.
const configBytes = 28

// parseConfig decodes and normalizes a stream header's build configuration:
// width, segBits, stride (uint32 each), scale (float64) and seed (uint64).
// The stride field names a sampled kernel table, which no query reads:
// writers record 1, and a valid stride (0 or 1, or 4 or 8 with AVX512) is
// accepted and otherwise ignored.
func parseConfig(b []byte) (Config, error) {
	le := binary.LittleEndian
	cfg, err := Config{
		Width:   simd.Width(le.Uint32(b[0:])),
		SegBits: int(le.Uint32(b[4:])),
		Scale:   math.Float64frombits(le.Uint64(b[12:])),
		Seed:    le.Uint64(b[20:]),
	}.normalize()
	if err != nil {
		return cfg, fmt.Errorf("core: invalid serialized config: %w", err)
	}
	if st := le.Uint32(b[8:]); st > 1 && (cfg.Width != simd.WidthAVX512 || st != 4 && st != 8) {
		return cfg, fmt.Errorf("core: invalid serialized config: kernel stride %d", st)
	}
	return cfg, nil
}

// appendConfig appends cfg as parseConfig decodes it, with stride 1.
func appendConfig(b []byte, cfg Config) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(cfg.Width))
	b = le.AppendUint32(b, uint32(cfg.SegBits))
	b = le.AppendUint32(b, 1) // kernel stride
	b = le.AppendUint64(b, math.Float64bits(cfg.Scale))
	return le.AppendUint64(b, cfg.Seed)
}

// setMeta is one set's header entry: the representation plus the quantities
// every array length derives from.
type setMeta struct {
	rep   Rep
	kept  bool // a v4 entry's flag: the segmented set keeps its offsets
	base  uint32
	n     int
	mBits uint64
}

// entryBytes is the size of one set's header entry.
const entryBytes = 24

// readSetMeta reads one v3 header entry into b (parseSetMeta). b is the
// caller's, so a corpus reuses one buffer.
func readSetMeta(r io.Reader, b *[entryBytes]byte) (setMeta, error) {
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return setMeta{}, fmt.Errorf("reading set header: %w", noEOF(err))
	}
	return parseSetMeta(b[:], false)
}

// parseSetMeta decodes one set's header entry — rep and base (uint32 each),
// n and mBits (uint64 each) — and applies the per-representation domain
// checks. In a v4 entry the rep field's second byte is the kept flag, 0 or
// 1, and 1 only for a segmented set; its upper two bytes are zero.
func parseSetMeta(b []byte, v4 bool) (setMeta, error) {
	le := binary.LittleEndian
	rep32, n64 := le.Uint32(b[0:]), le.Uint64(b[8:])
	kept := false
	if v4 {
		if flag := rep32 >> 8; flag > 1 || flag == 1 && Rep(rep32) != RepSegmented {
			return setMeta{}, fmt.Errorf("invalid entry flags %#x", flag)
		}
		kept, rep32 = rep32>>8 == 1, rep32&0xff
	}
	if rep32 >= uint32(numReps) {
		return setMeta{}, fmt.Errorf("invalid representation %d", rep32)
	}
	if n64 > maxReasonable {
		return setMeta{}, fmt.Errorf("implausible set size %d", n64)
	}
	m := setMeta{rep: Rep(rep32), kept: kept, base: le.Uint32(b[4:]), n: int(n64), mBits: le.Uint64(b[16:])}
	switch m.rep {
	case RepSegmented:
		if !hashutil.IsPow2(m.mBits) || m.mBits < 64 || m.mBits > maxReasonable {
			return m, fmt.Errorf("invalid bitmap size %d", m.mBits)
		}
		if m.base != 0 {
			return m, fmt.Errorf("segmented set with nonzero base %d", m.base)
		}
	case RepArray:
		if m.mBits != 0 || m.base != 0 {
			return m, fmt.Errorf("array set with bitmap fields (mBits=%d base=%d)", m.mBits, m.base)
		}
	case RepDense:
		if m.mBits == 0 || m.mBits%64 != 0 || m.mBits > 1<<32 {
			return m, fmt.Errorf("invalid dense span %d bits", m.mBits)
		}
		if m.base%64 != 0 || uint64(m.base)+m.mBits > 1<<32 {
			return m, fmt.Errorf("dense cover [%d, %d+%d) exceeds the u32 domain or is misaligned",
				m.base, m.base, m.mBits)
		}
		if n64 == 0 || n64 > m.mBits {
			return m, fmt.Errorf("dense set size %d inconsistent with %d-bit span", n64, m.mBits)
		}
	}
	return m, nil
}

// appendEntry appends s's v4 header entry.
func appendEntry(b []byte, s *Set) []byte {
	le := binary.LittleEndian
	rep := uint32(s.rep)
	if s.rep == RepSegmented && !s.hasDirectory() {
		rep |= 1 << 8 // kept
	}
	b = le.AppendUint32(b, rep)
	b = le.AppendUint32(b, s.base)
	b = le.AppendUint64(b, uint64(s.n))
	return le.AppendUint64(b, s.BitmapBits())
}

// ReadSet deserializes a Set written by WriteTo — a v4 stream holding one
// set — or a v3 set stream, validating the checksums, the header, and every
// structural invariant: a corrupted or truncated stream yields an error,
// never a panic or a silently wrong set.
func ReadSet(r io.Reader) (*Set, error) {
	s, err := readSet(r)
	statsOutcome(err, stats.CtrSnapshotReads, stats.CtrSnapshotReadErrors)
	return s, err
}

func readSet(r io.Reader) (*Set, error) {
	sr := newStreamReader(r)
	var magic [8]byte
	if err := sr.read(magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	switch magic {
	case corpusMagicV4:
		sets, err := readV4(sr, true, bigEndianHost())
		if err != nil {
			return nil, err
		}
		return sets[0], nil
	case setMagicV3:
		return readSetV3(&crcReader{r: bufio.NewReader(r), crc: sr.crc})
	}
	return nil, fmt.Errorf("core: bad magic %q (only %q and %q are read)", magic[:], corpusMagicV4[:], setMagicV3[:])
}

// readSetV3 reads the rest of a v3 set stream, past its magic.
func readSetV3(cr *crcReader) (*Set, error) {
	cfg, err := readConfig(cr)
	if err != nil {
		return nil, err
	}
	h, err := readSetMeta(cr, new([entryBytes]byte))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cr.checkCRC("header"); err != nil {
		return nil, err
	}
	// Each section is read in bounded chunks, so a forged header cannot
	// trigger a huge allocation before the (short) stream runs out, and its
	// checksum is verified before any payload byte is interpreted.
	names, sizes := []string{"elements"}, []uint64{4 * uint64(h.n)}
	switch h.rep {
	case RepDense:
		names, sizes = []string{"dense words"}, []uint64{h.mBits / 8}
	case RepSegmented:
		names = []string{"bitmap", "offsets", "elements"}
		sizes = []uint64{h.mBits / 8, 4 * (h.mBits/uint64(cfg.SegBits) + 1), 4 * uint64(h.n)}
	}
	var chunks [][]byte
	for i, name := range names {
		if chunks, err = readChunks(cr, sizes[i], chunks); err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", name, err)
		}
		if err := cr.checkCRC(name); err != nil {
			return nil, err
		}
	}
	slab, err := layout(cfg, []setMeta{h}, nil)
	if err != nil {
		return nil, err
	}
	sets, _, err := decode(slab, &chunkCursor{chunks: chunks})
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// validateShell checks every structural invariant of a deserialized
// segmented shell against off, the nseg+1 segment starts it was read with,
// filling in maxSeg as it walks: the offsets are monotone and bounded, every
// element hashes into the segment that stores it, each segment is strictly
// ascending, and the bitmap is exactly the set of the elements' hash bits.
// That last check runs one bitmap word at a time: the hash bits of the
// elements stored in the word's segments are ORed into an accumulator,
// which must equal the stored word. A stored bit with no element behind it
// (a stray bit) and an element whose bit is clear (a missing bit) both make
// the two differ. The walk is O(n + m/64), visits no empty segment and
// needs no scratch. It checks a v3 set and a v4 set that keeps its offsets;
// the caller then derives the set's bounds from off (index, keep).
func validateShell(s *Set, off []uint32) error {
	words, _, elems := s.region()
	n := s.n
	nseg := s.numSegments()
	mBits := s.mBits()

	// Validate the whole offset array before any element is read by it.
	if off[0] != 0 || off[nseg] != n {
		return fmt.Errorf("core: offset bounds corrupt (first=%d last=%d n=%d)", off[0], off[nseg], n)
	}
	for i := 0; i < nseg; i++ {
		if off[i] > off[i+1] || off[i+1] > n {
			return fmt.Errorf("core: offsets corrupt at segment %d", i)
		}
		s.maxSeg = max(s.maxSeg, off[i+1]-off[i])
	}
	h := s.build.hasher
	segBits := uint64(s.segBits())
	perWord := 64 / s.segBits()
	for w, stored := range words {
		var acc uint64
		for j := off[w*perWord]; j < off[(w+1)*perWord]; j++ {
			v := elems[j]
			p := h.Pos(v, mBits)
			seg := p / segBits
			if j < off[seg] || j >= off[seg+1] {
				return fmt.Errorf("core: element %d stored at index %d, outside segment %d it hashes to", v, j, seg)
			}
			if j > off[seg] && elems[j-1] >= v {
				return fmt.Errorf("core: segment %d not strictly ascending", seg)
			}
			acc |= 1 << (p % 64)
		}
		if acc != stored {
			return fmt.Errorf("core: bitmap word %d is %016x, its elements hash to %016x (stray or missing bits)",
				w, stored, acc)
		}
	}
	return nil
}

// walk validates a segmented set read from a v4 stream with its rank
// directory in one pass over its bitmap words, and sets maxSeg. Per word,
// in order: the directory's base equals the elements stored before the
// word; each element up to the next word's base (past the last word, up
// to n) hashes into the word, its segment is not below the previous
// element's, and within a segment the elements strictly ascend; the OR of
// the elements' bits equals the word; and the surplus entry is the one
// index derives: zero when the word stores as many elements as it has set
// bits (one compare), else derived from its elements (surplusOf). maxSeg is
// the longest run of one segment. It accepts exactly the shells
// validateShell accepts with the offsets the directory expands to, and
// index derives exactly their directory.
func (s *Set) walk() error {
	words, dir, elems := s.region()
	h := s.build.hasher
	mBits := s.mBits()
	shift := segShift(s)
	n := s.n
	count, run, maxSeg := uint32(0), uint32(0), uint32(0)
	prev := int64(-1) // the previous element's segment
	for w, word := range words {
		if dir[2*w] != count {
			return fmt.Errorf("core: rank directory says %d elements precede bitmap word %d, %d do", dir[2*w], w, count)
		}
		end := n
		if w+1 < len(words) {
			end = dir[2*w+2]
		}
		if end < count || end > n {
			return fmt.Errorf("core: rank directory corrupt at bitmap word %d (ends at %d of %d elements)", w, end, n)
		}
		var acc uint64
		for j := count; j < end; j++ {
			v := elems[j]
			p := h.Pos(v, mBits)
			if p>>6 != uint64(w) {
				return fmt.Errorf("core: element %d stored in bitmap word %d hashes to word %d", v, w, p>>6)
			}
			seg := int64(p >> shift)
			switch {
			case seg < prev:
				return fmt.Errorf("core: element %d of segment %d stored after segment %d", v, seg, prev)
			case seg == prev:
				if elems[j-1] >= v {
					return fmt.Errorf("core: segment %d not strictly ascending", seg)
				}
				run++
			default:
				prev, run = seg, 1
			}
			maxSeg = max(maxSeg, run)
			acc |= 1 << (p & 63)
		}
		if acc != word {
			return fmt.Errorf("core: bitmap word %d is %016x, its elements hash to %016x (stray or missing bits)",
				w, word, acc)
		}
		sur := uint32(0)
		if end-count != uint32(bits.OnesCount64(word)) {
			var ok bool
			if sur, ok = s.surplusOf(word, elems[count:end]); !ok {
				return fmt.Errorf("core: bitmap word %d's hash collisions overflow its rank directory entry", w)
			}
		}
		if dir[2*w+1] != sur {
			return fmt.Errorf("core: rank directory surplus of bitmap word %d is %08x, its elements give %08x", w, dir[2*w+1], sur)
		}
		count = end
	}
	s.maxSeg = maxSeg
	return nil
}

// surplusOf derives the surplus entry of a bitmap word from elems, the
// elements it stores, whose hash bits collide: it counts them per segment
// of the word and hands the segment starts to surplus, as index does with
// offsets.
func (s *Set) surplusOf(word uint64, elems []uint32) (uint32, bool) {
	var at [64/8 + 1]uint32 // the starts of at most 8 segments a word, and its end
	h, mBits, shift := s.build.hasher, s.mBits(), segShift(s)
	for _, v := range elems {
		at[1+h.Pos(v, mBits)&63>>shift]++
	}
	spw := 64 / s.segBits()
	for j := 1; j <= spw; j++ {
		at[j] += at[j-1]
	}
	return surplus(word, s.segBits(), at[:spw+1])
}

// checkKept validates a segmented set read from a v4 stream with the
// offsets off it keeps: its directory area is zero, its shell passes
// validateShell against off, and its collisions do overflow the directory
// (index fails), so that a set has one stream. The set then keeps off.
func (s *Set) checkKept(off []uint32) error {
	_, dir, _ := s.region()
	for _, d := range dir {
		if d != 0 {
			return fmt.Errorf("core: a set that keeps its offsets has a nonzero rank directory")
		}
	}
	if err := validateShell(s, off); err != nil {
		return err
	}
	if s.index(off) {
		return fmt.Errorf("core: a set keeps offsets its rank directory holds")
	}
	s.keep(off)
	return nil
}

// pad returns the uint32 that rounds an odd count of a segmented or array
// set's elements up to a whole word (0 for an even count): zero in every
// arena, so that a set has one stream.
func (s *Set) pad() uint32 {
	if s.n%2 == 0 || s.rep == RepDense {
		return 0
	}
	var skip uint // a segmented set's words and directory
	if s.rep == RepSegmented {
		skip = 16 << (s.logW & 31)
	}
	return (*[2 * partWords]uint32)(unsafe.Add(s.start(), skip))[: s.n+1 : s.n+1][s.n]
}

// validateArrayShell checks the single structural invariant of a
// deserialized array set: the elements are strictly ascending (which also
// rules out duplicates).
func validateArrayShell(s *Set) error {
	elems := s.elems()
	for i := 1; i < len(elems); i++ {
		if elems[i-1] >= elems[i] {
			return fmt.Errorf("core: array elements not strictly ascending at index %d", i)
		}
	}
	return nil
}

// validateDenseShell checks the structural invariants of a deserialized
// dense set: the word count matches the header's claimed element count, and
// the cover is canonical — the first and last words are non-empty, so every
// logically-equal set has exactly one dense encoding (denseLayout's minimal
// cover). The base/span domain checks already ran in parseSetMeta.
func validateDenseShell(s *Set) error {
	words := s.denseWords()
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	if total != int(s.n) {
		return fmt.Errorf("core: dense popcount %d does not match header n=%d", total, s.n)
	}
	if words[0] == 0 || words[len(words)-1] == 0 {
		return fmt.Errorf("core: dense cover not minimal (empty boundary word)")
	}
	return nil
}
