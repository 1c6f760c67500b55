package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"fesia/internal/hashutil"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Serialization of a Set, so the offline construction phase (Section VII-A:
// "the data structure of our approach is built offline") can be paid once
// and the structure shipped to query servers. Snapshots travel through
// object stores and disks the query servers do not control, so the stream is
// treated as untrusted: every section carries a CRC32C checksum and the
// reader re-validates every structural invariant, turning bit rot into a
// load-time error instead of silent result corruption.
//
// v3 ("FESIA3") records the representation per set — the first format aware
// of the hybrid layouts — as a fixed little-endian stream:
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
// Segment lengths come from the offsets; maxSeg is recomputed on load. The
// stream keeps the offsets, not the in-memory rank directory: the writer
// expands the directory into them and the reader derives it from them once
// they validate, so the in-memory layout may change without the stream
// changing. v3 is the only format written or read: the earlier FESIA1 and
// FESIA2 streams (segmented-only) fail as a bad magic.

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

// WriteTo serializes the set in the v3 checksummed format. It implements
// io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	n, err := s.writeTo(w)
	statsOutcome(err, stats.CtrSnapshotWrites, stats.CtrSnapshotWriteErrors)
	return n, err
}

func (s *Set) writeTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if err := writeSetBody(cw, s); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writeSetBody writes one set's v3 stream: representation-tagged header
// followed by the representation's payload sections, each checksummed.
func writeSetBody(cw *crcWriter, s *Set) error {
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if _, err := cw.Write(setMagicV3[:]); err != nil {
		return err
	}
	cfg := s.build.cfg
	hdr := []interface{}{
		uint32(cfg.Width), uint32(cfg.SegBits), uint32(1), // kernel stride
		math.Float64bits(cfg.Scale), cfg.Seed,
		uint32(s.rep), s.base,
		uint64(s.n), s.BitmapBits(),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return err
		}
	}
	if err := cw.emitCRC(); err != nil {
		return err
	}
	_, sections := s.sections(nil)
	for _, section := range sections {
		if err := write(section); err != nil {
			return err
		}
		if err := cw.emitCRC(); err != nil {
			return err
		}
	}
	return nil
}

// sections returns the set's payload sections in stream order, shared by
// both stream writers: a segmented set's bitmap words, its offsets (the
// directory expanded into off, grown as needed, which is returned) and its
// reordered elements; an array set's elements; a dense set's words.
func (s *Set) sections(off []uint32) ([]uint32, []interface{}) {
	switch s.rep {
	case RepArray:
		return off, []interface{}{s.elems()}
	case RepDense:
		return off, []interface{}{s.denseWords()}
	}
	words, _, elems := s.region()
	off = s.offsets(off)
	return off, []interface{}{words, off, elems}
}

// maxReasonable bounds header-declared sizes: anything above it is treated
// as corruption rather than attempted.
const maxReasonable = 1 << 40

// readConfig decodes and normalizes the build configuration that opens both
// stream headers: width, segBits, stride (uint32 each), scale (float64) and
// seed (uint64). The stride field names a sampled kernel table, which no
// query reads: writers record 1, and a valid stride (0 or 1, or 4 or 8 with
// AVX512) is accepted and otherwise ignored.
func readConfig(r io.Reader) (Config, error) {
	var b [28]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Config{}, fmt.Errorf("core: reading header: %w", noEOF(err))
	}
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

// setMeta is one set's header entry: the representation plus the quantities
// every array length derives from.
type setMeta struct {
	rep   Rep
	base  uint32
	n     int
	mBits uint64
}

// readSetMeta reads one set's header entry into b — rep and base (uint32
// each), n and mBits (uint64 each) — and applies the per-representation
// domain checks. b is the caller's, so a corpus reuses one buffer.
func readSetMeta(r io.Reader, b *[24]byte) (setMeta, error) {
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return setMeta{}, fmt.Errorf("reading set header: %w", noEOF(err))
	}
	le := binary.LittleEndian
	rep32, n64 := le.Uint32(b[0:]), le.Uint64(b[8:])
	if rep32 >= uint32(numReps) {
		return setMeta{}, fmt.Errorf("invalid representation %d", rep32)
	}
	if n64 > maxReasonable {
		return setMeta{}, fmt.Errorf("implausible set size %d", n64)
	}
	m := setMeta{rep: Rep(rep32), base: le.Uint32(b[4:]), n: int(n64), mBits: le.Uint64(b[16:])}
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

// ReadSet deserializes a Set written by WriteTo, validating the section
// checksums, the header, and every structural invariant — a corrupted or
// truncated stream yields an error, never a panic or a silently wrong set.
// Only the v3 format is read.
func ReadSet(r io.Reader) (*Set, error) {
	s, err := readSet(r)
	statsOutcome(err, stats.CtrSnapshotReads, stats.CtrSnapshotReadErrors)
	return s, err
}

func readSet(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", noEOF(err))
	}
	if magic != setMagicV3 {
		return nil, fmt.Errorf("core: bad magic %q (only %q is read)", magic[:], setMagicV3[:])
	}
	cr := &crcReader{r: br, crc: crc32.Update(0, castagnoli, magic[:])}
	cfg, err := readConfig(cr)
	if err != nil {
		return nil, err
	}
	h, err := readSetMeta(cr, new([24]byte))
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
	slab, err := layout(cfg, []setMeta{h})
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
// needs no scratch. Once every check holds, the set's segment bounds are
// indexed from off. It is shared by ReadSet and ReadCorpus.
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
	s.index(off)
	return nil
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
// cover). The base/span domain checks already ran in readSetMeta.
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
