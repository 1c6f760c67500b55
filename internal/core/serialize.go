package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"fesia/internal/bitmap"
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
// legacy v2 format ("FESIA2") is v3 minus the rep/base fields (segmented
// only), and v1 ("FESIA1") is v2 minus all checksums; ReadSet accepts all
// three, WriteTo emits v3.

var (
	setMagicV1 = [8]byte{'F', 'E', 'S', 'I', 'A', '1', 0, 0}
	setMagicV2 = [8]byte{'F', 'E', 'S', 'I', 'A', '2', 0, 0}
	setMagicV3 = [8]byte{'F', 'E', 'S', 'I', 'A', '3', 0, 0}
)

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
	var base uint32
	var mBits uint64
	switch s.rep {
	case RepSegmented:
		mBits = s.bm.Bits()
	case RepDense:
		base = s.base
		mBits = uint64(len(s.dense)) * 64
	}
	hdr := []interface{}{
		uint32(cfg.Width), uint32(cfg.SegBits), uint32(cfg.Stride),
		math.Float64bits(cfg.Scale), cfg.Seed,
		uint32(s.rep), base,
		uint64(s.n), mBits,
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return err
		}
	}
	if err := cw.emitCRC(); err != nil {
		return err
	}
	var sections []interface{}
	switch s.rep {
	case RepSegmented:
		sections = []interface{}{s.bm.Words(), s.offsets, s.reordered}
	case RepArray:
		sections = []interface{}{s.reordered}
	case RepDense:
		sections = []interface{}{s.dense}
	}
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

// writeSetBodyLegacy writes one segmented set's stream in the pre-hybrid
// layout — v2 with section checksums when withCRC is set, v1 otherwise. Kept
// so tests can produce the legacy streams the reader must keep accepting.
func writeSetBodyLegacy(cw *crcWriter, s *Set, withCRC bool) error {
	if s.rep != RepSegmented {
		return fmt.Errorf("core: legacy formats carry only segmented sets (got %v)", s.rep)
	}
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	magic := setMagicV1
	if withCRC {
		magic = setMagicV2
	}
	if _, err := cw.Write(magic[:]); err != nil {
		return err
	}
	cfg := s.build.cfg
	hdr := []interface{}{
		uint32(cfg.Width), uint32(cfg.SegBits), uint32(cfg.Stride),
		math.Float64bits(cfg.Scale), cfg.Seed,
		uint64(s.n), s.bm.Bits(),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return err
		}
	}
	if withCRC {
		if err := cw.emitCRC(); err != nil {
			return err
		}
	}
	for _, section := range []interface{}{s.bm.Words(), s.offsets, s.reordered} {
		if err := write(section); err != nil {
			return err
		}
		if withCRC {
			if err := cw.emitCRC(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSetV1 writes the legacy unchecksummed v1 stream, for the
// backward-compatibility tests.
func writeSetV1(w io.Writer, s *Set) (int64, error) {
	return writeSetLegacy(w, s, false)
}

// writeSetV2 writes the legacy checksummed v2 stream, for the
// backward-compatibility tests.
func writeSetV2(w io.Writer, s *Set) (int64, error) {
	return writeSetLegacy(w, s, true)
}

func writeSetLegacy(w io.Writer, s *Set, withCRC bool) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if err := writeSetBodyLegacy(cw, s, withCRC); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// readChunkElems bounds how many array elements are decoded per read, so a
// header demanding billions of elements fails at the first short chunk
// instead of allocating first.
const readChunkElems = 1 << 16

func readU64s(r io.Reader, count int) ([]uint64, error) {
	out := make([]uint64, 0, min(count, readChunkElems))
	for count > 0 {
		c := min(count, readChunkElems)
		chunk := make([]uint64, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}

func readU32s(r io.Reader, count int) ([]uint32, error) {
	out := make([]uint32, 0, min(count, readChunkElems))
	for count > 0 {
		c := min(count, readChunkElems)
		chunk := make([]uint32, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}

// maxReasonable bounds header-declared sizes: anything above it is treated
// as corruption rather than attempted.
const maxReasonable = 1 << 40

// setHeader is the decoded, validated post-magic header of one set stream.
// rep and base are always RepSegmented/0 for the legacy v1/v2 formats.
type setHeader struct {
	cfg   Config
	rep   Rep
	base  uint32
	n     int
	mBits uint64
}

// readSetHeader decodes and sanity-checks the post-magic header fields. v3
// streams carry two extra fields (rep, base) between the config and the
// sizes; the legacy formats are segmented-only.
func readSetHeader(r io.Reader, v3 bool) (h setHeader, err error) {
	var width, segBits, stride uint32
	var scaleBits, seed, n64, m64 uint64
	var rep32, base uint32
	fields := []interface{}{&width, &segBits, &stride, &scaleBits, &seed}
	if v3 {
		fields = append(fields, &rep32, &base)
	}
	fields = append(fields, &n64, &m64)
	for _, v := range fields {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return h, fmt.Errorf("core: reading header: %w", noEOF(err))
		}
	}
	cfg := Config{
		Width:   simd.Width(width),
		SegBits: int(segBits),
		Scale:   math.Float64frombits(scaleBits),
		Seed:    seed,
		Stride:  int(stride),
	}
	cfg, err = cfg.normalize()
	if err != nil {
		return h, fmt.Errorf("core: invalid serialized config: %w", err)
	}
	if n64 > maxReasonable {
		return h, fmt.Errorf("core: implausible set size %d", n64)
	}
	h = setHeader{cfg: cfg, rep: Rep(rep32), base: base, n: int(n64), mBits: m64}
	if rep32 >= uint32(numReps) {
		return h, fmt.Errorf("core: invalid representation %d", rep32)
	}
	switch h.rep {
	case RepSegmented:
		if !hashutil.IsPow2(m64) || m64 < 64 || m64 > maxReasonable {
			return h, fmt.Errorf("core: invalid bitmap size %d", m64)
		}
		if base != 0 {
			return h, fmt.Errorf("core: segmented set with nonzero base %d", base)
		}
	case RepArray:
		if m64 != 0 || base != 0 {
			return h, fmt.Errorf("core: array set with bitmap fields (mBits=%d base=%d)", m64, base)
		}
	case RepDense:
		if m64 == 0 || m64%64 != 0 || m64 > 1<<32 {
			return h, fmt.Errorf("core: invalid dense span %d bits", m64)
		}
		if base%64 != 0 || uint64(base)+m64 > 1<<32 {
			return h, fmt.Errorf("core: dense cover [%d, %d+%d) exceeds the u32 domain or is misaligned", base, base, m64)
		}
		if n64 == 0 || n64 > m64 {
			return h, fmt.Errorf("core: dense set size %d inconsistent with %d-bit span", n64, m64)
		}
	}
	return h, nil
}

// ReadSet deserializes a Set written by WriteTo, validating checksums
// (v2/v3), the header, and every structural invariant — a corrupted or
// truncated stream yields an error, never a panic or a silently wrong set.
// The v3 representation-tagged format, the legacy v2 checksummed format and
// the legacy v1 format are all accepted.
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
	var src io.Reader = br
	var cr *crcReader
	v3 := false
	switch magic {
	case setMagicV1:
		// Legacy stream: no checksums, structural validation only.
	case setMagicV2:
		cr = &crcReader{r: br, crc: crc32.Update(0, castagnoli, magic[:])}
		src = cr
	case setMagicV3:
		cr = &crcReader{r: br, crc: crc32.Update(0, castagnoli, magic[:])}
		src = cr
		v3 = true
	default:
		return nil, fmt.Errorf("core: bad magic %q", magic[:])
	}
	h, err := readSetHeader(src, v3)
	if err != nil {
		return nil, err
	}
	if cr != nil {
		if err := cr.checkCRC("header"); err != nil {
			return nil, err
		}
	}
	b := newBuildState(h.cfg)
	switch h.rep {
	case RepArray:
		elems, err := readU32s(src, h.n)
		if err != nil {
			return nil, fmt.Errorf("core: reading elements: %w", noEOF(err))
		}
		if cr != nil {
			if err := cr.checkCRC("elements"); err != nil {
				return nil, err
			}
		}
		s := newArrayShell(b, elems)
		if err := validateArrayShell(&s); err != nil {
			return nil, err
		}
		return &s, nil
	case RepDense:
		words, err := readU64s(src, int(h.mBits)/64)
		if err != nil {
			return nil, fmt.Errorf("core: reading dense words: %w", noEOF(err))
		}
		if cr != nil {
			if err := cr.checkCRC("dense words"); err != nil {
				return nil, err
			}
		}
		s := newDenseShell(b, words, h.base, h.n)
		if err := validateDenseShell(&s); err != nil {
			return nil, err
		}
		return &s, nil
	}
	nseg := int(h.mBits) / h.cfg.SegBits

	// Payload arrays are read in bounded chunks so a forged header cannot
	// trigger a huge allocation before the (short) stream runs out.
	words, err := readU64s(src, int(h.mBits)/64)
	if err != nil {
		return nil, fmt.Errorf("core: reading bitmap: %w", noEOF(err))
	}
	if cr != nil {
		if err := cr.checkCRC("bitmap"); err != nil {
			return nil, err
		}
	}
	offsets, err := readU32s(src, nseg+1)
	if err != nil {
		return nil, fmt.Errorf("core: reading offsets: %w", noEOF(err))
	}
	if cr != nil {
		if err := cr.checkCRC("offsets"); err != nil {
			return nil, err
		}
	}
	reordered, err := readU32s(src, h.n)
	if err != nil {
		return nil, fmt.Errorf("core: reading elements: %w", noEOF(err))
	}
	if cr != nil {
		if err := cr.checkCRC("elements"); err != nil {
			return nil, err
		}
	}
	s := newShell(b, words, offsets, reordered)
	if _, err := validateShell(&s, nil); err != nil {
		return nil, err
	}
	return &s, nil
}

// validateShell checks every structural invariant of a deserialized shell
// (offsets monotone and bounded, segments sorted, every element's hash bit
// set in its own segment, and — bit for bit — the bitmap derivable from the
// elements), filling in maxSeg as it walks. It is shared by ReadSet and
// ReadCorpus; pos is hash-position scratch, returned grown so a corpus load
// reuses it across sets.
func validateShell(s *Set, pos []uint64) ([]uint64, error) {
	n := s.n
	nseg := s.bm.NumSegments()
	mBits := s.bm.Bits()

	// Validate the whole offset array before any slicing, then walk the
	// segments it delimits.
	if s.offsets[0] != 0 || s.offsets[nseg] != uint32(n) {
		return pos, fmt.Errorf("core: offset bounds corrupt (first=%d last=%d n=%d)",
			s.offsets[0], s.offsets[nseg], n)
	}
	for i := 0; i < nseg; i++ {
		if s.offsets[i] > s.offsets[i+1] || s.offsets[i+1] > uint32(n) {
			return pos, fmt.Errorf("core: offsets corrupt at segment %d", i)
		}
	}
	for i := 0; i < nseg; i++ {
		lst := s.segment(i)
		s.maxSeg = max(s.maxSeg, len(lst))
		pos = pos[:0]
		for j, v := range lst {
			if j > 0 && lst[j-1] >= v {
				return pos, fmt.Errorf("core: segment %d not strictly ascending", i)
			}
			p := s.build.hasher.Pos(v, mBits)
			if s.bm.SegmentOf(p) != i {
				return pos, fmt.Errorf("core: element %d stored in segment %d, hashes to %d",
					v, i, s.bm.SegmentOf(p))
			}
			if !s.bm.Test(p) {
				return pos, fmt.Errorf("core: bitmap bit missing for element %d", v)
			}
			pos = append(pos, p)
		}
		// The reverse direction: every set bit of the segment must be backed
		// by at least one element hashing onto it. Element→bit alone lets a
		// flipped payload byte smuggle in stray set bits; comparing the
		// segment's popcount against its distinct element hash positions
		// rejects them.
		slices.Sort(pos)
		distinct := 0
		for j, p := range pos {
			if j == 0 || p != pos[j-1] {
				distinct++
			}
		}
		if pop := segmentPopcount(&s.bm, i); pop != distinct {
			return pos, fmt.Errorf("core: segment %d has %d set bits but %d element hash positions (stray or missing bits)",
				i, pop, distinct)
		}
	}
	return pos, nil
}

// validateArrayShell checks the single structural invariant of a
// deserialized array set: the elements are strictly ascending (which also
// rules out duplicates).
func validateArrayShell(s *Set) error {
	for i := 1; i < len(s.reordered); i++ {
		if s.reordered[i-1] >= s.reordered[i] {
			return fmt.Errorf("core: array elements not strictly ascending at index %d", i)
		}
	}
	return nil
}

// validateDenseShell checks the structural invariants of a deserialized
// dense set: the word count matches the header's claimed element count, and
// the cover is canonical — the first and last words are non-empty, so every
// logically-equal set has exactly one dense encoding (denseLayout's minimal
// cover). The base/span domain checks already ran in readSetHeader.
func validateDenseShell(s *Set) error {
	total := 0
	for _, w := range s.dense {
		total += bits.OnesCount64(w)
	}
	if total != s.n {
		return fmt.Errorf("core: dense popcount %d does not match header n=%d", total, s.n)
	}
	if s.dense[0] == 0 || s.dense[len(s.dense)-1] == 0 {
		return fmt.Errorf("core: dense cover not minimal (empty boundary word)")
	}
	return nil
}

// segmentPopcount counts the set bits of one segment. Segments never
// straddle words (segBits divides 64).
func segmentPopcount(bm *bitmap.Bitmap, seg int) int {
	segBits := bm.SegBits()
	bit := seg * segBits
	w := bm.Words()[bit/64]
	mask := uint64(1)<<uint(segBits) - 1
	return bits.OnesCount64(w >> uint(bit%64) & mask)
}
