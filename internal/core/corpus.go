package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"unsafe"

	"fesia/internal/stats"
)

// Corpus snapshots: one stream persisting an entire BuildSets/BuildBatch
// corpus, so the offline builder ships a single artifact to query servers
// and the loader reads it into ONE contiguous arena, the layout BuildSets
// produces, preserving the batch engine's locality.
//
// The v4 stream ("FESIAC4") is that arena as it lies in memory, a
// little-endian stream treated as untrusted:
//
//	magic "FESIAC4\x00" (8 bytes)
//	config: width, segBits, stride (uint32 each), scale (float64), seed (uint64)
//	        (stride is written as 1 and otherwise ignored; see parseConfig)
//	numSets (uint64)
//	per set, a 24-byte entry: rep (uint8), kept (uint8: 1 for a segmented
//	        set that keeps its offsets), 0 (uint16), base (uint32),
//	        n (uint64), mBits (uint64)
//	per set, in entry order, its arena region (arenaWords × 8 bytes):
//	  RepSegmented: bitmap words (mBits/64 × uint64), their rank directory
//	                (2 × uint32 per word, zero when kept), reordered
//	                elements (n × uint32)
//	  RepArray:     sorted elements (n × uint32); mBits and base are 0
//	  RepDense:     dense words (mBits/64 × uint64) over [base, base+mBits)
//	  an odd count of uint32s ends in one zero uint32, the pad to a word
//	per set that keeps its offsets, in entry order: nseg+1 × uint32
//	CRC32C (uint32, covering magic through the last offset)
//
// The writer copies each set's region from its own arena, so a corpus may
// mix builds of one configuration. The image is canonical: a set has one
// stream, so its pad and a kept set's directory area are zero, and a set
// keeps its offsets exactly when its collisions overflow the directory.
// The reader reads the regions straight into the arena under the running
// checksum, checks the checksum before it interprets any payload byte, and
// then validates each set in one walk (Set.walk), rejecting any stream that
// is not the canonical image of valid sets; the walk re-derives maxSeg.
//
// The v3 stream ("FESIAC3") stays readable for files already written. It
// carries each segmented set's offsets in place of its rank directory:
//
//	magic "FESIAC3\x00" (8 bytes)
//	config, as v4
//	numSets (uint64)
//	per set: rep (uint32), base (uint32), n (uint64), mBits (uint64)
//	per set payload:
//	  RepSegmented: bitmap words (mBits/64 × uint64),
//	                offsets (nseg+1 × uint32), reordered (n × uint32)
//	  RepArray:     sorted elements (n × uint32); mBits and base are 0
//	  RepDense:     dense words (mBits/64 × uint64) over [base, base+mBits)
//	whole-file CRC32C (uint32, covering magic through the last payload byte)
//
// Its reader validates the offsets and derives the directory from them. On
// either format, any truncation or bit flip fails the checksum or a
// structural check; a corrupt stream can never produce a loadable corpus.
// The earlier segmented-only FESIAC2 stream fails as a bad magic.

var (
	corpusMagicV4 = [8]byte{'F', 'E', 'S', 'I', 'A', 'C', '4', 0}
	corpusMagicV3 = [8]byte{'F', 'E', 'S', 'I', 'A', 'C', '3', 0}
)

// WriteCorpus serializes a whole corpus of sets into one v4 stream. All
// sets must share one build configuration (the invariant BuildSets
// guarantees — the Rep knob aside, which may vary per set).
func WriteCorpus(w io.Writer, sets []*Set) (int64, error) {
	n, err := writeSnapshot(w, sets, bigEndianHost())
	statsOutcome(err, stats.CtrSnapshotWrites, stats.CtrSnapshotWriteErrors)
	return n, err
}

// writeSnapshot writes sets as one v4 stream. swap reverses the bytes of
// each value of the regions on the way out (swapRegion), as a big-endian
// host must: the stream is little-endian. The other fields are encoded
// with encoding/binary on any host.
func writeSnapshot(w io.Writer, sets []*Set, swap bool) (int64, error) {
	cfg, err := corpusConfig(sets)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	b := append(make([]byte, 0, 64<<10), corpusMagicV4[:]...)
	b = appendConfig(b, cfg)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(sets)))
	// flush writes b once it holds a block, or at the end of a section.
	flush := func(all bool) error {
		if !all && len(b) < cap(b)-entryBytes {
			return nil
		}
		_, err := cw.Write(b)
		b = b[:0]
		return err
	}
	for _, s := range sets {
		b = appendEntry(b, s)
		if err := flush(false); err != nil {
			return cw.n, err
		}
	}
	if err := flush(true); err != nil {
		return cw.n, err
	}
	var scratch []uint64 // a region's bytes swapped
	for _, s := range sets {
		ws := s.regionWords()
		if swap {
			scratch = append(scratch[:0], ws...)
			swapRegion(scratch, s.swapSplit())
			ws = scratch
		}
		if _, err := cw.Write(wordBytes(ws)); err != nil {
			return cw.n, err
		}
	}
	for _, s := range sets {
		if s.rep != RepSegmented || s.hasDirectory() {
			continue
		}
		for _, o := range s.kept() {
			b = binary.LittleEndian.AppendUint32(b, o)
			if err := flush(false); err != nil {
				return cw.n, err
			}
		}
	}
	if err := flush(true); err != nil {
		return cw.n, err
	}
	if err := cw.emitCRC(); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// corpusConfig returns the shared configuration of the sets, or an error if
// they disagree (or there are none to infer from — an empty corpus snapshots
// the default configuration). The Rep knob is normalized out of the
// comparison: it is a build-time selector, not a compatibility parameter,
// and a corpus may legitimately hold sets built with different forced
// representations.
func corpusConfig(sets []*Set) (Config, error) {
	if len(sets) == 0 {
		return DefaultConfig().normalize()
	}
	cfg := sets[0].build.cfg
	cfg.Rep = RepSegmented
	for i, s := range sets[1:] {
		c := s.build.cfg
		c.Rep = RepSegmented
		if c != cfg {
			return cfg, fmt.Errorf("core: corpus sets disagree on build config (set 0 %+v, set %d %+v)",
				cfg, i+1, c)
		}
	}
	return cfg, nil
}

// ReadCorpus deserializes a corpus written by WriteCorpus, or a v3 corpus
// stream. It verifies the checksum before it interprets any payload byte and
// re-validates each set's structural invariants, reading the sets into one
// contiguous arena (the BuildSets layout). Corruption — truncation, bit
// flips, forged headers — yields an error, never a panic, hang, or silently
// wrong set.
func ReadCorpus(r io.Reader) ([]*Set, error) {
	sets, err := readCorpus(r)
	statsOutcome(err, stats.CtrSnapshotReads, stats.CtrSnapshotReadErrors)
	return sets, err
}

func readCorpus(r io.Reader) ([]*Set, error) {
	sr := newStreamReader(r)
	var magic [8]byte
	if err := sr.read(magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading corpus magic: %w", err)
	}
	switch magic {
	case corpusMagicV4:
		return readV4(sr, false, bigEndianHost())
	case corpusMagicV3:
		return readCorpusV3(&crcReader{r: bufio.NewReader(r), crc: sr.crc})
	}
	return nil, fmt.Errorf("core: bad corpus magic %q (only %q and %q are read)", magic[:], corpusMagicV4[:], corpusMagicV3[:])
}

// streamReader reads a v4 stream under its running CRC32C, straight from
// the caller's reader. left is how many bytes the reader holds past those
// read, when it can tell (an io.Seeker such as *os.File or *bytes.Reader),
// and -1 when it cannot.
type streamReader struct {
	r    io.Reader
	crc  uint32
	left int64
}

func newStreamReader(r io.Reader) *streamReader {
	sr := &streamReader{r: r, left: -1}
	if sk, ok := r.(io.Seeker); ok {
		if cur, err := sk.Seek(0, io.SeekCurrent); err == nil {
			if end, err := sk.Seek(0, io.SeekEnd); err == nil {
				if _, err := sk.Seek(cur, io.SeekStart); err == nil && end >= cur {
					sr.left = end - cur
				}
			}
		}
	}
	return sr
}

// read fills p from the stream and adds it to the checksum.
func (sr *streamReader) read(p []byte) error {
	if _, err := io.ReadFull(sr.r, p); err != nil {
		return noEOF(err)
	}
	sr.crc = crc32.Update(sr.crc, castagnoli, p)
	if sr.left >= 0 {
		sr.left -= int64(len(p))
	}
	return nil
}

// holds reports whether the stream may hold n more bytes: false only when
// the reader tells how many remain and they are fewer.
func (sr *streamReader) holds(n uint64) bool {
	return sr.left < 0 || n <= uint64(sr.left)
}

// readWords reads the stream's next nbytes into the byte view of a fresh
// word slice, (nbytes+7)/8 words long plus extra, and returns the slice.
// When the reader tells how many bytes remain (the caller has checked they
// suffice) the slice is allocated once. Otherwise it starts at payloadChunk
// bytes and doubles as bytes arrive, and once they have all arrived, to its
// full length, so a stream shorter than its header declares fails having
// allocated about twice what it delivered. Bytes are read payloadChunk at a
// time, each summed while it is in cache.
func (sr *streamReader) readWords(nbytes, extra uint64) ([]uint64, error) {
	nw := (nbytes+7)/8 + extra
	size := nw
	if sr.left < 0 {
		size = min(nw, payloadChunk/8)
	}
	ws := make([]uint64, size)
	for got := uint64(0); got < nbytes || uint64(len(ws)) < nw; {
		if got == 8*uint64(len(ws)) || got == nbytes {
			grown := make([]uint64, min(2*uint64(len(ws)), nw))
			copy(grown, ws)
			ws = grown
			continue
		}
		k := min(nbytes, 8*uint64(len(ws)), got+payloadChunk)
		if err := sr.read(wordBytes(ws)[got:k]); err != nil {
			return nil, err
		}
		got = k
	}
	return ws, nil
}

// checkCRC reads the stream's stored checksum and compares it with the
// running one.
func (sr *streamReader) checkCRC() error {
	var b [4]byte
	if _, err := io.ReadFull(sr.r, b[:]); err != nil {
		return fmt.Errorf("core: reading corpus checksum: %w", noEOF(err))
	}
	if stored := binary.LittleEndian.Uint32(b[:]); stored != sr.crc {
		return fmt.Errorf("core: corpus checksum mismatch (stored %08x, computed %08x)", stored, sr.crc)
	}
	return nil
}

// entryBlock is how many set entries readV4 reads at a time.
const entryBlock = 4096

// readV4 reads the rest of a v4 stream, past its magic: the header and the
// entries, decoded a block at a time with their domain checks while the
// arena's size is summed (checkArena); then the regions straight into the
// arena and any kept offsets, under the running checksum; then, the
// checksum passed, one validation of each set. one requires the stream to
// hold one set (ReadSet). swap reverses the bytes of each value of the
// regions after the read (swapRegion), as a big-endian host must.
func readV4(sr *streamReader, one, swap bool) ([]*Set, error) {
	var hb [configBytes + 8]byte
	if err := sr.read(hb[:]); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	cfg, err := parseConfig(hb[:configBytes])
	if err != nil {
		return nil, err
	}
	numSets := binary.LittleEndian.Uint64(hb[configBytes:])
	if one && numSets != 1 {
		return nil, fmt.Errorf("core: set stream holds %d sets, want 1", numSets)
	}
	if numSets > maxReasonable || !sr.holds(numSets*entryBytes) {
		return nil, fmt.Errorf("core: corpus header declares %d sets, more entries than the stream holds", numSets)
	}
	// Without the stream's length, a forged numSets meets a short read
	// before the entries it declares are allocated.
	size := numSets
	if sr.left < 0 {
		size = min(numSets, 1<<16)
	}
	metas := make([]setMeta, 0, size)
	block := make([]byte, entryBytes*min(numSets, entryBlock))
	var words, noffs uint64 // the arena's words, the kept offsets
	for i := uint64(0); i < numSets; i++ {
		k := i % entryBlock
		if k == 0 {
			if err := sr.read(block[:entryBytes*min(numSets-i, entryBlock)]); err != nil {
				return nil, fmt.Errorf("core: reading set entries: %w", err)
			}
		}
		m, err := parseSetMeta(block[entryBytes*k:], true)
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		words += arenaWords(m.rep, uint64(m.n), m.mBits)
		if err := checkArena(words); err != nil {
			return nil, err
		}
		if m.kept {
			noffs += m.mBits/uint64(cfg.SegBits) + 1
		}
		metas = append(metas, m)
	}
	if !sr.holds(8*words + 4*noffs + 4) {
		return nil, fmt.Errorf("core: corpus entries declare %d payload bytes, more than the stream's %d",
			8*words+4*noffs+4, sr.left)
	}
	arena, err := sr.readWords(8*words, 1) // and the guard word
	if err != nil {
		return nil, fmt.Errorf("core: reading corpus arena: %w", err)
	}
	var offs []uint32
	if noffs > 0 {
		ws, err := sr.readWords(4*noffs, 0)
		if err != nil {
			return nil, fmt.Errorf("core: reading kept offsets: %w", err)
		}
		// Decoded in place: unlike a region, the offsets are not an image.
		b := wordBytes(ws)
		offs = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ws))), noffs)
		for i := range offs {
			offs[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
	if err := sr.checkCRC(); err != nil {
		return nil, err
	}

	slab, err := layout(cfg, metas, arena)
	if err != nil {
		return nil, err
	}
	if swap {
		for i := range slab {
			swapRegion(slab[i].regionWords(), slab[i].swapSplit())
		}
	}
	sets := make([]*Set, len(slab))
	for i := range slab {
		s := &slab[i]
		switch {
		case s.rep == RepArray:
			err = validateArrayShell(s)
		case s.rep == RepDense:
			err = validateDenseShell(s)
		case metas[i].kept:
			k := s.numSegments() + 1
			err = s.checkKept(offs[:k:k])
			offs = offs[k:]
		default:
			err = s.walk()
		}
		if err == nil && s.pad() != 0 {
			err = fmt.Errorf("core: nonzero pad after the last element")
		}
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		sets[i] = s
	}
	return sets, nil
}

// regionWords returns the set's region of its build's arena.
func (s *Set) regionWords() []uint64 {
	return s.build.arena[s.at : uint64(s.at)+arenaWords(s.rep, uint64(s.n), s.BitmapBits())]
}

// swapSplit is how many of the set's region words hold 64-bit values (a
// segmented set's bitmap words, a dense set's words); the rest hold pairs
// of uint32s.
func (s *Set) swapSplit() int {
	switch s.rep {
	case RepArray:
		return 0
	case RepDense:
		return int(s.aux)
	}
	return s.nwords()
}

// swapRegion reverses the bytes of each value of a region: each of ws's
// first split words, and each uint32 of the rest. A big-endian host runs
// it over a region after a v4 read and over a copy before a write.
func swapRegion(ws []uint64, split int) {
	for i, w := range ws[:split] {
		ws[i] = bits.ReverseBytes64(w)
	}
	for i, w := range ws[split:] {
		ws[split+i] = bits.RotateLeft64(bits.ReverseBytes64(w), 32)
	}
}

// wordBytes returns the byte view of ws.
func wordBytes(ws []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), 8*len(ws))
}

// payloadBytes returns how many stream bytes the set's payload occupies.
func (m setMeta) payloadBytes(cfg Config) uint64 {
	switch m.rep {
	case RepArray:
		return uint64(m.n) * 4
	case RepDense:
		return m.mBits / 8
	}
	nseg := m.mBits / uint64(cfg.SegBits)
	return m.mBits/8 + ((nseg+1)+uint64(m.n))*4 // words + offsets + reordered
}

// payloadChunk is how many payload bytes a read takes at a time: a v3
// read's chunks (readChunks), and a v4 read's first allocation when the
// stream's length is unknown and its reads (readWords).
const payloadChunk = 1 << 20

// readCorpusV3 reads the rest of a v3 corpus stream, past its magic.
func readCorpusV3(cr *crcReader) ([]*Set, error) {
	cfg, err := readConfig(cr)
	if err != nil {
		return nil, err
	}
	var nb [8]byte
	if _, err := io.ReadFull(cr, nb[:]); err != nil {
		return nil, fmt.Errorf("core: reading corpus header: %w", noEOF(err))
	}
	numSets := binary.LittleEndian.Uint64(nb[:])

	// Per-set headers, read incrementally so a forged numSets fails at the
	// first short read instead of provoking a huge allocation; the running
	// arena total is checked as it accumulates (checkArena; every
	// non-trivial entry contributes arena words, and the meta records
	// themselves bound the loop via the stream length).
	metas := make([]setMeta, 0, min(numSets, 1<<16))
	var totalU64, payloadBytes uint64
	hb := new([entryBytes]byte)
	for i := uint64(0); i < numSets; i++ {
		m, err := readSetMeta(cr, hb)
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		totalU64 += arenaWords(m.rep, uint64(m.n), m.mBits)
		payloadBytes += m.payloadBytes(cfg)
		if err := checkArena(totalU64); err != nil {
			return nil, err
		}
		metas = append(metas, m)
	}

	// Pull the payload through the checksum one fixed-size chunk at a time.
	// Nothing is allocated ahead of the bytes that fill it, and the trailing
	// CRC is verified before any payload byte is interpreted.
	chunks, err := readChunks(cr, payloadBytes, make([][]byte, 0, min(payloadBytes/payloadChunk+1, 1<<10)))
	if err != nil {
		return nil, fmt.Errorf("core: reading corpus payload: %w", err)
	}
	if err := cr.checkCRC("corpus"); err != nil {
		return nil, err
	}

	// Checksum verified, and the arena is no larger than the payload just
	// received.
	slab, err := layout(cfg, metas, nil)
	if err != nil {
		return nil, err
	}
	sets, i, err := decode(slab, &chunkCursor{chunks: chunks})
	if err != nil {
		return nil, fmt.Errorf("core: set %d: %w", i, err)
	}
	return sets, nil
}

// readChunks reads n bytes from r into chunks of at most payloadChunk bytes,
// appended to chunks. Each chunk is allocated only when its bytes are due,
// so a forged header meets a short read after one chunk, never an
// allocation sized from its fields.
func readChunks(r io.Reader, n uint64, chunks [][]byte) ([][]byte, error) {
	for n > 0 {
		c := make([]byte, min(n, payloadChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, noEOF(err)
		}
		chunks = append(chunks, c)
		n -= uint64(len(c))
	}
	return chunks, nil
}

// decode copies each v3 set's payload from the cursor, in stream order,
// into the set's region of the arena layout allocated, and validates the
// set: the words and elements are copies, and a segmented set's offsets
// land in one scratch, are validated there, and become its rank directory
// or its kept offsets. Both v3 readers share it. On error it returns the
// index of the set that failed.
func decode(slab []Set, payload *chunkCursor) ([]*Set, int, error) {
	var off []uint32 // no larger than the largest offsets section received
	sets := make([]*Set, len(slab))
	for i := range slab {
		s := &slab[i]
		var err error
		switch s.rep {
		case RepArray:
			payload.read32(s.elems())
			err = validateArrayShell(s)
		case RepDense:
			payload.read64(s.denseWords())
			err = validateDenseShell(s)
		default:
			words, _, elems := s.region()
			off = growU32(off, s.numSegments()+1)
			payload.read64(words)
			payload.read32(off)
			payload.read32(elems)
			if err = validateShell(s, off); err == nil && !s.index(off) {
				s.keep(slices.Clone(off))
			}
		}
		if err != nil {
			return nil, i, err
		}
		sets[i] = s
	}
	return sets, 0, nil
}

// chunkCursor hands out the received payload chunks in stream order.
type chunkCursor struct {
	chunks [][]byte
}

// copyTo fills dst with the next len(dst) payload bytes.
func (c *chunkCursor) copyTo(dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, c.chunks[0])
		dst = dst[n:]
		if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
			c.chunks = c.chunks[1:]
		}
	}
}

// read64 fills ws with the next little-endian uint64s of the payload.
func (c *chunkCursor) read64(ws []uint64) {
	c.copyTo(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), 8*len(ws)))
	if bigEndianHost() {
		for i, w := range ws {
			ws[i] = bits.ReverseBytes64(w)
		}
	}
}

// read32 fills vs with the next little-endian uint32s of the payload.
func (c *chunkCursor) read32(vs []uint32) {
	c.copyTo(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs)))
	if bigEndianHost() {
		for i, v := range vs {
			vs[i] = bits.ReverseBytes32(v)
		}
	}
}

// bigEndianHost reports whether the host stores integers big-endian. The
// stream is little-endian, so on any other host a payload section's bytes
// are its values' bytes.
func bigEndianHost() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) != 1 }

// crc32cOf is a convenience for tests: the CRC32C of data.
func crc32cOf(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
