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

	"fesia/internal/stats"
)

// Corpus snapshots: one stream persisting an entire BuildSets/BuildBatch
// corpus, so the offline builder ships a single artifact to query servers and
// the loader reconstructs the sets into ONE contiguous arena — the same
// memory layout BuildSets produces (per set: bitmap words and their rank
// directory, or dense words, then any word-aligned uint32 region),
// preserving the batch engine's locality.
//
// The v3 stream ("FESIAC3") is representation-aware, a fixed-layout
// little-endian format treated as untrusted:
//
//	magic "FESIAC3\x00" (8 bytes)
//	config: width, segBits, stride (uint32 each), scale (float64), seed (uint64)
//	        (stride is written as 1 and otherwise ignored; see readConfig)
//	numSets (uint64)
//	per set: rep (uint32), base (uint32), n (uint64), mBits (uint64)
//	per set payload:
//	  RepSegmented: bitmap words (mBits/64 × uint64),
//	                offsets (nseg+1 × uint32), reordered (n × uint32)
//	  RepArray:     sorted elements (n × uint32); mBits and base are 0
//	  RepDense:     dense words (mBits/64 × uint64) over [base, base+mBits)
//	whole-file CRC32C (uint32, covering magic through the last payload byte)
//
// Segment lengths come from the offsets, exactly as for ReadSet: the writer
// expands each set's rank directory into them, and the reader validates them
// and derives the directory. Any
// truncation or bit flip fails the trailing checksum or a
// structural check; a corrupt stream can never produce a loadable corpus.
// v3 is the only corpus format written or read: the earlier segmented-only
// FESIAC2 stream fails as a bad magic.

var corpusMagicV3 = [8]byte{'F', 'E', 'S', 'I', 'A', 'C', '3', 0}

// WriteCorpus serializes a whole corpus of sets into one stream with a
// trailing whole-file CRC32C. All sets must share one build configuration
// (the invariant BuildSets guarantees — the Rep knob aside, which may vary
// per set); sets from different builds cannot be mixed into one snapshot.
func WriteCorpus(w io.Writer, sets []*Set) (int64, error) {
	n, err := writeCorpus(w, sets)
	statsOutcome(err, stats.CtrSnapshotWrites, stats.CtrSnapshotWriteErrors)
	return n, err
}

func writeCorpus(w io.Writer, sets []*Set) (int64, error) {
	cfg, err := corpusConfig(sets)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if _, err := cw.Write(corpusMagicV3[:]); err != nil {
		return cw.n, err
	}
	hdr := []interface{}{
		uint32(cfg.Width), uint32(cfg.SegBits), uint32(1), // kernel stride
		math.Float64bits(cfg.Scale), cfg.Seed,
		uint64(len(sets)),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return cw.n, err
		}
	}
	for _, s := range sets {
		for _, v := range []interface{}{uint32(s.rep), s.base, uint64(s.n), s.BitmapBits()} {
			if err := write(v); err != nil {
				return cw.n, err
			}
		}
	}
	var off []uint32 // the directory expanded into offsets, reused across sets
	for _, s := range sets {
		var sections []interface{}
		off, sections = s.sections(off)
		for _, section := range sections {
			if err := write(section); err != nil {
				return cw.n, err
			}
		}
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

// payloadChunk is how many payload bytes ReadCorpus and ReadSet read at a
// time (readChunks).
const payloadChunk = 1 << 20

// ReadCorpus deserializes a corpus written by WriteCorpus. It verifies the
// trailing whole-file checksum before it interprets any payload byte, then
// copies every set's payload into one contiguous arena (the BuildSets
// layout) and re-validates each set's structural invariants. Corruption —
// truncation, bit flips, forged headers — yields an error, never a panic,
// hang, or silently wrong set. Only the v3 format is read.
func ReadCorpus(r io.Reader) ([]*Set, error) {
	sets, err := readCorpus(r)
	statsOutcome(err, stats.CtrSnapshotReads, stats.CtrSnapshotReadErrors)
	return sets, err
}

func readCorpus(r io.Reader) ([]*Set, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading corpus magic: %w", noEOF(err))
	}
	if magic != corpusMagicV3 {
		return nil, fmt.Errorf("core: bad corpus magic %q (only %q is read)", magic[:], corpusMagicV3[:])
	}
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
	hb := new([24]byte)
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
	slab, err := layout(cfg, metas)
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

// decode copies each set's payload from the cursor, in stream order, into
// the set's region of the arena layout allocated, and validates the set:
// the words and elements are copies, and a segmented set's offsets land in
// one scratch, are validated there, and become its rank directory or its
// kept offsets. ReadSet and ReadCorpus share it. On error it returns the
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
			err = validateShell(s, off)
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
