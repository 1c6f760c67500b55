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
// memory layout BuildSets produces (per set: bitmap or dense words, then any
// word-aligned uint32 region), preserving the batch engine's locality.
//
// The v3 stream ("FESIAC3") is representation-aware, a fixed-layout
// little-endian format treated as untrusted:
//
//	magic "FESIAC3\x00" (8 bytes)
//	config: width, segBits, stride (uint32 each), scale (float64), seed (uint64)
//	numSets (uint64)
//	per set: rep (uint32), base (uint32), n (uint64), mBits (uint64)
//	per set payload:
//	  RepSegmented: bitmap words (mBits/64 × uint64),
//	                offsets (nseg+1 × uint32), reordered (n × uint32)
//	  RepArray:     sorted elements (n × uint32); mBits and base are 0
//	  RepDense:     dense words (mBits/64 × uint64) over [base, base+mBits)
//	whole-file CRC32C (uint32, covering magic through the last payload byte)
//
// Segment lengths come from the offsets, exactly as for ReadSet. Any
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
		uint32(cfg.Width), uint32(cfg.SegBits), uint32(cfg.Stride),
		math.Float64bits(cfg.Scale), cfg.Seed,
		uint64(len(sets)),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return cw.n, err
		}
	}
	for _, s := range sets {
		var base uint32
		var mBits uint64
		switch s.rep {
		case RepSegmented:
			mBits = s.bm.Bits()
		case RepDense:
			base = s.base
			mBits = uint64(len(s.dense)) * 64
		}
		for _, v := range []interface{}{uint32(s.rep), base, uint64(s.n), mBits} {
			if err := write(v); err != nil {
				return cw.n, err
			}
		}
	}
	for _, s := range sets {
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

// payloadBytes returns how many stream bytes the set's payload occupies:
// its arena region (arenaWords) without the padding that word-aligns it.
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

// payloadChunk is how many payload bytes ReadCorpus reads at a time. Each
// chunk is allocated only when its bytes are due, so a forged header meets a
// short read after one chunk, never an allocation sized from its fields.
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
	// arena total is capped as it accumulates (every non-trivial entry
	// contributes arena words, and the meta records themselves bound the
	// loop via the stream length).
	metas := make([]setMeta, 0, min(numSets, 1<<16))
	var totalU64, payloadBytes uint64
	hb := new([24]byte)
	for i := uint64(0); i < numSets; i++ {
		m, err := readSetMeta(cr, hb)
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		totalU64 += arenaWords(m.rep, uint64(m.n), m.mBits, cfg.SegBits)
		payloadBytes += m.payloadBytes(cfg)
		if totalU64 > maxReasonable {
			return nil, fmt.Errorf("core: corpus arena implausibly large (%d words)", totalU64)
		}
		metas = append(metas, m)
	}

	// Pull the payload through the checksum one fixed-size chunk at a time.
	// Nothing is allocated ahead of the bytes that fill it, and the trailing
	// CRC is verified before any payload byte is interpreted.
	chunks := make([][]byte, 0, min(payloadBytes/payloadChunk+1, 1<<10))
	for remaining := payloadBytes; remaining > 0; {
		c := make([]byte, min(remaining, payloadChunk))
		if _, err := io.ReadFull(cr, c); err != nil {
			return nil, fmt.Errorf("core: reading corpus payload: %w", noEOF(err))
		}
		chunks = append(chunks, c)
		remaining -= uint64(len(c))
	}
	if err := cr.checkCRC("corpus"); err != nil {
		return nil, err
	}

	// Checksum verified, and the arena is no larger than the payload just
	// received. Each set's payload is its arena region less the alignment
	// padding, so loading a set is a copy; validation then walks it in
	// place.
	arena := make([]uint64, totalU64)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(arena))), 8*len(arena))
	payload := chunkCursor{chunks: chunks}
	b := newBuildState(cfg)
	slab := make([]Set, len(metas))
	sets := make([]*Set, len(metas))
	at := 0
	for i, m := range metas {
		payload.copyTo(raw[8*at : 8*at+int(m.payloadBytes(cfg))])
		s := &slab[i]
		var err error
		switch m.rep {
		case RepArray:
			var elems []uint32
			if m.n > 0 {
				elems = unsafe.Slice((*uint32)(unsafe.Pointer(&arena[at])), m.n)
				at += (m.n + 1) / 2
				fromLittleEndian32(elems)
			}
			*s = newArrayShell(b, elems)
			err = validateArrayShell(s)
		case RepDense:
			nwords := int(m.mBits) / 64
			words := arena[at : at+nwords : at+nwords]
			at += nwords
			fromLittleEndian64(words)
			*s = newDenseShell(b, words, m.base, m.n)
			err = validateDenseShell(s)
		default:
			var words []uint64
			var offsets, reordered []uint32
			words, offsets, reordered, at = segmentedRegion(arena, at, m.mBits, cfg.SegBits, m.n)
			fromLittleEndian64(words)
			fromLittleEndian32(offsets)
			fromLittleEndian32(reordered)
			*s = newShell(b, words, offsets, reordered)
			err = validateShell(s)
		}
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		sets[i] = s
	}
	return sets, nil
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

// bigEndianHost reports whether the host stores integers big-endian. The
// stream is little-endian, so on any other host a payload section is its
// arena region byte for byte.
func bigEndianHost() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) != 1 }

// fromLittleEndian64 turns words copied raw from the stream into host order:
// a no-op on little-endian hosts.
func fromLittleEndian64(ws []uint64) {
	if bigEndianHost() {
		for i, w := range ws {
			ws[i] = bits.ReverseBytes64(w)
		}
	}
}

// fromLittleEndian32 is fromLittleEndian64 for uint32s.
func fromLittleEndian32(vs []uint32) {
	if bigEndianHost() {
		for i, v := range vs {
			vs[i] = bits.ReverseBytes32(v)
		}
	}
}

// crc32cOf is a convenience for tests: the CRC32C of data.
func crc32cOf(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
