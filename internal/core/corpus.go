package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"fesia/internal/hashutil"
	"fesia/internal/simd"
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
// The legacy v2 format ("FESIAC2") — segmented-only, no rep/base meta fields
// — is still accepted by ReadCorpus; WriteCorpus emits v3.

var (
	corpusMagicV2 = [8]byte{'F', 'E', 'S', 'I', 'A', 'C', '2', 0}
	corpusMagicV3 = [8]byte{'F', 'E', 'S', 'I', 'A', 'C', '3', 0}
)

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

// writeCorpusV2 writes the legacy segmented-only corpus stream, for the
// backward-compatibility tests.
func writeCorpusV2(w io.Writer, sets []*Set) (int64, error) {
	cfg, err := corpusConfig(sets)
	if err != nil {
		return 0, err
	}
	for i, s := range sets {
		if s.rep != RepSegmented {
			return 0, fmt.Errorf("core: legacy corpus carries only segmented sets (set %d is %v)", i, s.rep)
		}
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if _, err := cw.Write(corpusMagicV2[:]); err != nil {
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
		if err := write(uint64(s.n)); err != nil {
			return cw.n, err
		}
		if err := write(s.bm.Bits()); err != nil {
			return cw.n, err
		}
	}
	for _, s := range sets {
		for _, section := range []interface{}{s.bm.Words(), s.offsets, s.reordered} {
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

// corpusSetMeta is one set's header entry: the representation plus the
// quantities every array length derives from.
type corpusSetMeta struct {
	rep   Rep
	base  uint32
	n     int
	mBits uint64
}

// payloadBytes returns how many stream bytes the set's payload occupies.
func (m corpusSetMeta) payloadBytes(cfg Config) uint64 {
	switch m.rep {
	case RepArray:
		return uint64(m.n) * 4
	case RepDense:
		return m.mBits / 8
	}
	nseg := m.mBits / uint64(cfg.SegBits)
	return m.mBits/8 + ((nseg+1)+uint64(m.n))*4 // words + offsets + reordered
}

// validate applies the same per-representation domain checks readSetHeader
// performs for single-set streams.
func (m corpusSetMeta) validate() error {
	if uint64(m.n) > maxReasonable {
		return fmt.Errorf("implausible set size %d", m.n)
	}
	switch m.rep {
	case RepSegmented:
		if !hashutil.IsPow2(m.mBits) || m.mBits < 64 || m.mBits > maxReasonable {
			return fmt.Errorf("invalid bitmap size %d", m.mBits)
		}
		if m.base != 0 {
			return fmt.Errorf("segmented set with nonzero base %d", m.base)
		}
	case RepArray:
		if m.mBits != 0 || m.base != 0 {
			return fmt.Errorf("array set with bitmap fields (mBits=%d base=%d)", m.mBits, m.base)
		}
	case RepDense:
		if m.mBits == 0 || m.mBits%64 != 0 || m.mBits > 1<<32 {
			return fmt.Errorf("invalid dense span %d bits", m.mBits)
		}
		if m.base%64 != 0 || uint64(m.base)+m.mBits > 1<<32 {
			return fmt.Errorf("dense cover [%d, %d+%d) exceeds the u32 domain or is misaligned",
				m.base, m.base, m.mBits)
		}
		if m.n == 0 || uint64(m.n) > m.mBits {
			return fmt.Errorf("dense set size %d inconsistent with %d-bit span", m.n, m.mBits)
		}
	default:
		return fmt.Errorf("invalid representation %d", m.rep)
	}
	return nil
}

// ReadCorpus deserializes a corpus written by WriteCorpus, verifying the
// trailing whole-file checksum before any structural interpretation, then
// rebuilding every set into one contiguous arena (the BuildSets layout) and
// re-validating each set's structural invariants. Corruption — truncation,
// bit flips, forged headers — yields an error, never a panic, hang, or
// silently wrong set. Both the representation-aware v3 format and the legacy
// segmented-only v2 format are accepted.
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
	v3 := false
	switch magic {
	case corpusMagicV2:
		// Legacy stream: every set segmented, no rep/base meta fields.
	case corpusMagicV3:
		v3 = true
	default:
		return nil, fmt.Errorf("core: bad corpus magic %q", magic[:])
	}
	var width, segBits, stride uint32
	var scaleBits, seed, numSets uint64
	for _, v := range []interface{}{&width, &segBits, &stride, &scaleBits, &seed, &numSets} {
		if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("core: reading corpus header: %w", noEOF(err))
		}
	}
	cfg := Config{
		Width:   simd.Width(width),
		SegBits: int(segBits),
		Scale:   math.Float64frombits(scaleBits),
		Seed:    seed,
		Stride:  int(stride),
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, fmt.Errorf("core: invalid corpus config: %w", err)
	}

	// Per-set headers, read incrementally so a forged numSets fails at the
	// first short read instead of provoking a huge allocation; the running
	// arena total is capped as it accumulates (every non-trivial entry
	// contributes arena words, and the meta records themselves bound the
	// loop via the stream length).
	metas := make([]corpusSetMeta, 0, min(int(min(numSets, 1<<16)), 1<<16))
	var totalU64, payloadBytes uint64
	var hb [24]byte
	hdr := hb[:16] // v2: n, mBits
	if v3 {
		hdr = hb[:] // v3: rep, base, n, mBits
	}
	le := binary.LittleEndian
	for i := uint64(0); i < numSets; i++ {
		if _, err := io.ReadFull(cr, hdr); err != nil {
			return nil, fmt.Errorf("core: reading set %d header: %w", i, noEOF(err))
		}
		m := corpusSetMeta{rep: RepSegmented}
		if v3 {
			rep32 := le.Uint32(hdr)
			if rep32 >= uint32(numReps) {
				return nil, fmt.Errorf("core: set %d: invalid representation %d", i, rep32)
			}
			m.rep, m.base = Rep(rep32), le.Uint32(hdr[4:])
		}
		m.n = int(le.Uint64(hdr[len(hdr)-16:]))
		m.mBits = le.Uint64(hdr[len(hdr)-8:])
		if err := m.validate(); err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		totalU64 += arenaWords(m.rep, uint64(m.n), m.mBits, cfg.SegBits)
		payloadBytes += m.payloadBytes(cfg)
		if totalU64 > maxReasonable {
			return nil, fmt.Errorf("core: corpus arena implausibly large (%d words)", totalU64)
		}
		metas = append(metas, m)
	}

	// Pull the payload through the checksum in bounded chunks: the buffer
	// grows only as data actually arrives, so a forged header meets a short
	// read, not an allocation. The trailing whole-file CRC is verified before
	// any byte of the payload is interpreted.
	payload := make([]byte, 0, min(payloadBytes, 1<<20))
	for remaining := payloadBytes; remaining > 0; {
		c := int(min(remaining, 1<<16))
		payload = slices.Grow(payload, c)
		if _, err := io.ReadFull(cr, payload[len(payload):len(payload)+c]); err != nil {
			return nil, fmt.Errorf("core: reading corpus payload: %w", noEOF(err))
		}
		payload = payload[:len(payload)+c]
		remaining -= uint64(c)
	}
	if err := cr.checkCRC("corpus"); err != nil {
		return nil, err
	}

	// Checksum verified: rebuild the arena, decoding each section straight
	// from the payload. The allocation is backed by an actually-received
	// stream of the same magnitude, whose length the metas fix exactly.
	arena := make([]uint64, totalU64)
	b := newBuildState(cfg)
	slab := make([]Set, len(metas))
	sets := make([]*Set, len(metas))
	var pos []uint64 // validateShell's scratch, shared by the corpus
	at := 0
	for i, m := range metas {
		s := &slab[i]
		var err error
		switch m.rep {
		case RepArray:
			var elems []uint32
			if m.n > 0 {
				elems = unsafe.Slice((*uint32)(unsafe.Pointer(&arena[at])), m.n)
				at += (m.n + 1) / 2
				payload = decodeU32s(elems, payload)
			}
			*s = newArrayShell(b, elems)
			err = validateArrayShell(s)
		case RepDense:
			nwords := int(m.mBits) / 64
			words := arena[at : at+nwords : at+nwords]
			at += nwords
			payload = decodeU64s(words, payload)
			*s = newDenseShell(b, words, m.base, m.n)
			err = validateDenseShell(s)
		default:
			var words []uint64
			var offsets, reordered []uint32
			words, offsets, reordered, at = segmentedRegion(arena, at, m.mBits, cfg.SegBits, m.n)
			payload = decodeU64s(words, payload)
			payload = decodeU32s(offsets, payload)
			payload = decodeU32s(reordered, payload)
			*s = newShell(b, words, offsets, reordered)
			pos, err = validateShell(s, pos)
		}
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		sets[i] = s
	}
	return sets, nil
}

// decodeU32s fills dst from the little-endian uint32s at the head of src and
// returns the rest of src.
func decodeU32s(dst []uint32, src []byte) []byte {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return src[4*len(dst):]
}

// decodeU64s is decodeU32s for uint64s.
func decodeU64s(dst []uint64, src []byte) []byte {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return src[8*len(dst):]
}

// crc32cOf is a convenience for tests: the CRC32C of data.
func crc32cOf(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
