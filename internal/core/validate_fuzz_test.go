package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"fesia/internal/bitmap"
	"fesia/internal/hashutil"
)

// validateShellSorted is the segmented-shell validator ReadSet and
// ReadCorpus ran before the word-by-word bitmap check, kept as the reference
// oracle for FuzzValidateShell; it reads a shell's bitmap bm and reordered
// elements, hashed by h, and the offsets off it was read with. Per segment
// it sorts the elements' hash positions and compares the distinct count
// with the segment's popcount; pos is hash-position scratch, returned grown.
func validateShellSorted(h hashutil.Hasher, bm *bitmap.Bitmap, reordered, off []uint32, pos []uint64) ([]uint64, error) {
	n := uint32(len(reordered))
	nseg := bm.NumSegments()
	mBits := bm.Bits()

	// Validate the whole offset array before any slicing, then walk the
	// segments it delimits.
	if off[0] != 0 || off[nseg] != n {
		return pos, fmt.Errorf("core: offset bounds corrupt (first=%d last=%d n=%d)",
			off[0], off[nseg], n)
	}
	for i := 0; i < nseg; i++ {
		if off[i] > off[i+1] || off[i+1] > n {
			return pos, fmt.Errorf("core: offsets corrupt at segment %d", i)
		}
	}
	for i := 0; i < nseg; i++ {
		lst := reordered[off[i]:off[i+1]]
		pos = pos[:0]
		for j, v := range lst {
			if j > 0 && lst[j-1] >= v {
				return pos, fmt.Errorf("core: segment %d not strictly ascending", i)
			}
			p := h.Pos(v, mBits)
			if bm.SegmentOf(p) != i {
				return pos, fmt.Errorf("core: element %d stored in segment %d, hashes to %d",
					v, i, bm.SegmentOf(p))
			}
			if !bm.Test(p) {
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
		if pop := segmentPopcount(bm, i); pop != distinct {
			return pos, fmt.Errorf("core: segment %d has %d set bits but %d element hash positions (stray or missing bits)",
				i, pop, distinct)
		}
	}
	return pos, nil
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

// FuzzValidateShell is the differential test of the segmented-set
// validators. It builds a set from fuzz-chosen elements at a fuzz-chosen
// segment size, at the default bitmap scale or (segSel/3 odd) at Scale 1,
// where hash collisions often overflow the rank directory, so ReadSet also
// reaches the offsets fallback. It edits one byte or uint32 of a part of
// the set's written stream and recomputes the checksums, so the edit
// reaches the validator instead of dying at a CRC: of the v3 stream's
// bitmap, offsets or elements section, and of the v4 stream's bitmap words,
// rank directory, elements, pad or kept offsets. The v3 read must accept
// exactly when the sort-based oracle accepts the same edited shell; the v4
// read exactly when the edited stream is the stream of the set built from
// its own elements at the entry's bitmap size. An accepted set must
// intersect with itself to its own length.
func FuzzValidateShell(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 200, 1, 7, 9}, uint8(0), uint8(0), uint8(0), uint32(3), uint32(1))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 200, 1, 7, 9}, uint8(1), uint8(1), uint8(1), uint32(1), uint32(2))
	f.Add([]byte{9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4}, uint8(2), uint8(2), uint8(2), uint32(0), uint32(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint32(0), uint32(0xff))
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint8(0), uint8(3), uint8(1), uint32(0), uint32(0)) // v4 pad
	dense := make([]byte, 2*60)                                                         // 60 elements in a 64-bit Scale-1 bitmap
	for i := range 60 {
		dense[2*i] = byte(7 * i)
	}
	f.Add(dense, uint8(3), uint8(1), uint8(1), uint32(4), uint32(9))
	f.Add(dense, uint8(3), uint8(4), uint8(1), uint32(2), uint32(9)) // v4 kept offsets
	f.Fuzz(func(t *testing.T, raw []byte, segSel, section, mode uint8, at, val uint32) {
		elems := make([]uint32, len(raw)/2)
		for i := range elems {
			elems[i] = uint32(binary.LittleEndian.Uint16(raw[2*i:]))
		}
		cfg := DefaultConfig()
		cfg.SegBits = []int{8, 16, 32}[segSel%3]
		if segSel/3%2 == 1 {
			cfg.Scale = 1
		}
		orig := MustNewSet(elems, cfg)
		fuzzShellV3(t, orig, cfg, section, mode, at, val)
		fuzzShellV4(t, orig, cfg, section, mode, at, val)
	})
}

// editStream applies one fuzz edit to the l bytes of data at start: flip
// bits of a byte, overwrite a uint32, or swap two neighbouring uint32s.
func editStream(data []byte, start, l int, mode uint8, at, val uint32) {
	switch {
	case l == 0:
	case mode%3 == 0: // flip bits of one byte
		data[start+int(at%uint32(l))] ^= byte(val)
	case mode%3 == 1: // overwrite one uint32
		binary.LittleEndian.PutUint32(data[start+4*int(at%uint32(l/4)):], val)
	case l >= 8: // swap two neighbouring uint32s
		p := start + 4*int(at%uint32(l/4-1))
		a, b := binary.LittleEndian.Uint32(data[p:]), binary.LittleEndian.Uint32(data[p+4:])
		binary.LittleEndian.PutUint32(data[p:], b)
		binary.LittleEndian.PutUint32(data[p+4:], a)
	}
}

// fuzzShellV3 edits orig's v3 stream and checks ReadSet against
// validateShellSorted.
func fuzzShellV3(t *testing.T, orig *Set, cfg Config, section, mode uint8, at, val uint32) {
	data := setBytes(t, orig, true)
	// v3 layout: magic(8) + header(52) + header CRC(4), then the bitmap,
	// offsets and elements sections, each followed by its CRC.
	lens := []int{8 * orig.nwords(), 4 * (orig.NumSegments() + 1), 4 * orig.Len()}
	starts := []int{64, 64 + lens[0] + 4, 64 + lens[0] + lens[1] + 8}
	sec := int(section % 3)
	editStream(data, starts[sec], lens[sec], mode, at, val)
	for i := range lens {
		end := starts[i] + lens[i]
		binary.LittleEndian.PutUint32(data[end:], crc32cOf(data[starts[i]:end]))
	}

	words := make([]uint64, orig.nwords())
	offsets := make([]uint32, orig.NumSegments()+1)
	reordered := make([]uint32, orig.Len())
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[starts[0]+8*i:])
	}
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(data[starts[1]+4*i:])
	}
	for i := range reordered {
		reordered[i] = binary.LittleEndian.Uint32(data[starts[2]+4*i:])
	}
	bm := bitmap.NewFromWords(words, orig.mBits(), cfg.SegBits)
	_, oracleErr := validateShellSorted(orig.build.hasher, &bm, reordered, offsets, nil)

	s, err := ReadSet(bytes.NewReader(data))
	if (err == nil) != (oracleErr == nil) {
		t.Fatalf("v3: ReadSet err = %v, oracle err = %v (segBits %d, section %d, mode %d)",
			err, oracleErr, cfg.SegBits, sec, mode%3)
	}
	if err == nil && CountMerge(s, s) != s.Len() {
		t.Fatalf("v3: accepted set self-intersects to %d, len %d", CountMerge(s, s), s.Len())
	}
}

// fuzzShellV4 edits orig's v4 stream and checks ReadSet against the
// canonical-image oracle: the edited stream must be the stream of the set
// built from the edited elements, which keep their count, and so the
// entry's bitmap size.
func fuzzShellV4(t *testing.T, orig *Set, cfg Config, section, mode uint8, at, val uint32) {
	data := setBytes(t, orig, false)
	// v4 layout: magic(8) + config(28) + numSets(8) + entry(24), then the
	// region — bitmap words, directory, elements, pad — then a kept set's
	// offsets, then the CRC.
	nw, n := orig.nwords(), orig.Len()
	pad := 4 * (n % 2)
	kept := 0
	if !orig.hasDirectory() {
		kept = 4 * (orig.NumSegments() + 1)
	}
	lens := []int{8 * nw, 8 * nw, 4 * n, pad, kept}
	start := 68
	sec := int(section % 5)
	for _, l := range lens[:sec] {
		start += l
	}
	editStream(data, start, lens[sec], mode, at, val)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32cOf(data[:len(data)-4]))

	edited := make([]uint32, n)
	for i := range edited {
		edited[i] = binary.LittleEndian.Uint32(data[68+16*nw+4*i:])
	}
	canon := sortDedup(make([]uint32, n), edited)
	valid := len(canon) == n && bytes.Equal(data, setBytes(t, MustNewSet(canon, cfg), false))

	s, err := ReadSet(bytes.NewReader(data))
	if (err == nil) != valid {
		t.Fatalf("v4: ReadSet err = %v, oracle valid = %v (segBits %d, part %d, mode %d)",
			err, valid, cfg.SegBits, sec, mode%3)
	}
	if err == nil && CountMerge(s, s) != s.Len() {
		t.Fatalf("v4: accepted set self-intersects to %d, len %d", CountMerge(s, s), s.Len())
	}
}
