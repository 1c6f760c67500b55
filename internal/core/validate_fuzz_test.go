package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"fesia/internal/bitmap"
)

// validateShellSorted is the segmented-shell validator ReadSet and
// ReadCorpus ran before the word-by-word bitmap check, kept verbatim as the
// reference oracle for FuzzValidateShell. Per segment it sorts the
// elements' hash positions and compares the distinct count with the
// segment's popcount; pos is hash-position scratch, returned grown.
func validateShellSorted(s *Set, pos []uint64) ([]uint64, error) {
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
// validator. It builds a set from fuzz-chosen elements at a fuzz-chosen
// segment size, edits one byte or uint32 of the written stream's bitmap,
// offsets or elements section, and recomputes the section checksums, so the
// edit reaches the validator instead of dying at a CRC. ReadSet must accept
// exactly when the sort-based oracle accepts the same edited shell, and an
// accepted set must intersect with itself to its own length.
func FuzzValidateShell(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 200, 1, 7, 9}, uint8(0), uint8(0), uint8(0), uint32(3), uint32(1))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 200, 1, 7, 9}, uint8(1), uint8(1), uint8(1), uint32(1), uint32(2))
	f.Add([]byte{9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4}, uint8(2), uint8(2), uint8(2), uint32(0), uint32(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint32(0), uint32(0xff))
	f.Fuzz(func(t *testing.T, raw []byte, segSel, section, mode uint8, at, val uint32) {
		elems := make([]uint32, len(raw)/2)
		for i := range elems {
			elems[i] = uint32(binary.LittleEndian.Uint16(raw[2*i:]))
		}
		cfg := DefaultConfig()
		cfg.SegBits = []int{8, 16, 32}[segSel%3]
		orig := MustNewSet(elems, cfg)
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()

		// v3 layout: magic(8) + header(52) + header CRC(4), then the bitmap,
		// offsets and elements sections, each followed by its CRC.
		lens := []int{8 * len(orig.bm.Words()), 4 * len(orig.offsets), 4 * orig.n}
		starts := []int{64, 64 + lens[0] + 4, 64 + lens[0] + lens[1] + 8}
		sec := int(section % 3)
		start, l := starts[sec], lens[sec]
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
		for i := range lens {
			end := starts[i] + lens[i]
			binary.LittleEndian.PutUint32(data[end:], crc32cOf(data[starts[i]:end]))
		}

		words := make([]uint64, len(orig.bm.Words()))
		offsets := make([]uint32, len(orig.offsets))
		reordered := make([]uint32, orig.n)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[starts[0]+8*i:])
		}
		for i := range offsets {
			offsets[i] = binary.LittleEndian.Uint32(data[starts[1]+4*i:])
		}
		for i := range reordered {
			reordered[i] = binary.LittleEndian.Uint32(data[starts[2]+4*i:])
		}
		shell := newShell(orig.build, words, offsets, reordered)
		_, oracleErr := validateShellSorted(&shell, nil)

		s, err := ReadSet(bytes.NewReader(data))
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("ReadSet err = %v, oracle err = %v (segBits %d, section %d, mode %d)",
				err, oracleErr, cfg.SegBits, sec, mode%3)
		}
		if err != nil {
			return
		}
		if got := CountMerge(s, s); got != s.Len() {
			t.Fatalf("accepted set self-intersects to %d, len %d", got, s.Len())
		}
	})
}
