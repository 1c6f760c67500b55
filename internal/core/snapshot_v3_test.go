package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// The v3 snapshot writers, kept as test fixtures once the library wrote v4:
// v3 streams stay readable (readCorpusV3, readSetV3) for files already
// written, so the tests pin the v3 bytes these writers emit and check that
// a v3 and a v4 stream of the same sets read to identical sets.

// writeCorpusV3 writes sets as one v3 corpus stream ("FESIAC3").
func writeCorpusV3(w io.Writer, sets []*Set) (int64, error) {
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
	for _, s := range sets {
		for _, section := range v3Sections(s) {
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

// writeSetV3 writes one set's v3 stream ("FESIA3"): its
// representation-tagged header, then the representation's payload sections,
// each checksummed.
func writeSetV3(w io.Writer, s *Set) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if _, err := cw.Write(setMagicV3[:]); err != nil {
		return cw.n, err
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
			return cw.n, err
		}
	}
	if err := cw.emitCRC(); err != nil {
		return cw.n, err
	}
	for _, section := range v3Sections(s) {
		if err := write(section); err != nil {
			return cw.n, err
		}
		if err := cw.emitCRC(); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// v3Sections returns the set's v3 payload sections in stream order: a
// segmented set's bitmap words, its offsets (v3Offsets) and its reordered
// elements; an array set's elements; a dense set's words.
func v3Sections(s *Set) []interface{} {
	switch s.rep {
	case RepArray:
		return []interface{}{s.elems()}
	case RepDense:
		return []interface{}{s.denseWords()}
	}
	words, _, elems := s.region()
	return []interface{}{words, v3Offsets(s), elems}
}

// v3Offsets returns a segmented set's nseg+1 segment starts, the v3 offsets
// section: a copy of the offsets an overflowing set keeps, or its rank
// directory expanded.
func v3Offsets(s *Set) []uint32 {
	if !s.hasDirectory() {
		return append([]uint32(nil), s.kept()...)
	}
	nseg := s.numSegments()
	off := make([]uint32, nseg+1)
	for i := range nseg {
		off[i], _ = s.bounds(i)
	}
	off[nseg] = s.n
	return off
}

// corpusBytesV3 is corpusBytes for the v3 writer.
func corpusBytesV3(t testing.TB, sets []*Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeCorpusV3(&buf, sets); err != nil {
		t.Fatalf("writeCorpusV3: %v", err)
	}
	return buf.Bytes()
}

// setBytes returns the set's stream from WriteTo (v4) or, with v3, from
// writeSetV3.
func setBytes(t testing.TB, s *Set, v3 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if v3 {
		_, err = writeSetV3(&buf, s)
	} else {
		_, err = s.WriteTo(&buf)
	}
	if err != nil {
		t.Fatalf("writing set stream (v3 %v): %v", v3, err)
	}
	return buf.Bytes()
}
