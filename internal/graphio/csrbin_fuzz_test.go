package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/crc64"
	"testing"

	"localmds/internal/graph"
)

// fuzzCSRBinEncode builds a valid csrbin file for the seed corpus.
func fuzzCSRBinEncode(n int, edges [][2]int) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, graph.FromEdgesUnchecked(n, edges).Freeze(), FormatCSRBin); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzCSRBinForge frames arbitrary arrays with a valid header and valid
// checksums, so mutation reaches the structural validation instead of
// dying at the CRCs.
func fuzzCSRBinForge(n, m uint64, offsets, targets []int32) []byte {
	var data bytes.Buffer
	raw := make([]byte, 4)
	crc := uint64(0)
	for _, xs := range [][]int32{offsets, targets} {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(raw, uint32(x))
			crc = crc64.Update(crc, csrbinCRCTable, raw)
			data.Write(raw)
		}
	}
	hdr := make([]byte, csrbinHeaderLen)
	copy(hdr, csrbinMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], csrbinVersion)
	binary.LittleEndian.PutUint64(hdr[16:], n)
	binary.LittleEndian.PutUint64(hdr[24:], m)
	binary.LittleEndian.PutUint64(hdr[32:], crc)
	binary.LittleEndian.PutUint32(hdr[60:], crc32.ChecksumIEEE(hdr[:60]))
	return append(hdr, data.Bytes()...)
}

// FuzzReadCSRBin drives the binary reader with the same contract the text
// parsers carry: no input may panic, every rejection is a *FormatError,
// the limits hold, and every accepted input round-trips bit-identically
// through the writer.
func FuzzReadCSRBin(f *testing.F) {
	f.Add(fuzzCSRBinEncode(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
	f.Add(fuzzCSRBinEncode(0, nil))
	f.Add(fuzzCSRBinEncode(7, nil))
	f.Add(fuzzCSRBinForge(2, 1, []int32{0, 1, 2}, []int32{1, 0}))
	f.Add(fuzzCSRBinForge(2, 1, []int32{0, 2, 1}, []int32{1, 0}))     // non-monotone offsets
	f.Add(fuzzCSRBinForge(2, 1, []int32{0, 1, 2}, []int32{5, 0}))     // out-of-range target
	f.Add(fuzzCSRBinForge(1<<40, 0, nil, nil))                        // oversized n
	f.Add(fuzzCSRBinForge(2, 1<<40, []int32{0, 1, 2}, []int32{1, 0})) // oversized m
	f.Add(csrbinMagic[:])                                             // magic then truncation
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readCSRBin(bytes.NewReader(data), fuzzVertexLimit, fuzzEdgeLimit)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err)
			}
			if fe.Offset < 0 || fe.Error() == "" {
				t.Fatalf("malformed FormatError: %+v", fe)
			}
			return
		}
		if c.N() > fuzzVertexLimit || len(c.Targets) > 2*fuzzEdgeLimit {
			t.Fatalf("accepted graph above the limits: n=%d arcs=%d", c.N(), len(c.Targets))
		}
		// Accepted inputs are canonical, so re-encoding must reproduce
		// the input byte for byte.
		var buf bytes.Buffer
		if err := Write(&buf, c, FormatCSRBin); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input does not round-trip byte-identically (%d in, %d out)",
				len(data), buf.Len())
		}
	})
}
