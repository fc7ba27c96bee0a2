package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"localmds/internal/graph"
)

// rewriteHeaderCRC recomputes the header checksum after a deliberate
// field edit, so tests reach the per-field validation behind it.
func rewriteHeaderCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[92:], crc32.ChecksumIEEE(data[:92]))
}

// testEntry builds a small valid entry.
func testEntry(payload string) *Entry {
	fp := graph.CSRFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}).Fingerprint()
	return &Entry{
		Fingerprint:     fp,
		ParamsHash:      paramsHash("r1=4,r2=4,mbc=128"),
		ComputedAtNanos: 1_723_000_000_000_000_000,
		Payload:         []byte(payload),
	}
}

func encode(t *testing.T, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEntry(&buf, e); err != nil {
		t.Fatalf("WriteEntry: %v", err)
	}
	return buf.Bytes()
}

func TestEntryRoundTrip(t *testing.T) {
	want := testEntry(`{"fingerprint":"abc","params":{"r1":4}}`)
	data := encode(t, want)
	got, err := ReadEntry(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatalf("ReadEntry: %v", err)
	}
	if got.Fingerprint != want.Fingerprint || got.ParamsHash != want.ParamsHash ||
		got.ComputedAtNanos != want.ComputedAtNanos || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	re := encode(t, got)
	if !bytes.Equal(re, data) {
		t.Fatalf("re-encode not byte-identical (%d vs %d bytes)", len(re), len(data))
	}
}

func TestEntryEmptyPayloadRoundTrip(t *testing.T) {
	data := encode(t, testEntry(""))
	e, err := ReadEntry(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatalf("ReadEntry: %v", err)
	}
	if len(e.Payload) != 0 {
		t.Fatalf("payload = %q, want empty", e.Payload)
	}
}

// TestEntryCorruptionTaxonomy flips or truncates specific regions and
// checks the reader rejects each with a deterministic *FormatError at the
// right byte offset — and that the same mutation always yields the same
// error.
func TestEntryCorruptionTaxonomy(t *testing.T) {
	base := encode(t, testEntry(`{"v":1}`))
	mutate := func(off int, delta byte) []byte {
		m := append([]byte(nil), base...)
		m[off] ^= delta
		return m
	}
	cases := []struct {
		name       string
		data       []byte
		wantOffset int64
	}{
		{"empty", nil, 0},
		{"bad magic", mutate(0, 0xff), 0},
		{"truncated header", base[:entryHeaderLen-1], 0},
		{"bad version", mutate(8, 0x01), 8},
		{"flag bit", mutate(12, 0x01), 12},
		{"fingerprint bit", mutate(20, 0x01), 92},
		{"reserved bit", mutate(85, 0x01), 92},
		{"header crc bit", mutate(93, 0x01), 92},
		{"payload bit", mutate(entryHeaderLen+2, 0x01), 72},
		{"truncated payload", base[:len(base)-1], entryHeaderLen},
		{"trailing byte", append(append([]byte(nil), base...), 0x00), int64(len(base))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err1 := ReadEntry(bytes.NewReader(tc.data), 0)
			_, err2 := ReadEntry(bytes.NewReader(tc.data), 0)
			var fe *FormatError
			if !errors.As(err1, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err1)
			}
			if fe.Offset != tc.wantOffset {
				t.Fatalf("offset = %d, want %d (%v)", fe.Offset, tc.wantOffset, fe)
			}
			if err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
			}
		})
	}
}

// TestEntryVersionAndFlagsRejected rewrites the header fields with a
// recomputed CRC so validation reaches the field checks themselves.
func TestEntryVersionAndFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		name       string
		off        int
		val        byte
		wantOffset int64
	}{
		{"future version", 8, 9, 8},
		{"unknown flags", 12, 1, 12},
		{"nonzero reserved", 80, 7, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := encode(t, testEntry("x"))
			data[tc.off] = tc.val
			rewriteHeaderCRC(data)
			_, err := ReadEntry(bytes.NewReader(data), 0)
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Offset != tc.wantOffset {
				t.Fatalf("err = %v, want *FormatError at byte %d", err, tc.wantOffset)
			}
		})
	}
}

func TestEntryPayloadLimit(t *testing.T) {
	data := encode(t, testEntry("0123456789"))
	if _, err := ReadEntry(bytes.NewReader(data), 4); err == nil {
		t.Fatal("payload over the limit was accepted")
	} else {
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Offset != 64 {
			t.Fatalf("limit rejection = %v, want *FormatError at byte 64", err)
		}
	}
	if _, err := ReadEntry(bytes.NewReader(data), 10); err != nil {
		t.Fatalf("payload at the limit rejected: %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseFsyncPolicy("none"); err != nil || p != FsyncNone {
		t.Fatalf("none: %v %v", p, err)
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if FsyncAlways.String() != "always" || FsyncNone.String() != "none" {
		t.Fatal("String round trip")
	}
}
