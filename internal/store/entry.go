// Package store is the daemon's durability layer: a disk-backed
// content-addressed result store keyed by graph.Fingerprint plus the
// normalized solver params.
//
// The store is an append-only log of segments, <dir>/seg-<seq>.mdsl
// (seq is zero-padded to at least 8 digits), each holding back-to-back
// checksummed entries in the encoding below, with an in-memory index
// from key to (segment, offset, size) in LRU order — the log-structured
// design of Rosenblum & Ousterhout's LFS and of Bitcask. A Put is one
// positioned write at the active segment's end plus, under FsyncAlways,
// one fsync; a file is created only when the active segment fills and a
// new one rolls. Open scans the segments in sequence order and the
// records in log order, a later record for a key replacing an earlier
// one. A record whose header verifies but whose payload does not is
// skipped by its declared length; after a bad header the scan
// resynchronises on the next header that verifies, and bytes that never
// resynchronise (a torn tail) are copied to quarantine/<segment>@<offset>
// and cut off the segment. Nothing that fails a check is ever served.
// A byte budget keeps entry-granular LRU eviction over live records;
// sealed segments with no live record are removed, and the oldest sealed
// segment is compacted once dead bytes would push disk use past the
// budget plus one segment. All I/O goes through the FS interface so
// tests inject ENOSPC, short writes, and read errors deterministically.
//
// The entry encoding follows the csrbin discipline (internal/graphio): a
// PNG-style magic, a CRC-32-guarded fixed header carrying the key and the
// persisted computed-at timestamp, a CRC-64/ECMA over the payload, and a
// deterministic byte-offset *FormatError taxonomy — a given corrupt input
// always yields the same error, and an accepted entry re-encodes
// byte-identically.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"

	"localmds/internal/graph"
)

// The entry layout (all integers little-endian):
//
//	offset  size  field
//	     0     8  magic 89 4D 44 53 45 0D 0A 1A ("\x89MDSE\r\n\x1a")
//	     8     4  version (currently 1)
//	    12     4  flags (must be 0)
//	    16    32  graph fingerprint (raw SHA-256, the content address)
//	    48     8  FNV-1a/64 of the normalized params string
//	    56     8  computed-at timestamp, Unix nanoseconds (int64)
//	    64     8  payload length in bytes
//	    72     8  CRC-64/ECMA of the payload bytes
//	    80    12  reserved, must be zero
//	    92     4  IEEE CRC-32 of header bytes [0, 92)
//	    96     …  payload (the serialized solve outcome)

// entryMagic is the 8-byte entry signature; the scan resynchronises on it.
var entryMagic = [8]byte{0x89, 'M', 'D', 'S', 'E', '\r', '\n', 0x1a}

const (
	entryVersion   = 1
	entryHeaderLen = 96
)

// entryCRCTable is the CRC-64/ECMA table for the payload checksum.
var entryCRCTable = crc64.MakeTable(crc64.ECMA)

// FormatError locates a structural or integrity error in an entry.
// Offset is the byte position of the offending field (0 for whole-entry
// problems such as a bad magic). The taxonomy is deterministic: a given
// corrupt input always yields the same error.
type FormatError struct {
	Offset int64
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("store: byte %d: %s", e.Offset, e.Msg)
}

func formatErrf(offset int64, format string, args ...any) *FormatError {
	return &FormatError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// Entry is one decoded store entry: the key it belongs to, the persisted
// computed-at instant, and the opaque result payload. The store never
// interprets the payload; the service layer serializes solve outcomes
// into it and cross-checks the key on the way back out.
type Entry struct {
	Fingerprint graph.Fingerprint
	ParamsHash  uint64
	// ComputedAtNanos is the Unix-nanosecond instant the result was
	// computed — the timestamp cache ages are measured from, surviving
	// restarts (unlike an in-memory load stamp).
	ComputedAtNanos int64
	Payload         []byte
}

// paramsHash derives the header's params field from the normalized params
// string (FNV-1a/64, matching the repo's seed-derivation idiom).
func paramsHash(params string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(params); i++ {
		h ^= uint64(params[i])
		h *= prime64
	}
	return h
}

// ReadEntry decodes and fully validates one entry stream: magic, version,
// header checksum, payload length bound, payload checksum, and no
// trailing bytes. maxPayload <= 0 means unlimited. Rejections are always
// a *FormatError with a byte offset; no input panics; an accepted entry
// re-encodes byte-identically through WriteEntry.
func ReadEntry(r io.Reader, maxPayload int64) (*Entry, error) {
	hdr := make([]byte, entryHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, formatErrf(0, "truncated header: %v", err)
		}
		return nil, err // a real I/O failure, not a format problem
	}
	e, plen, err := parseEntryHeader(hdr, maxPayload)
	if err != nil {
		return nil, err
	}
	e.Payload = make([]byte, plen)
	if _, err := io.ReadFull(r, e.Payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, formatErrf(entryHeaderLen, "truncated payload: %v", err)
		}
		return nil, err
	}
	if err := checkPayload(hdr, e.Payload); err != nil {
		return nil, err
	}
	var one [1]byte
	k, rerr := r.Read(one[:])
	if k != 0 {
		return nil, formatErrf(entryHeaderLen+plen, "trailing data after the payload")
	}
	if rerr != nil && rerr != io.EOF {
		return nil, rerr
	}
	return e, nil
}

// checkPayload verifies payload against the CRC-64 its header declares.
func checkPayload(hdr, payload []byte) error {
	if crc := crc64.Checksum(payload, entryCRCTable); crc != binary.LittleEndian.Uint64(hdr[72:]) {
		return formatErrf(72, "payload checksum mismatch (header says %#x, payload sums to %#x)",
			binary.LittleEndian.Uint64(hdr[72:]), crc)
	}
	return nil
}

// parseEntryHeader validates the fixed header and returns the decoded
// key fields plus the declared payload length.
func parseEntryHeader(hdr []byte, maxPayload int64) (*Entry, int64, error) {
	if !bytes.Equal(hdr[:8], entryMagic[:]) {
		return nil, 0, formatErrf(0, "bad magic %x (want %x)", hdr[:8], entryMagic[:])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != entryVersion {
		return nil, 0, formatErrf(8, "unsupported version %d (want %d)", v, entryVersion)
	}
	if f := binary.LittleEndian.Uint32(hdr[12:]); f != 0 {
		return nil, 0, formatErrf(12, "unknown flags %#x (must be 0)", f)
	}
	if sum := crc32.ChecksumIEEE(hdr[:92]); sum != binary.LittleEndian.Uint32(hdr[92:]) {
		return nil, 0, formatErrf(92, "header checksum mismatch (want %#x, got %#x)",
			binary.LittleEndian.Uint32(hdr[92:]), sum)
	}
	for i, b := range hdr[80:92] {
		if b != 0 {
			return nil, 0, formatErrf(int64(80+i), "reserved header byte %d is nonzero", 80+i)
		}
	}
	plenU := binary.LittleEndian.Uint64(hdr[64:])
	if plenU > uint64(1)<<62 {
		return nil, 0, formatErrf(64, "payload length %d overflows", plenU)
	}
	plen := int64(plenU)
	if maxPayload > 0 && plen > maxPayload {
		return nil, 0, formatErrf(64, "payload length %d exceeds the limit %d", plen, maxPayload)
	}
	e := &Entry{
		ParamsHash:      binary.LittleEndian.Uint64(hdr[48:]),
		ComputedAtNanos: int64(binary.LittleEndian.Uint64(hdr[56:])),
	}
	copy(e.Fingerprint[:], hdr[16:48])
	return e, plen, nil
}

// encodeEntryHeader renders the canonical header for e.
func encodeEntryHeader(e *Entry) []byte {
	hdr := make([]byte, entryHeaderLen)
	copy(hdr, entryMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], entryVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	copy(hdr[16:48], e.Fingerprint[:])
	binary.LittleEndian.PutUint64(hdr[48:], e.ParamsHash)
	binary.LittleEndian.PutUint64(hdr[56:], uint64(e.ComputedAtNanos))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(len(e.Payload)))
	binary.LittleEndian.PutUint64(hdr[72:], crc64.Checksum(e.Payload, entryCRCTable))
	binary.LittleEndian.PutUint32(hdr[92:], crc32.ChecksumIEEE(hdr[:92]))
	return hdr
}

// WriteEntry writes the canonical encoding of e. Decoding what it wrote
// yields e back field-for-field, and re-encoding a ReadEntry result
// reproduces the input byte for byte.
func WriteEntry(w io.Writer, e *Entry) error {
	if _, err := w.Write(encodeEntryHeader(e)); err != nil {
		return err
	}
	_, err := w.Write(e.Payload)
	return err
}

// entrySize is the on-disk size of e, for the byte-budget accounting.
func entrySize(e *Entry) int64 { return entryHeaderLen + int64(len(e.Payload)) }
