package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is a content address of a labeled graph: the SHA-256 of its
// canonical frozen CSR. Two graphs have equal fingerprints iff they have
// the same vertex count and the same edge set over the same labels — the
// order edges were inserted, their orientation, and any collapsed
// duplicates or self-loops never affect it, because the CSR stores every
// adjacency list sorted and deduplicated. The mdsd result cache keys on it
// (plus solver params) so identical graphs submitted by different clients,
// in different formats, hit the same entry.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint in hex, the form the service reports.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintDomain separates CSR hashes from any future canonical forms.
const fingerprintDomain = "localmds/csr/v1\x00"

// Fingerprint computes the content address of the frozen view.
func (c *CSR) Fingerprint() Fingerprint {
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(c.N()))
	h.Write(b[:])
	// Offsets and Targets determine each other's framing, so hashing the
	// two int32 streams in order is unambiguous.
	buf := make([]byte, 0, 4<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, o := range c.Offsets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
		if len(buf) >= 4<<10 {
			flush()
		}
	}
	for _, t := range c.Targets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		if len(buf) >= 4<<10 {
			flush()
		}
	}
	flush()
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
