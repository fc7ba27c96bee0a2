package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzReadStoreEntry holds ReadEntry to the same contract the csrbin
// reader honors: arbitrary input never panics; every rejection is a
// *FormatError carrying a non-negative byte offset and a message; the
// same input always yields the same outcome; and an accepted entry
// re-encodes byte-identically through WriteEntry.
func FuzzReadStoreEntry(f *testing.F) {
	// A canonical valid entry, plus mutations that land in each region of
	// the taxonomy: magic, version, flags, header CRC, payload checksum,
	// truncation, and trailing garbage.
	valid := func(payload string) []byte {
		var buf bytes.Buffer
		if err := WriteEntry(&buf, testEntry(payload)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := valid(`{"domination_number":3}`)
	f.Add([]byte{})
	f.Add(base)
	f.Add(valid(""))
	f.Add(base[:entryHeaderLen-1])
	f.Add(base[:len(base)-1])
	f.Add(append(append([]byte(nil), base...), 0x00))
	for _, off := range []int{0, 8, 12, 20, 64, 72, 85, 92, entryHeaderLen + 1} {
		m := append([]byte(nil), base...)
		m[off] ^= 0x01
		f.Add(m)
	}

	const maxPayload = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadEntry(bytes.NewReader(data), maxPayload)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err)
			}
			if fe.Offset < 0 || fe.Msg == "" {
				t.Fatalf("malformed FormatError: %+v", fe)
			}
			if _, err2 := ReadEntry(bytes.NewReader(data), maxPayload); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("nondeterministic rejection: %v vs %v", err, err2)
			}
			return
		}
		var buf bytes.Buffer
		if werr := WriteEntry(&buf, e); werr != nil {
			t.Fatalf("re-encode of accepted entry failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted entry does not re-encode byte-identically (%d vs %d bytes)",
				buf.Len(), len(data))
		}
	})
}

// FuzzStoreScan damages a populated segment log the ways a disk can —
// truncations, byte flips, appended garbage, chosen by the fuzzer — and
// holds the reopen to the store's contract: it never panics or fails,
// Get never returns a payload that was not Put for that key, and every
// record whose bytes the damage left alone is still served. The log
// lives in a memFS, so an input costs no real file I/O.
//
// The input is a list of 5-byte operations (kind, segment, offset hi,
// offset lo, value); kind%3 picks a flip of the byte at offset by
// value|1, a truncation at offset, or an append of value%32 bytes taken
// from the rest of the input.
func FuzzStoreScan(f *testing.F) {
	f.Add([]byte{}) // the seed corpus in testdata/ aims flips, cuts and garbage at each record

	const records = 5
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"record":%d,"pad":"%s"}`, i, strings.Repeat("p", 8*i)))
	}
	maxRec := entryHeaderLen + int64(len(payload(records-1)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		// A budget of 8 records caps segments at 2 records each, so the log
		// spans 3 segments and the damage reaches sealed ones too.
		mem := memFS{}
		opts := Options{Dir: "store", MaxBytes: 8 * maxRec, FS: mem}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		type extent struct {
			seg       string
			off, size int64
		}
		put := make([]extent, records)
		for i := range put {
			if err := s.Put(testKey(i), int64(i+1), payload(i)); err != nil {
				t.Fatal(err)
			}
			ie := s.items[testKey(i).rec()].Value.(*indexEntry)
			put[i] = extent{seg: ie.seg.path, off: ie.off, size: ie.size}
		}
		var segs []*memFile
		kept := map[string]int64{} // shortest length each segment was truncated to
		flipped := map[string]map[int64]bool{}
		for _, seg := range s.segs {
			segs = append(segs, mem[seg.path])
			kept[seg.path] = seg.size
			flipped[seg.path] = map[int64]bool{}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		for len(ops) >= 5 {
			kind, i, off, val := ops[0]%3, int(ops[1])%len(segs), int64(ops[2])<<8|int64(ops[3]), ops[4]
			ops = ops[5:]
			seg := segs[i]
			switch kind {
			case 0:
				if len(seg.data) > 0 {
					off %= int64(len(seg.data))
					seg.data[off] ^= val | 1
					flipped[seg.name][off] = true
				}
			case 1:
				off %= int64(len(seg.data)) + 1
				seg.data = seg.data[:off]
				kept[seg.name] = min(kept[seg.name], off)
			case 2:
				n := min(int(val%32), len(ops))
				seg.data = append(seg.data, ops[:n]...)
				ops = ops[n:]
			}
		}

		s2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen over a damaged log: %v", err)
		}
		defer s2.Close()
		for i, x := range put {
			touched := x.off+x.size > kept[x.seg]
			for b := x.off; b < x.off+x.size && !touched; b++ {
				touched = flipped[x.seg][b]
			}
			e, err := s2.Get(testKey(i))
			switch {
			case err == nil && !bytes.Equal(e.Payload, payload(i)):
				t.Fatalf("record %d served a payload never Put for it: %q", i, e.Payload)
			case err != nil && !errors.Is(err, ErrNotFound):
				t.Fatalf("record %d: Get failed: %v", i, err)
			case err != nil && !touched:
				t.Fatalf("record %d was untouched by the damage but is not served", i)
			}
		}
		if _, err := s2.Get(testKey(records)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("a key never Put was served: %v", err)
		}
	})
}

// memFS is an in-memory FS: file name -> contents. Directories are
// implicit in the names.
type memFS map[string]*memFile

type memFile struct {
	name string
	data []byte
}

func (memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m memFS) Open(name string) (File, error) {
	if f, ok := m[name]; ok {
		return f, nil
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

func (m memFS) Create(name string) (File, error) {
	m[name] = &memFile{name: name}
	return m[name], nil
}

func (m memFS) Remove(name string) error {
	if _, ok := m[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m, name)
	return nil
}

func (m memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	var des []os.DirEntry
	for name, f := range m {
		if filepath.Dir(name) == dir {
			des = append(des, fs.FileInfoToDirEntry(f))
		}
	}
	return des, nil
}

func (m memFS) Truncate(name string, size int64) error {
	m[name].data = m[name].data[:size]
	return nil
}

func (memFS) SyncDir(string) error { return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Close() error               { return nil }
func (f *memFile) Sync() error                { return nil }
func (f *memFile) Stat() (os.FileInfo, error) { return f, nil }

// memFile is its own os.FileInfo.
func (f *memFile) Name() string       { return filepath.Base(f.name) }
func (f *memFile) Size() int64        { return int64(len(f.data)) }
func (f *memFile) Mode() os.FileMode  { return 0o644 }
func (f *memFile) ModTime() time.Time { return time.Time{} }
func (f *memFile) IsDir() bool        { return false }
func (f *memFile) Sys() any           { return nil }
