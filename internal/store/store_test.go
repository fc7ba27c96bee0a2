package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"localmds/internal/graph"
)

// testKey builds a distinct key per index.
func testKey(i int) Key {
	c := graph.CSRFromEdges(i+2, [][2]int{{0, 1}})
	return Key{Fingerprint: c.Fingerprint(), Params: fmt.Sprintf("r1=4,r2=4,mbc=%d", i)}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// assertReopenServes opens dir afresh and requires every key to be served.
func assertReopenServes(t *testing.T, dir string, keys ...Key) {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir})
	for _, k := range keys {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("Get after reopen: %v", err)
		}
	}
}

// records lists the (offset, size) of the records in segment seq, read
// through the index of a fresh Open.
func records(t *testing.T, dir string, seq uint64) [][2]int64 {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir})
	var out [][2]int64
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		ie := el.Value.(*indexEntry)
		if ie.seg.path == filepath.Join(dir, segName(seq)) {
			out = append(out, [2]int64{ie.off, ie.size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// flipByte XORs one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustPut(t *testing.T, s *Store, k Key, payload string) {
	t.Helper()
	if err := s.Put(k, time.Now().UnixNano(), []byte(payload)); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(1)
	const payload = `{"result": 42}`
	now := time.Now().UnixNano()
	if err := s.Put(k, now, []byte(payload)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	e, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(e.Payload) != payload || e.ComputedAtNanos != now {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := s.Get(testKey(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWarmRescan: a second Open on the same directory serves everything
// the first process persisted — the warm-restart contract.
func TestWarmRescan(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	computed := time.Now().Add(-time.Hour).UnixNano()
	for i := 0; i < 5; i++ {
		if err := s1.Put(testKey(i), computed, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, Options{Dir: dir})
	if st := s2.Stats(); st.Entries != 5 || st.Quarantined != 0 {
		t.Fatalf("rescan stats = %+v", st)
	}
	for i := 0; i < 5; i++ {
		e, err := s2.Get(testKey(i))
		if err != nil {
			t.Fatalf("Get(%d) after rescan: %v", i, err)
		}
		if e.ComputedAtNanos != computed {
			t.Fatalf("computed-at not persisted: got %d want %d", e.ComputedAtNanos, computed)
		}
	}
}

// TestEviction: the byte budget evicts least-recently-used entries and
// deletes their files; a Get refreshes recency.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Repeat("x", 200)
	one := entryHeaderLen + int64(len(payload))
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 3 * one})
	for i := 0; i < 3; i++ {
		mustPut(t, s, testKey(i), payload)
	}
	// Refresh 0 so 1 is the LRU, then overflow.
	if _, err := s.Get(testKey(0)); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, testKey(3), payload)
	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU entry survived: %v", err)
	}
	for _, i := range []int{0, 2, 3} {
		if _, err := s.Get(testKey(i)); err != nil {
			t.Fatalf("entry %d evicted wrongly: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*one {
		t.Fatalf("stats = %+v", st)
	}
	if disk := segmentBytes(t, dir); disk > 3*one+s.segCap {
		t.Fatalf("segments hold %d bytes, over the budget %d plus one segment %d", disk, 3*one, s.segCap)
	}
}

// TestCompactionBoundsDisk: each segment ends up holding one long-lived
// entry beside three overwritten ones, so no segment ever empties; only
// compaction keeps disk use within the budget plus one segment, and every
// live entry stays servable in the process and after reopen.
func TestCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Repeat("k", 150)
	one := entryHeaderLen + int64(len(payload))
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 16 * one}) // four records per segment
	hot := []Key{testKey(100), testKey(101), testKey(102)}
	var keys []Key
	for j := 0; j < 10; j++ {
		keys = append(keys, testKey(j))
		mustPut(t, s, testKey(j), payload)
		for _, k := range hot {
			mustPut(t, s, k, payload)
		}
		if disk := segmentBytes(t, dir); disk > 16*one+s.segCap {
			t.Fatalf("after %d segments: %d bytes on disk, over budget %d plus one segment %d", j+1, disk, 16*one, s.segCap)
		}
	}
	keys = append(keys, hot...)
	if st := s.Stats(); st.Entries != len(keys) || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, k := range keys {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("live entry lost to compaction: %v", err)
		}
	}
	assertReopenServes(t, dir, keys...)
}

func TestOversizedEntrySkipped(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: entryHeaderLen + 8})
	if err := s.Put(testKey(0), 1, []byte(strings.Repeat("y", 64))); err != nil {
		t.Fatalf("oversized Put errored: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
}

func TestOverwriteRefreshes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	k := testKey(0)
	mustPut(t, s, k, "short")
	mustPut(t, s, k, "a longer payload than before")
	e, err := s.Get(k)
	if err != nil || string(e.Payload) != "a longer payload than before" {
		t.Fatalf("overwrite: %v %q", err, e.Payload)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != entryHeaderLen+int64(len(e.Payload)) {
		t.Fatalf("stats after overwrite = %+v", st)
	}
	// The log holds both records; the scan keeps the later one.
	s.Close()
	e, err = mustOpen(t, Options{Dir: dir}).Get(k)
	if err != nil || string(e.Payload) != "a longer payload than before" {
		t.Fatalf("overwrite after reopen: %v %q", err, e.Payload)
	}
}

// TestScanQuarantine: the startup scan resynchronises past a bad header,
// skips a record whose payload fails its checksum, and copies a torn tail
// to quarantine/ before cutting it off the segment; every intact record
// keeps being served, and foreign files are left alone.
func TestScanQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 4; i++ {
		mustPut(t, s1, testKey(i), `{"ok":true}`)
	}
	s1.Close()
	seg := filepath.Join(dir, segName(1))
	recs := records(t, dir, 1)
	if len(recs) != 4 {
		t.Fatalf("segment 1 holds %d records, want 4", len(recs))
	}
	flipByte(t, seg, recs[0][0]+20)             // a header byte of record 0
	flipByte(t, seg, recs[2][0]+entryHeaderLen) // a payload byte of record 2
	// A torn tail: the first 50 bytes of a record that never finished.
	var torn bytes.Buffer
	if err := WriteEntry(&torn, testEntry("never finished")); err != nil {
		t.Fatal(err)
	}
	intact := segmentBytes(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn.Bytes()[:50]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir})
	st := s2.Stats()
	if st.Entries != 2 || st.Quarantined != 3 {
		t.Fatalf("stats after hostile scan = %+v", st)
	}
	for _, i := range []int{0, 2} {
		if _, err := s2.Get(testKey(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("damaged record %d served: %v", i, err)
		}
	}
	for _, i := range []int{1, 3} {
		if _, err := s2.Get(testKey(i)); err != nil {
			t.Fatalf("intact record %d lost: %v", i, err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, quarantineDir, fmt.Sprintf("%s@%d", segName(1), intact)))
	if err != nil || !bytes.Equal(got, torn.Bytes()[:50]) {
		t.Fatalf("torn tail not quarantined: %v %q", err, got)
	}
	if size := segmentBytes(t, dir); size != intact {
		t.Fatalf("segment is %d bytes, want the torn tail cut at %d", size, intact)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
	// The next append lands on the record boundary the cut left.
	mustPut(t, s2, testKey(5), `{"after":true}`)
	assertReopenServes(t, dir, testKey(1), testKey(3), testKey(5))
}

// TestScanLogOrder: records are indexed in log order across segments, so
// the oldest written entry is the first evicted after a restart.
func TestScanLogOrder(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Repeat("o", 100)
	one := entryHeaderLen + int64(len(payload))
	s1 := mustOpen(t, Options{Dir: dir, MaxBytes: 4 * one}) // one record per segment
	for i := 0; i < 4; i++ {
		mustPut(t, s1, testKey(i), payload)
	}
	s1.Close()
	s2 := mustOpen(t, Options{Dir: dir, MaxBytes: 4 * one})
	mustPut(t, s2, testKey(4), payload)
	if _, err := s2.Get(testKey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest record survived the first eviction after restart: %v", err)
	}
	for i := 1; i < 5; i++ {
		if _, err := s2.Get(testKey(i)); err != nil {
			t.Fatalf("entry %d evicted out of log order: %v", i, err)
		}
	}
}

// TestGetQuarantinesRuntimeCorruption: corruption that appears after the
// scan (bit rot) is caught by Get's validation, quarantined, and reported
// as a miss — never served, and never an I/O error.
func TestGetQuarantinesRuntimeCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	k := testKey(0)
	mustPut(t, s, k, `{"fresh":true}`)
	flipByte(t, filepath.Join(dir, segName(1)), entryHeaderLen+1)
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt entry: %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiscard(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(0)
	mustPut(t, s, k, "not json at all")
	s.Discard(k)
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("discarded entry served: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenRejectsBadDirs(t *testing.T) {
	if _, err := Open(Options{Dir: ""}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if os.Getuid() != 0 { // root ignores file modes
		ro := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: filepath.Join(ro, "store")}); err == nil {
			t.Fatal("unwritable parent accepted")
		}
	}
	// A path that is a file, not a directory.
	f := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: f}); err == nil {
		t.Fatal("file-as-dir accepted")
	}
}
