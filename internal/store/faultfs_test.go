package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// faultFS wraps the real filesystem and injects one failure per field.
// Matching is by substring of the path, so a test can target "segment 2"
// or "any segment" without knowing exact names. Files opened through it
// consult its fields on every call, so a test can arm a fault after Open.
type faultFS struct {
	inner FS

	createErr   error // Create fails outright
	writeErr    error // writes through opened files fail
	shortWrite  bool  // writes through opened files stop one byte short
	syncErr     error // File.Sync fails
	readErr     error // reads through opened files fail
	truncErr    error // Truncate fails
	removeErr   error // Remove fails
	syncDirErr  error // SyncDir fails
	pathPattern string

	creates, syncDirs int // calls that reached the filesystem
}

func (f *faultFS) match(name string) bool {
	return f.pathPattern == "" || strings.Contains(name, f.pathPattern)
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *faultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *faultFS) Create(name string) (File, error) {
	if f.createErr != nil && f.match(name) {
		return nil, f.createErr
	}
	f.creates++
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *faultFS) Remove(name string) error {
	if f.removeErr != nil && f.match(name) {
		return f.removeErr
	}
	return f.inner.Remove(name)
}

func (f *faultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

func (f *faultFS) Truncate(name string, size int64) error {
	if f.truncErr != nil && f.match(name) {
		return f.truncErr
	}
	return f.inner.Truncate(name, size)
}

func (f *faultFS) SyncDir(name string) error {
	if f.syncDirErr != nil && f.match(name) {
		return f.syncDirErr
	}
	f.syncDirs++
	return f.inner.SyncDir(name)
}

type faultFile struct {
	File
	fs   *faultFS
	name string
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.fs.match(f.name) {
		return f.File.WriteAt(p, off)
	}
	if f.fs.writeErr != nil {
		return 0, f.fs.writeErr
	}
	if f.fs.shortWrite && len(p) > 0 {
		n, err := f.File.WriteAt(p[:len(p)-1], off)
		if err != nil {
			return n, err
		}
		return n, errors.New("short write")
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.readErr != nil && f.fs.match(f.name) {
		return 0, f.fs.readErr
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.fs.syncErr != nil && f.fs.match(f.name) {
		return f.fs.syncErr
	}
	return f.File.Sync()
}

// seedStore opens a plain store on dir and persists one entry for k, then
// returns; the fault test reopens the same dir through a faultFS.
func seedStore(t *testing.T, dir string, k Key) {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir})
	if err := s.Put(k, time.Now().UnixNano(), []byte(`{"seed":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPutENOSPC: a full disk fails the Put with the real error (so the
// service can degrade), leaves the segment at its previous end, and keeps
// previously persisted entries servable in-process and after reopen.
func TestPutENOSPC(t *testing.T) {
	dir := t.TempDir()
	k0, k1 := testKey(0), testKey(1)
	seedStore(t, dir, k0)
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: dir, FS: ffs})
	before := segmentBytes(t, dir)
	ffs.writeErr = syscall.ENOSPC
	err := s.Put(k1, 1, []byte("new result"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under ENOSPC: %v, want ENOSPC", err)
	}
	if _, err := s.Get(k1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed Put became visible: %v", err)
	}
	if _, err := s.Get(k0); err != nil {
		t.Fatalf("prior entry lost after ENOSPC: %v", err)
	}
	if after := segmentBytes(t, dir); after != before {
		t.Fatalf("segments hold %d bytes after the failed Put, want %d", after, before)
	}
	assertReopenServes(t, dir, k0)
}

// TestPutShortWrite: a write that stops short is rolled back; the torn
// record never becomes visible, and the next Put lands cleanly.
func TestPutShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{inner: OSFS{}, shortWrite: true}
	s := mustOpen(t, Options{Dir: dir, FS: ffs})
	if err := s.Put(testKey(0), 1, []byte("payload")); err == nil {
		t.Fatal("short write went unnoticed")
	}
	if _, err := s.Get(testKey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn entry visible: %v", err)
	}
	ffs.shortWrite = false
	mustPut(t, s, testKey(1), "whole")
	if st := mustOpen(t, Options{Dir: dir}).Stats(); st.Entries != 1 || st.Quarantined != 0 {
		t.Fatalf("reopen after a rolled-back short write: %+v", st)
	}
}

// TestPutTruncateFails: when the rollback of a failed append fails too,
// Put returns both errors; the earlier entry stays servable in-process,
// and after reopen the torn bytes are quarantined, not served.
func TestPutTruncateFails(t *testing.T) {
	dir := t.TempDir()
	k0, k1 := testKey(0), testKey(1)
	seedStore(t, dir, k0)
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: dir, FS: ffs})
	ffs.shortWrite, ffs.truncErr = true, syscall.EIO
	err := s.Put(k1, 1, []byte("torn result"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put over a failing rollback: %v, want EIO", err)
	}
	if _, err := s.Get(k0); err != nil {
		t.Fatalf("prior entry lost: %v", err)
	}
	s2 := mustOpen(t, Options{Dir: dir})
	if _, err := s2.Get(k1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record served after reopen: %v", err)
	}
	if _, err := s2.Get(k0); err != nil {
		t.Fatalf("prior entry lost after reopen: %v", err)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("torn tail not quarantined: %+v", st)
	}
}

// TestPutCreateFails: a segment roll that cannot create its file fails
// the Put that needed it.
func TestPutCreateFails(t *testing.T) {
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, MaxBytes: 4 * (entryHeaderLen + 1)})
	mustPut(t, s, testKey(0), "x") // fills segment 1
	ffs.createErr, ffs.pathPattern = syscall.EACCES, segName(2)
	if err := s.Put(testKey(1), 1, []byte("x")); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("Put: %v, want EACCES", err)
	}
	if _, err := s.Get(testKey(0)); err != nil {
		t.Fatalf("prior entry lost: %v", err)
	}
}

func TestPutSyncFails(t *testing.T) {
	ffs := &faultFS{inner: OSFS{}, syncErr: syscall.EIO, pathPattern: segName(1)}
	s := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, Fsync: FsyncAlways})
	if err := s.Put(testKey(0), 1, []byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put: %v, want EIO", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("unsynced entry was indexed: %+v", st)
	}
	// Under FsyncNone the same fault never fires.
	s2 := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, Fsync: FsyncNone})
	if err := s2.Put(testKey(0), 1, []byte("x")); err != nil {
		t.Fatalf("Put with FsyncNone: %v", err)
	}
}

// TestGetReadError: a real read failure (not corruption) comes back as the
// I/O error itself, NOT ErrNotFound — that distinction is what the service
// keys its degrade-to-memory-only decision on.
func TestGetReadError(t *testing.T) {
	dir := t.TempDir()
	k := testKey(0)
	seedStore(t, dir, k)
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: dir, FS: ffs})
	// Arm after Open: a scan-time read error is fatal (covered below),
	// this test is about the serving path.
	ffs.readErr = syscall.EIO
	_, err := s.Get(k)
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get under EIO: %v, want the I/O error itself", err)
	}
	// The entry must not have been quarantined: the bytes on disk are fine.
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("I/O error caused quarantine: %+v", st)
	}
}

// TestScanReadErrorFailsOpen: an I/O error during the startup scan is a
// fatal Open error, not a silent quarantine — a flaky disk at boot should
// stop the store from coming up half-blind.
func TestScanReadErrorFailsOpen(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, testKey(0))
	ffs := &faultFS{inner: OSFS{}, readErr: syscall.EIO, pathPattern: ".mdsl"}
	if _, err := Open(Options{Dir: dir, FS: ffs}); err == nil {
		t.Fatal("Open succeeded over a disk that cannot read segments")
	}
}

// TestOpenProbeFails: a directory where the first segment cannot be
// created fails Open, not the first Put.
func TestOpenProbeFails(t *testing.T) {
	ffs := &faultFS{inner: OSFS{}, createErr: syscall.EROFS, pathPattern: ".mdsl"}
	if _, err := Open(Options{Dir: t.TempDir(), FS: ffs}); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("Open on read-only fs: %v, want EROFS", err)
	}
}

// TestPutSyncDirFails: under FsyncAlways a roll syncs the directory, and
// a failure there fails the Put that rolled.
func TestPutSyncDirFails(t *testing.T) {
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, Fsync: FsyncAlways, MaxBytes: 4 * (entryHeaderLen + 1)})
	mustPut(t, s, testKey(0), "x") // fills segment 1
	ffs.syncDirErr = syscall.EIO
	if err := s.Put(testKey(1), 1, []byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put: %v, want EIO from SyncDir", err)
	}
}

// TestEvictionRemoveError: a Remove failure while reclaiming an evicted
// segment surfaces to the Put caller (the service degrades) instead of
// silently leaking budget.
func TestEvictionRemoveError(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Repeat("z", 100)
	one := entryHeaderLen + int64(len(payload))
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: dir, MaxBytes: one, FS: ffs})
	if err := s.Put(testKey(0), 1, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	ffs.removeErr, ffs.pathPattern = syscall.EIO, segName(1)
	if err := s.Put(testKey(1), 1, []byte(payload)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put over failing eviction: %v, want EIO", err)
	}
}

// TestPutCreatesOneFilePerSegment: N Puts create at most one file per
// segment they fill, and sync the directory only when a segment rolls.
func TestPutCreatesOneFilePerSegment(t *testing.T) {
	payload := strings.Repeat("c", 100)
	one := entryHeaderLen + int64(len(payload))
	const perSeg, puts = 4, 50
	ffs := &faultFS{inner: OSFS{}}
	s := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, Fsync: FsyncAlways, MaxBytes: 4 * perSeg * one})
	for i := 0; i < puts; i++ {
		mustPut(t, s, testKey(i), payload)
	}
	if max := 1 + (puts+perSeg-1)/perSeg; ffs.creates > max {
		t.Fatalf("%d Puts created %d files, want <= %d", puts, ffs.creates, max)
	}
	if ffs.syncDirs != ffs.creates {
		t.Fatalf("%d directory syncs for %d segment rolls", ffs.syncDirs, ffs.creates)
	}
}

// TestConcurrentPutGet exercises the lock paths under -race.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 64 << 10})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := testKey((w*50 + i) % 20)
				_ = s.Put(k, int64(i+1), []byte(strings.Repeat("p", 64)))
				if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("concurrent churn quarantined entries: %+v", st)
	}
}

// segmentBytes sums the sizes of the segment files in dir.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.mdsl"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
