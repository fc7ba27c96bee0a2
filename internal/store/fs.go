package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the store performs all I/O through.
// Production uses OSFS; tests swap in wrappers that inject ENOSPC, short
// writes, read errors, and truncate or remove failures at precise points,
// so every degraded-mode path is exercised without a real disk fault.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// Open opens an existing file for reading and writing: a segment is
	// read by Get and the startup scan, and the last one is appended to.
	Open(name string) (File, error)
	// Create truncate-creates a file for reading and writing. The store
	// calls it once per segment and once per quarantined tail, never per
	// entry.
	Create(name string) (File, error)
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	// Truncate cuts a file back to size: it rolls back a failed append
	// and cuts a torn tail off a segment at scan time.
	Truncate(name string, size int64) error
	// SyncDir flushes directory metadata to stable storage, so a new
	// segment's directory entry survives a crash.
	SyncDir(name string) error
}

// File is the per-file surface: positioned reads and writes (records are
// read at their recorded offset and appended at the segment's known end),
// Sync for the fsync policy, and Stat for the segment's size at Open.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) Open(name string) (File, error) { return os.OpenFile(name, os.O_RDWR, 0) }

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
