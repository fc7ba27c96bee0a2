package store

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"localmds/internal/graph"
)

// FsyncPolicy selects how hard Put pushes an entry to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the segment after every append and the directory
	// after every new segment: once Put returns, the entry survives a
	// crash or power loss. This is the durability contract the service's
	// persist-before-respond ordering relies on.
	FsyncAlways FsyncPolicy = iota
	// FsyncNone skips both syncs: a crash may lose recently appended
	// entries that were only in the page cache, and the torn tail such a
	// crash leaves is quarantined by the next Open (never served).
	FsyncNone
)

// ParseFsyncPolicy parses the -store-fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always or none)", s)
}

func (p FsyncPolicy) String() string {
	if p == FsyncNone {
		return "none"
	}
	return "always"
}

// Key content-addresses one persisted result: the canonical fingerprint
// of the frozen CSR plus the normalized solver params string. It is the
// disk twin of the service layer's in-memory cache key, which is what
// makes client retries and warm restarts safe: the same request always
// lands on the same entry.
type Key struct {
	Fingerprint graph.Fingerprint
	Params      string
}

// recKey is a Key as the entry header records it: the params string is
// stored as its hash.
type recKey struct {
	fp graph.Fingerprint
	ph uint64
}

func (k Key) rec() recKey { return recKey{fp: k.Fingerprint, ph: paramsHash(k.Params)} }

const (
	// quarantineDir is the subdirectory torn segment tails are copied to.
	quarantineDir = "quarantine"
	// maxSegmentBytes caps a segment before the next append rolls a new
	// one; a byte budget lowers it to a quarter of the budget, so a
	// store's dead bytes stay small next to its live ones.
	maxSegmentBytes = 4 << 20
	// maxPayloadBytes bounds a single entry's payload on read, so a forged
	// length field cannot balloon allocation.
	maxPayloadBytes = 1 << 30
)

// segName renders the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.mdsl", seq) }

// parseSegName inverts segName; any other name is not a segment.
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	_, err := fmt.Sscanf(name, "seg-%d.mdsl", &seq)
	return seq, err == nil && segName(seq) == name
}

// ErrNotFound reports a clean miss: no entry, or an entry that failed
// validation and was quarantined. It is never an I/O failure — those come
// back verbatim so the caller can degrade.
var ErrNotFound = errors.New("store: entry not found")

// errClosed is returned by Get and Put after Close.
var errClosed = errors.New("store: closed")

// Options configure Open.
type Options struct {
	// Dir is the store directory; created if absent. Open fails if it
	// cannot be created or is not writable.
	Dir string
	// MaxBytes is the budget across live entries; when a Put would
	// exceed it, least-recently-used entries are evicted, and disk use
	// stays within MaxBytes plus one segment. <= 0 means unlimited.
	MaxBytes int64
	// Fsync is the durability policy for writes.
	Fsync FsyncPolicy
	// FS is the filesystem to use; nil selects OSFS. Tests inject
	// fault-wrapped filesystems here.
	FS FS
}

// Stats is a point-in-time snapshot of the store's accounting.
type Stats struct {
	// Entries and Bytes describe the live (servable) entry set.
	Entries int
	Bytes   int64
	// Quarantined counts records set aside since Open — corrupt records
	// and torn tails found by the startup scan, records caught later by
	// Get validation, and discarded ones. Quarantined records are never
	// served.
	Quarantined int64
	// Evictions counts entries dropped by the byte-budget LRU.
	Evictions int64
	// Hits and Misses count Get outcomes.
	Hits   int64
	Misses int64
}

// segment is one log file. Every segment but the last is sealed; the
// last is the active one Put appends to.
type segment struct {
	path string
	f    File
	size int64 // end of the last record: the next append lands here
	live int64 // bytes of the records the index points into
}

// indexEntry is one live entry: where its record sits in the log.
type indexEntry struct {
	key  recKey
	seg  *segment
	off  int64
	size int64
}

// Store is the disk-backed result store. All methods are safe for
// concurrent use; file I/O is serialized under one lock, which is fine at
// this layer — a Put is one append, and the memory LRU in front of the
// store absorbs the hot path.
type Store struct {
	mu       sync.Mutex
	fs       FS
	dir      string
	qdir     string
	maxBytes int64
	segCap   int64
	fsync    FsyncPolicy

	segs    []*segment // ascending sequence; the last is active
	nextSeq uint64
	disk    int64 // bytes across all segments, live and dead
	closed  bool

	ll    *list.List               // front = most recently used
	items map[recKey]*list.Element // key -> *indexEntry element
	bytes int64                    // live bytes

	quarantined int64
	evictions   int64
	hits        int64
	misses      int64
}

// Open creates (if needed) and scans the store directory, then opens the
// segment Put appends to: the last one when it has room, else a new one.
// Opening every segment for writing, or creating the first, is what makes
// a read-only directory fail here, at startup, not on the first solve.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	segCap := int64(maxSegmentBytes)
	if opts.MaxBytes > 0 {
		segCap = min(segCap, opts.MaxBytes/4)
	}
	s := &Store{
		fs:       fsys,
		dir:      opts.Dir,
		qdir:     filepath.Join(opts.Dir, quarantineDir),
		maxBytes: opts.MaxBytes,
		segCap:   segCap,
		fsync:    opts.Fsync,
		nextSeq:  1,
		ll:       list.New(),
		items:    make(map[recKey]*list.Element),
	}
	if err := fsys.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", s.dir, err)
	}
	if err := fsys.MkdirAll(s.qdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", s.qdir, err)
	}
	err := s.scan()
	if err == nil && (len(s.segs) == 0 || s.active().size >= s.segCap) {
		err = s.rollLocked()
	}
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

// active is the segment Put appends to.
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// scan rebuilds the index from the segments in sequence order. Files
// that are not segments (the quarantine subdirectory, anything foreign)
// are left alone. An I/O error fails Open: a flaky disk at boot should
// stop the store from coming up half-blind.
func (s *Store) scan() error {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	var seqs []uint64
	for _, de := range des {
		if seq, ok := parseSegName(de.Name()); ok && !de.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if err := s.scanSegment(filepath.Join(s.dir, segName(seq))); err != nil {
			return fmt.Errorf("store: scan %s: %w", segName(seq), err)
		}
		s.nextSeq = seq + 1
	}
	return nil
}

// scanSegment indexes one segment's records in log order, so the
// startup LRU order is the log order and a later record for a key
// replaces an earlier one.
func (s *Store) scanSegment(path string) error {
	f, err := s.fs.Open(path)
	if err != nil {
		return err
	}
	seg := &segment{path: path, f: f}
	s.segs = append(s.segs, seg) // from here on Close releases f
	info, err := f.Stat()
	if err != nil {
		return err
	}
	data := make([]byte, info.Size())
	if n, err := f.ReadAt(data, 0); n < len(data) {
		return err
	}
	off := int64(0)
	for off < int64(len(data)) {
		e, plen, ok := s.headerAt(data, off)
		if !ok {
			next := s.resync(data, off+1)
			if next < 0 {
				if err := s.quarantineTail(seg, data[off:], off); err != nil {
					return err
				}
				break
			}
			s.quarantined++ // the unreadable bytes stay behind as dead space
			off = next
			continue
		}
		end := off + entryHeaderLen + plen
		if checkPayload(data[off:off+entryHeaderLen], data[off+entryHeaderLen:end]) == nil {
			s.indexLocked(recKey{fp: e.Fingerprint, ph: e.ParamsHash}, seg, off, end-off)
		} else {
			s.quarantined++ // the header vouches for the length: skip it
		}
		off = end
	}
	seg.size = off
	s.disk += off
	return nil
}

// headerAt decodes the record header at off if it verifies and the
// record it declares ends within data.
func (s *Store) headerAt(data []byte, off int64) (*Entry, int64, bool) {
	if int64(len(data))-off < entryHeaderLen {
		return nil, 0, false
	}
	e, plen, err := parseEntryHeader(data[off:off+entryHeaderLen], maxPayloadBytes)
	if err != nil || plen > int64(len(data))-off-entryHeaderLen {
		return nil, 0, false
	}
	return e, plen, true
}

// resync returns the offset of the first magic at or after from that
// starts a verifying header, or -1.
func (s *Store) resync(data []byte, from int64) int64 {
	for from < int64(len(data)) {
		i := bytes.Index(data[from:], entryMagic[:])
		if i < 0 {
			return -1
		}
		if _, _, ok := s.headerAt(data, from+int64(i)); ok {
			return from + int64(i)
		}
		from += int64(i) + 1
	}
	return -1
}

// quarantineTail copies a segment's unreadable tail to
// quarantine/<segment>@<offset>, for forensics, and cuts it off the
// segment so the next append lands on a record boundary.
func (s *Store) quarantineTail(seg *segment, tail []byte, off int64) error {
	f, err := s.fs.Create(filepath.Join(s.qdir, fmt.Sprintf("%s@%d", filepath.Base(seg.path), off)))
	if err != nil {
		return err
	}
	_, err = f.WriteAt(tail, 0)
	if err == nil && s.fsync == FsyncAlways {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Truncate(seg.path, off)
	}
	if err != nil {
		return err
	}
	s.quarantined++
	return nil
}

// indexLocked points key at a record, as the most recently used entry;
// the record it pointed at before, if any, becomes dead space.
func (s *Store) indexLocked(key recKey, seg *segment, off, size int64) *list.Element {
	el, ok := s.items[key]
	if ok {
		ie := el.Value.(*indexEntry)
		ie.seg.live -= ie.size
		s.bytes -= ie.size
		ie.seg, ie.off, ie.size = seg, off, size
		s.ll.MoveToFront(el)
	} else {
		el = s.ll.PushFront(&indexEntry{key: key, seg: seg, off: off, size: size})
		s.items[key] = el
	}
	seg.live += size
	s.bytes += size
	return el
}

// dropLocked removes an entry from the index; its record becomes dead
// space, reclaimed with its segment.
func (s *Store) dropLocked(el *list.Element) {
	ie := el.Value.(*indexEntry)
	s.ll.Remove(el)
	delete(s.items, ie.key)
	s.bytes -= ie.size
	ie.seg.live -= ie.size
}

// Get returns the entry stored for key. A missing entry — or one that
// fails validation, which is dropped and counted as quarantined — is
// ErrNotFound; any other error is a real I/O failure the caller should
// treat as the disk going away (the service flips to memory-only mode on
// it).
func (s *Store) Get(key Key) (*Entry, error) {
	k := key.rec()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	el, ok := s.items[k]
	if !ok {
		s.misses++
		return nil, ErrNotFound
	}
	ie := el.Value.(*indexEntry)
	e, err := ReadEntry(io.NewSectionReader(ie.seg.f, ie.off, ie.size), maxPayloadBytes)
	if err != nil {
		var fe *FormatError
		if !errors.As(err, &fe) {
			return nil, err
		}
	} else if e.Fingerprint == key.Fingerprint && e.ParamsHash == k.ph {
		s.ll.MoveToFront(el)
		s.hits++
		return e, nil
	}
	// Corruption that appeared after the scan: never serve it.
	s.dropLocked(el)
	s.quarantined++
	s.misses++
	return nil, ErrNotFound
}

// Put persists one result: one write of the encoded entry at the active
// segment's end and, under FsyncAlways, one sync. On success,
// least-recently-used entries are evicted until the store fits its byte
// budget again (the fresh entry itself is never evicted). A failed write
// or sync truncates the segment back to its previous end, so earlier
// entries stay servable.
func (s *Store) Put(key Key, computedAtNanos int64, payload []byte) error {
	e := &Entry{
		Fingerprint:     key.Fingerprint,
		ParamsHash:      paramsHash(key.Params),
		ComputedAtNanos: computedAtNanos,
		Payload:         payload,
	}
	size := entrySize(e)
	if s.maxBytes > 0 && size > s.maxBytes {
		// An entry that alone exceeds the whole budget would immediately
		// evict everything and then be evicted by its successor; skipping
		// it keeps the store useful. The memory tier still serves it.
		return nil
	}
	rec := append(encodeEntryHeader(e), payload...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	seg, off, err := s.appendLocked(rec)
	if err != nil {
		return err
	}
	el := s.indexLocked(key.rec(), seg, off, size)
	s.evictLocked(el)
	return s.reclaimLocked()
}

// appendLocked writes rec at the active segment's end, rolling a new
// segment first when rec would overflow a non-empty one.
func (s *Store) appendLocked(rec []byte) (*segment, int64, error) {
	if seg := s.active(); seg.size > 0 && seg.size+int64(len(rec)) > s.segCap {
		if err := s.rollLocked(); err != nil {
			return nil, 0, err
		}
	}
	seg := s.active()
	off := seg.size
	_, err := seg.f.WriteAt(rec, off)
	if err == nil && s.fsync == FsyncAlways {
		err = seg.f.Sync()
	}
	if err != nil {
		if terr := s.fs.Truncate(seg.path, off); terr != nil {
			return nil, 0, errors.Join(err, terr)
		}
		return nil, 0, err
	}
	seg.size += int64(len(rec))
	s.disk += int64(len(rec))
	return seg, off, nil
}

// rollLocked seals the active segment and starts the next one: the only
// place a file is created, and, under FsyncAlways, the only directory
// sync on the write path.
func (s *Store) rollLocked() error {
	path := filepath.Join(s.dir, segName(s.nextSeq))
	f, err := s.fs.Create(path)
	if err != nil {
		return err
	}
	if s.fsync == FsyncAlways {
		if err := s.fs.SyncDir(s.dir); err != nil {
			_ = f.Close()
			_ = s.fs.Remove(path)
			return err
		}
	}
	s.nextSeq++
	s.segs = append(s.segs, &segment{path: path, f: f})
	return nil
}

// evictLocked drops least-recently-used entries until the live bytes fit
// the budget, never touching keep (the entry just written).
func (s *Store) evictLocked(keep *list.Element) {
	for s.maxBytes > 0 && s.bytes > s.maxBytes {
		back := s.ll.Back()
		if back == nil || back == keep {
			return
		}
		s.dropLocked(back)
		s.evictions++
	}
}

// reclaimLocked removes sealed segments no live entry points into, then
// compacts the oldest sealed segments while dead bytes push disk use past
// the budget plus one segment.
func (s *Store) reclaimLocked() error {
	for i := 0; i < len(s.segs)-1; {
		if s.segs[i].live > 0 {
			i++
			continue
		}
		if err := s.removeSegmentLocked(i); err != nil {
			return err
		}
	}
	for n := len(s.segs) - 1; n > 0 && len(s.segs) > 1 && s.maxBytes > 0 && s.disk > s.maxBytes+s.segCap; n-- {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked re-appends the oldest sealed segment's live records, in
// log order and in one write, then removes the segment. A crash between
// the two leaves both copies; the scan keeps the later one.
func (s *Store) compactLocked() error {
	old := s.segs[0]
	var moved []*indexEntry
	for el := s.ll.Front(); el != nil; el = el.Next() {
		if ie := el.Value.(*indexEntry); ie.seg == old {
			moved = append(moved, ie)
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].off < moved[j].off })
	buf := make([]byte, 0, old.live)
	for _, ie := range moved {
		rec := buf[len(buf) : len(buf)+int(ie.size)]
		if n, err := old.f.ReadAt(rec, ie.off); n < len(rec) {
			return err
		}
		buf = buf[:len(buf)+len(rec)]
	}
	seg, off, err := s.appendLocked(buf)
	if err != nil {
		return err
	}
	for _, ie := range moved {
		ie.seg, ie.off = seg, off
		off += ie.size
	}
	seg.live += old.live
	old.live = 0
	return s.removeSegmentLocked(0)
}

// removeSegmentLocked deletes segment i, which no live entry points into.
func (s *Store) removeSegmentLocked(i int) error {
	seg := s.segs[i]
	if err := s.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	_ = seg.f.Close()
	s.segs = append(s.segs[:i], s.segs[i+1:]...)
	s.disk -= seg.size
	return nil
}

// Discard drops the entry for key from the index, if present. The service
// layer calls it when a checksum-valid payload fails to deserialize — a
// schema mismatch rather than disk corruption — so the entry stops being
// offered. The record stays in its segment until the segment is reclaimed,
// so a restart may index it again; the service's re-check rejects it again
// there, so it is never served to a client.
func (s *Store) Discard(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key.rec()]; ok {
		s.dropLocked(el)
		s.quarantined++
	}
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     s.ll.Len(),
		Bytes:       s.bytes,
		Quarantined: s.quarantined,
		Evictions:   s.evictions,
		Hits:        s.hits,
		Misses:      s.misses,
	}
}

// Close closes the segment handles; Get and Put fail afterwards. The
// daemon calls it once its jobs have drained and its listener is shut.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, seg := range s.segs {
		errs = append(errs, seg.f.Close())
	}
	return errors.Join(errs...)
}

var _ io.Closer = (*Store)(nil)
