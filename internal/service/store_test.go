package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"localmds/internal/obs"
	"localmds/internal/store"
)

// getBody fetches a URL and returns its body as text.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// openStore opens a disk store for a service test.
func openStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	opts.Dir = dir
	st, err := store.Open(opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// solveReq builds a deterministic generator solve for index i.
func solveReq(i int) SolveRequest {
	return SolveRequest{Generator: &GeneratorSpec{Kind: "ding", N: 30 + i, T: 4, Seed: int64(i + 1)}}
}

// TestTwoTierWarmRestart is the durability contract end to end: solve K
// distinct instances, tear the daemon down, bring a new one up on the same
// store directory, and repeat the traffic — every request is a cache hit
// with a positive persisted age, and the new daemon computes nothing.
func TestTwoTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	const K = 4

	s1, ts1 := startServer(t, Config{Workers: 2, Store: openStore(t, dir, store.Options{})})
	for i := 0; i < K; i++ {
		var v JobView
		if code := postJSON(t, ts1.URL+"/v1/solve", solveReq(i), &v); code != 200 {
			t.Fatalf("solve %d: HTTP %d", i, code)
		}
		if v.Cached {
			t.Fatalf("solve %d: fresh solve reported cached", i)
		}
	}
	if got := s1.Computations(); got != K {
		t.Fatalf("first daemon computed %d, want %d", got, K)
	}
	ts1.Close()
	s1.Close()

	// Restart: a new process on the same directory.
	s2 := New(Config{Workers: 2, Store: openStore(t, dir, store.Options{})})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	for i := 0; i < K; i++ {
		var v JobView
		if code := postJSON(t, ts2.URL+"/v1/solve", solveReq(i), &v); code != 200 {
			t.Fatalf("warm solve %d: HTTP %d", i, code)
		}
		if !v.Cached {
			t.Fatalf("warm solve %d not served from cache", i)
		}
		if v.CacheAgeS == nil || *v.CacheAgeS <= 0 {
			t.Fatalf("warm solve %d: cache_age_s = %v, want > 0 (persisted timestamp)", i, v.CacheAgeS)
		}
	}
	if got := s2.Computations(); got != 0 {
		t.Fatalf("warm daemon recomputed %d solves, want 0", got)
	}

	// A third wave hits the now-warm memory tier; ages keep growing from
	// the original computation, not the restart.
	var v JobView
	if code := postJSON(t, ts2.URL+"/v1/solve", solveReq(0), &v); code != 200 || v.CacheAgeS == nil || *v.CacheAgeS <= 0 {
		t.Fatalf("memory-tier repeat: code=%d view=%+v", code, v)
	}

	var health struct {
		Store string `json:"store"`
	}
	if code := getJSON(t, ts2.URL+"/healthz", &health); code != 200 || health.Store != "ok" {
		t.Fatalf("healthz: code=%d store=%q, want ok", code, health.Store)
	}
}

// TestStoreCorruptEntryRecomputed: an entry corrupted on disk between
// restarts is quarantined by the scan and simply recomputed — never
// served, never an error.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{Workers: 1, Store: openStore(t, dir, store.Options{})})
	var v JobView
	if code := postJSON(t, ts1.URL+"/v1/solve", solveReq(0), &v); code != 200 {
		t.Fatalf("solve: HTTP %d", code)
	}
	ts1.Close()
	s1.Close()

	// Flip one payload byte of the single persisted entry, the last
	// record in the only segment.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".mdsl") {
			continue
		}
		p := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 1 {
		t.Fatalf("expected exactly 1 persisted entry, corrupted %d", corrupted)
	}

	st2 := openStore(t, dir, store.Options{})
	if q := st2.Stats().Quarantined; q != 1 {
		t.Fatalf("scan quarantined %d, want 1", q)
	}
	s2, ts2 := startServer(t, Config{Workers: 1, Store: st2})
	if code := postJSON(t, ts2.URL+"/v1/solve", solveReq(0), &v); code != 200 {
		t.Fatalf("resolve after corruption: HTTP %d", code)
	}
	if v.Cached {
		t.Fatal("corrupt entry was served from cache")
	}
	if got := s2.Computations(); got != 1 {
		t.Fatalf("computed %d, want 1 (recompute of the quarantined entry)", got)
	}
}

// enospcFS passes everything through to the real filesystem except
// segment writes, which fail with ENOSPC — the injected disk-full fault.
type enospcFS struct{ store.OSFS }

func (fs enospcFS) Create(name string) (store.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return enospcFile{File: f}, nil
}

type enospcFile struct{ store.File }

func (f enospcFile) WriteAt(p []byte, off int64) (int, error) { return 0, syscall.ENOSPC }

// TestStoreDegradesOnENOSPC: a full disk must not fail a single request.
// The first persist error flips the daemon to memory-only, surfaces on
// /healthz, /metrics, and the event bus, and every solve still succeeds.
func TestStoreDegradesOnENOSPC(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{FS: enospcFS{}})
	s, ts := startServer(t, Config{Workers: 1, Store: st})

	sub := s.bus.Subscribe(0, 16)
	defer sub.Cancel()

	var v JobView
	if code := postJSON(t, ts.URL+"/v1/solve", solveReq(0), &v); code != 200 {
		t.Fatalf("solve under ENOSPC: HTTP %d, want 200 (degrade, not fail)", code)
	}
	var health struct {
		Store string `json:"store"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health.Store != "degraded" {
		t.Fatalf("healthz: code=%d store=%q, want degraded", code, health.Store)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatal("event stream closed without store_degraded")
			}
			if e.Type == obs.EventStoreDegraded {
				if e.Error == "" {
					t.Fatalf("store_degraded event without a cause: %+v", e)
				}
				goto degraded
			}
		case <-deadline:
			t.Fatal("no store_degraded event within 5s")
		}
	}
degraded:

	// Once degraded the memory tier still works: the repeat is a hit and
	// the dead disk is never touched again.
	if code := postJSON(t, ts.URL+"/v1/solve", solveReq(0), &v); code != 200 || !v.Cached {
		t.Fatalf("repeat after degrade: code=%d cached=%v", code, v.Cached)
	}

	body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "mdsd_store_degraded 1") {
		t.Fatal("metrics missing mdsd_store_degraded 1")
	}
}
