package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"localmds/internal/store"
)

// plainJobView is JobView with no methods at all: its json.Marshal is the
// default encoding, which the spliced one must reproduce byte for byte.
type plainJobView JobView

// checkSplice asserts that the job's view encodes exactly as the default
// encoding does, through JobView.encode and through GET /v1/jobs/{id}.
// sealed says the view must carry an outcome with cached bytes, so the
// splice (not the fallback marshal) is what ran.
func checkSplice(t *testing.T, s *Server, base, name, id string, sealed bool) {
	t.Helper()
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("%s: unknown job %s", name, id)
	}
	v := j.view()
	if sealed && (v.SolveOutcome == nil || v.SolveOutcome.encoded == nil) {
		t.Fatalf("%s: view has no sealed outcome", name)
	}
	want, err := json.Marshal(plainJobView(v))
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: spliced encoding differs\n got %s\nwant %s", name, got, want)
	}
	if body := getBody(t, base+"/v1/jobs/"+id); body != string(want)+"\n" {
		t.Fatalf("%s: GET /v1/jobs/%s differs\n got %s\nwant %s", name, id, body, want)
	}
}

// TestJobViewSpliceMatchesDefaultEncoding covers every kind of view a
// job can show: queued, failed, done, a memory-cache hit, a hit warmed
// from the disk store, and an outcome that was never sealed.
func TestJobViewSpliceMatchesDefaultEncoding(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, Config{Workers: 1, Store: openStore(t, dir, store.Options{})})

	queued := s.jobs.create("data/edgelist", false)
	checkSplice(t, s, ts.URL, "queued", queued.ID, false)

	failed := s.jobs.create("graph", false)
	failed.markRunning()
	failed.finish(nil, errors.New(`solver <failed> & "stopped"`))
	checkSplice(t, s, ts.URL, "failed", failed.ID, false)

	var done, hit JobView
	postJSON(t, ts.URL+"/v1/solve", solveReq(0), &done)
	postJSON(t, ts.URL+"/v1/solve", solveReq(0), &hit)
	if done.Cached || !hit.Cached {
		t.Fatalf("cached = %v then %v, want false then true", done.Cached, hit.Cached)
	}
	checkSplice(t, s, ts.URL, "done", done.ID, true)
	checkSplice(t, s, ts.URL, "cached", hit.ID, true)

	unsealed := s.jobs.create("generator:grid", true)
	unsealed.finish(&SolveOutcome{Fingerprint: "fp", N: 3}, nil)
	checkSplice(t, s, ts.URL, "unsealed", unsealed.ID, false)
	ts.Close()
	s.Close()

	// A new daemon on the same directory serves the entry from disk.
	s2 := New(Config{Workers: 1, Store: openStore(t, dir, store.Options{})})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	var warmed JobView
	postJSON(t, ts2.URL+"/v1/solve", solveReq(0), &warmed)
	if !warmed.Cached || s2.Computations() != 0 {
		t.Fatalf("store hit: cached=%v computations=%d", warmed.Cached, s2.Computations())
	}
	checkSplice(t, s2, ts2.URL, "store-warmed", warmed.ID, true)
}

// TestConcurrentHitsShareSealedBytes hammers one cache entry from many
// clients. Every response must end in the entry's sealed bytes, and the
// bytes must never change; under -race any write to them is reported.
func TestConcurrentHitsShareSealedBytes(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	req := solveReq(1)
	postJSON(t, ts.URL+"/v1/solve", req, nil)
	ps, err := parseSolve(&req)
	if err != nil {
		t.Fatal(err)
	}
	out, _, ok := s.cache.get(ps.key)
	if !ok || out.encoded == nil {
		t.Fatal("solved outcome not cached and sealed")
	}
	sealed := bytes.Clone(out.encoded)
	tail := append(bytes.Clone(sealed[1:]), '\n')
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perClient {
				resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err == nil && !bytes.HasSuffix(buf.Bytes(), tail) {
					err = errors.New("response does not end in the sealed outcome: " + buf.String())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !bytes.Equal(out.encoded, sealed) {
		t.Fatal("sealed outcome bytes changed under concurrent hits")
	}
	if got := s.Computations(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
}
