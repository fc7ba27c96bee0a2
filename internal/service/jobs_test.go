package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"localmds/internal/store"
)

// plainJobView is JobView with no methods at all: its json.Marshal is the
// default encoding, which the spliced one must reproduce byte for byte.
type plainJobView JobView

// checkSplice asserts that the job's view encodes exactly as the default
// encoding of the view with its outcome decoded from the sealed bytes
// does, through JobView.writeTo and through GET /v1/jobs/{id}. sealed says
// the view must carry an outcome with cached bytes and no decoded result,
// so the splice (not the fallback marshal) is what ran.
func checkSplice(t *testing.T, s *Server, base, name, id string, sealed bool) {
	t.Helper()
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("%s: unknown job %s", name, id)
	}
	v := j.view()
	if sealed && (v.SolveOutcome == nil || v.SolveOutcome.encoded == nil || v.SolveOutcome.Result != nil) {
		t.Fatalf("%s: view has no sealed outcome, or one that still holds its result", name)
	}
	ref := v
	if sealed {
		ref.SolveOutcome = new(SolveOutcome)
		if err := json.Unmarshal(v.SolveOutcome.encoded, ref.SolveOutcome); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(plainJobView(ref))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := v.writeTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Fatalf("%s: spliced encoding differs\n got %s\nwant %s", name, got.Bytes(), want)
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

// TestRememberedJobsHoldOnlySealedBytes solves more distinct instances
// than the memory cache holds. Every remembered job's outcome must be the
// sealed bytes alone, with no decoded result behind them, and a job whose
// key has left the cache must still answer GET /v1/jobs/{id} with the body
// its /v1/solve response carried.
func TestRememberedJobsHoldOnlySealedBytes(t *testing.T) {
	const distinct = 5
	s, ts := startServer(t, Config{Workers: 1, CacheEntries: 2})
	first := solveReq(0)
	ps, err := parseSolve(&first)
	if err != nil {
		t.Fatal(err)
	}
	solved := make(map[string]string, distinct) // job ID -> solve response body
	for i := range distinct {
		body, err := json.Marshal(solveReq(i))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: HTTP %d, %v", i, resp.StatusCode, err)
		}
		var v JobView
		if err := json.Unmarshal(raw, &v); err != nil || v.Result == nil || v.Cached {
			t.Fatalf("solve %d: cached=%v, decoded result %v, err %v", i, v.Cached, v.Result != nil, err)
		}
		solved[v.ID] = string(raw)
	}
	if _, _, ok := s.cache.get(ps.key); ok {
		t.Fatal("the first solve's key is still cached; the test needs it evicted")
	}

	s.jobs.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs {
		jobs = append(jobs, j)
	}
	s.jobs.mu.Unlock()
	if len(jobs) != distinct {
		t.Fatalf("%d remembered jobs, want %d", len(jobs), distinct)
	}
	for _, j := range jobs {
		out := j.view().SolveOutcome
		if out == nil || out.encoded == nil || out.Result != nil {
			t.Fatalf("%s: remembered outcome is not the sealed bytes alone", j.ID)
		}
		body := getBody(t, ts.URL+"/v1/jobs/"+j.ID)
		if body != solved[j.ID] {
			t.Fatalf("%s: GET /v1/jobs differs from the solve response\n got %s\nwant %s", j.ID, body, solved[j.ID])
		}
		if !strings.HasSuffix(body, string(out.encoded[1:])+"\n") {
			t.Fatalf("%s: body does not end in the sealed outcome", j.ID)
		}
	}
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

// refJobStore is the job retention policy as one pass over every retained
// ID per create, the form it had before jobStore kept a deque: the oracle
// for jobStore.evictLocked.
type refJobStore struct {
	jobs  map[string]*Job
	order []string
	keep  int
}

func (s *refJobStore) add(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictLocked()
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
func (s *refJobStore) evictLocked() {
	if len(s.jobs) <= s.keep {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.keep {
			j.mu.Lock()
			terminal := j.status == StatusDone || j.status == StatusFailed
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// retainedIDs lists the store's retained jobs in its eviction order.
func retainedIDs(s *jobStore) []string {
	var ids []string
	for _, j := range s.held {
		ids = append(ids, j.ID)
	}
	for _, j := range s.order[s.head:] {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestJobRetentionMatchesFullScan runs scripted create/finish sequences
// through jobStore and the full-scan oracle side by side and compares the
// retained IDs, in order, after every step. Every script leaves its first
// jobs queued, so eviction has to pass over unfinished jobs at the front,
// and then finishes them in random order.
func TestJobRetentionMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keep := 1 + rng.Intn(8)
		s := newJobStore(keep)
		ref := &refJobStore{jobs: map[string]*Job{}, keep: keep}
		twin := map[*Job]*Job{} // store job → oracle job
		var live []*Job
		for step := range 400 {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				j := live[i]
				live = append(live[:i], live[i+1:]...)
				j.finish(nil, nil)
				twin[j].finish(nil, nil)
			} else {
				j := s.create("graph", false)
				rj := &Job{ID: j.ID, status: StatusQueued, done: make(chan struct{})}
				ref.add(rj)
				twin[j] = rj
				if step < 3 || rng.Intn(4) == 0 {
					live = append(live, j)
				} else {
					j.finish(nil, nil)
					rj.finish(nil, nil)
				}
			}
			if got := retainedIDs(s); !slices.Equal(got, ref.order) {
				t.Fatalf("seed %d step %d (keep %d): retained %v, oracle %v", seed, step, keep, got, ref.order)
			}
			if len(s.jobs) != len(ref.jobs) {
				t.Fatalf("seed %d step %d: %d jobs indexed, oracle %d", seed, step, len(s.jobs), len(ref.jobs))
			}
			for id := range ref.jobs {
				if _, ok := s.get(id); !ok {
					t.Fatalf("seed %d step %d: job %s evicted, oracle keeps it", seed, step, id)
				}
			}
		}
	}
}
