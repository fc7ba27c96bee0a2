package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// exchange is one POST /v1/solve as the client saw it.
type exchange struct {
	status int
	header http.Header
	body   []byte
}

// postBody sends body to POST /v1/solve through the server's full
// handler stack, in process.
func postBody(s *Server, body io.Reader) exchange {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", body))
	return exchange{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

func post(s *Server, body string) exchange { return postBody(s, strings.NewReader(body)) }

// view decodes a solve response's header fields and fingerprint.
func (e exchange) view(t *testing.T) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(e.body, &v); err != nil {
		t.Fatalf("decode response %s: %v", e.body, err)
	}
	return v
}

// withoutRequestFields is a solve response without the fields that
// belong to the request rather than to the answer.
func withoutRequestFields(t *testing.T, b []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("decode response %s: %v", b, err)
	}
	for _, k := range []string{"job_id", "created", "finished", "cache_age_s"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// parseBody is what the parse path makes of a body: a decoder reads the
// first JSON value, then parseSolve validates it.
func parseBody(body []byte) (*parsedSolve, error) {
	var req SolveRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return parseSolve(&req)
}

// memoSeeds are FuzzParseSolve's seeds plus bodies whose bytes differ
// from their first JSON value.
func memoSeeds() []string {
	return append(append([]string(nil), parseSolveSeeds...),
		`{"data": "0 1\n1 2\n"} trailing bytes`,
		`{"data": "0 1\n1 2\n"}{"data": "5 6\n"}`,
		" \n{\"data\": \"0 1\\n1 2\\n\"}\t",
		`{"data": "0 1\n1 2\n"`, // truncated
	)
}

// TestRequestMemoMatchesParse sends every seed body twice and holds the
// body-digest path to the parse path: an accepted body is answered the
// second time from its digest, with the key, source and fingerprint
// parseSolve gives it, and with the bytes a parse-path hit gets apart
// from the per-request fields; a rejected body is never indexed and gets
// the same 400 both times.
func TestRequestMemoMatchesParse(t *testing.T) {
	for i, seed := range memoSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer s.Close()
			body := []byte(seed)
			digest := bodyDigest(sha256.Sum256(body))
			ps, perr := parseBody(body)
			first, second := post(s, seed), post(s, seed)
			if perr != nil {
				if first.status != http.StatusBadRequest || second.status != first.status ||
					!bytes.Equal(first.body, second.body) {
					t.Fatalf("rejected body %q: %d %s then %d %s, want the same 400 twice",
						seed, first.status, first.body, second.status, second.body)
				}
				if _, ok := s.cache.lookupBody(digest); ok {
					t.Fatalf("rejected body %q was indexed", seed)
				}
				if n := s.memoHits.Load(); n != 0 {
					t.Fatalf("rejected body %q: %d memo hits", seed, n)
				}
				return
			}
			if first.status != http.StatusOK || second.status != http.StatusOK {
				t.Fatalf("accepted body %q: statuses %d, %d (%s)", seed, first.status, second.status, second.body)
			}
			if a, ok := s.cache.lookupBody(digest); !ok || a != (bodyAlias{key: ps.key, source: ps.source}) {
				t.Fatalf("body %q indexed as %+v (%v), parseSolve gives key %v source %q", seed, a, ok, ps.key, ps.source)
			}
			v := second.view(t)
			if !v.Cached || v.Source != ps.source || v.SolveOutcome == nil || v.Fingerprint != ps.key.fp.String() {
				t.Fatalf("repeat of %q: cached %v source %q fingerprint %v; want a hit with %q, %s",
					seed, v.Cached, v.Source, v.SolveOutcome, ps.source, ps.key.fp)
			}
			if n := s.memoHits.Load(); n != 1 {
				t.Fatalf("repeat of %q: %d memo hits, want 1", seed, n)
			}
			// Another body of the same request is a hit through the parse
			// path; its answer must read the same.
			parsed := post(s, seed+"\n")
			if pv := parsed.view(t); parsed.status != http.StatusOK || !pv.Cached {
				t.Fatalf("variant of %q: status %d cached %v", seed, parsed.status, pv.Cached)
			}
			if n := s.memoHits.Load(); n != 1 {
				t.Fatalf("variant of %q was a memo hit", seed)
			}
			if got, want := withoutRequestFields(t, second.body), withoutRequestFields(t, parsed.body); got != want {
				t.Fatalf("memo hit and parse-path hit differ:\n memo  %s\n parse %s", got, want)
			}
			if s.Computations() != 1 {
				t.Fatalf("%d computations, want 1", s.Computations())
			}
		})
	}
}

// TestRequestMemoBodyEdgeCases pins what reading the body whole changed
// nothing about: the over-cap 400 and its message, data after the first
// JSON value, and the draining 503 for an indexed body.
func TestRequestMemoBodyEdgeCases(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// One byte over the cap, inside an unterminated string, so the
	// decoder runs into the cap before the value ends.
	over := io.MultiReader(strings.NewReader(`{"data": "`),
		io.LimitReader(repeatByte('0'), maxBodyBytes+1-int64(len(`{"data": "`))))
	e := postBody(s, over)
	if e.status != http.StatusBadRequest ||
		string(e.body) != `{"error":"decode request: http: request body too large"}`+"\n" {
		t.Fatalf("over-cap body: %d %s", e.status, e.body)
	}

	// Trailing data is ignored, and the bytes with it are a memo hit
	// for the first value's solve.
	base := post(s, `{"data": "0 1\n1 2\n"}`)
	trail := `{"data": "0 1\n1 2\n"} {"data": "not json`
	for i := range 2 {
		e := post(s, trail)
		if v := e.view(t); e.status != http.StatusOK || !v.Cached || v.Fingerprint != base.view(t).Fingerprint {
			t.Fatalf("trailing data: %d %s", e.status, e.body)
		}
		if n := s.memoHits.Load(); n != int64(i) {
			t.Fatalf("trailing data, request %d: %d memo hits, want %d", i+1, n, i)
		}
	}

	// A draining server sheds an indexed body exactly as a fresh one.
	s.BeginDrain()
	for _, body := range []string{trail, `{"data": "7 8\n"}`} {
		e := post(s, body)
		var eb errorBody
		if err := json.Unmarshal(e.body, &eb); err != nil || e.status != http.StatusServiceUnavailable ||
			e.header.Get("Retry-After") != "1" || eb.Error != errDraining.Error() {
			t.Fatalf("draining, body %q: %d Retry-After %q %s", body, e.status, e.header.Get("Retry-After"), e.body)
		}
	}
	if n := s.memoHits.Load(); n != 1 {
		t.Fatalf("draining: %d memo hits, want 1", n)
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestRequestMemoConcurrentHits sends one body and a variant of it from
// many goroutines: every response is a hit for the right graph, the first
// sighting of each body parses and the rest are memo hits.
func TestRequestMemoConcurrentHits(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	bodies := []string{`{"generator": {"kind": "ding", "n": 60, "seed": 4}}`, `{"generator":{"kind":"ding","n":60,"seed":4}}`}
	want := post(s, bodies[0]).view(t).Fingerprint
	const clients, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				e := post(s, bodies[(c+i)%2])
				var v JobView
				if err := json.Unmarshal(e.body, &v); err != nil || e.status != http.StatusOK ||
					!v.Cached || v.Fingerprint != want {
					errs <- fmt.Errorf("client %d request %d: %d %s", c, i, e.status, e.body)
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
	// The variant parses until one of its requests has been indexed.
	if hits, memo := s.cacheHits.Load(), s.memoHits.Load(); hits != clients*rounds || memo < clients*rounds-clients {
		t.Fatalf("%d hits, %d memo hits; want %d hits, at most %d parsed", hits, memo, clients*rounds, clients)
	}
	if s.Computations() != 1 {
		t.Fatalf("%d computations, want 1", s.Computations())
	}
}

// TestRequestMemoEviction evicts the entry a body is indexed to: the body
// parses again and recomputes, and the index never outlives the cache.
// The concurrent half alternates two graphs through a one-entry cache, so
// entries are evicted under the lookups; every answer must still be for
// the graph its body names.
func TestRequestMemoEviction(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 1})
	defer s.Close()
	a, b := `{"data": "0 1\n1 2\n2 3\n"}`, `{"data": "0 1\n0 2\n0 3\n"}`
	fpA := post(s, a).view(t).Fingerprint
	if v := post(s, a).view(t); !v.Cached || s.memoHits.Load() != 1 {
		t.Fatalf("repeat of a: cached %v, %d memo hits", v.Cached, s.memoHits.Load())
	}
	fpB := post(s, b).view(t).Fingerprint
	if _, ok := s.cache.lookupBody(sha256.Sum256([]byte(a))); ok {
		t.Fatal("a's body is still indexed after its entry was evicted")
	}
	if v := post(s, a).view(t); v.Cached || v.Fingerprint != fpA || s.memoHits.Load() != 1 || s.Computations() != 3 {
		t.Fatalf("a after eviction: cached %v fingerprint %s, %d memo hits, %d computations; want a recompute of %s",
			v.Cached, v.Fingerprint, s.memoHits.Load(), s.Computations(), fpA)
	}

	want := map[string]string{a: fpA, b: fpB}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				body := a
				if (c+i)%2 == 1 {
					body = b
				}
				e := post(s, body)
				var v JobView
				if err := json.Unmarshal(e.body, &v); err != nil || e.status != http.StatusOK || v.Fingerprint != want[body] {
					errs <- fmt.Errorf("client %d request %d: %d %s, want fingerprint %s", c, i, e.status, e.body, want[body])
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
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if n := len(s.cache.bodies); n > maxEntryBodies*s.cache.ll.Len() {
		t.Fatalf("%d indexed bodies for %d entries", n, s.cache.ll.Len())
	}
}

// TestRequestMemoBodiesPerEntry sends more variants of one request than
// an entry keeps: the oldest digests give way, and a body that lost its
// place parses again and is indexed anew.
func TestRequestMemoBodiesPerEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	variant := func(i int) string { return `{"data": "0 1\n1 2\n"}` + strings.Repeat(" ", i) }
	for i := range maxEntryBodies + 2 {
		post(s, variant(i))
	}
	indexed := func(i int) bool {
		_, ok := s.cache.lookupBody(sha256.Sum256([]byte(variant(i))))
		return ok
	}
	for i := range maxEntryBodies + 2 {
		if want := i >= 2; indexed(i) != want {
			t.Fatalf("variant %d indexed = %v, want %v", i, !want, want)
		}
	}
	if v := post(s, variant(0)).view(t); !v.Cached || s.memoHits.Load() != 0 || !indexed(0) || indexed(2) {
		t.Fatalf("variant 0 again: cached %v, %d memo hits, indexed %v, variant 2 indexed %v",
			v.Cached, s.memoHits.Load(), indexed(0), indexed(2))
	}
	if n := len(s.cache.bodies); n != maxEntryBodies {
		t.Fatalf("%d indexed bodies, want %d", n, maxEntryBodies)
	}
}
