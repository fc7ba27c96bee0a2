package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/service"
	"localmds/internal/store"
)

// Nominal request rates that size the serve operation lists (see opCount).
const (
	hotNominalPerSecond  = 500.0
	coldNominalPerSecond = 280.0
	// coldClients is serve_cold's closed-loop client count, one keep-alive
	// connection each, matching the server's two solver workers on the
	// two-core host.
	coldClients = 2
	// coldWarm is how many extra distinct graphs each serve_cold client
	// sends during set-up to open its connection.
	coldWarm = 4
	// replayCap bounds how many received results the traced run replays
	// through the pre-queue, encode and store functions.
	replayCap = 64
	// Request caps the service applies to payloads (internal/service
	// maxRequestVertices and maxRequestEdges); the replay parses with the
	// same ones.
	serviceMaxVertices = 2_000_000
	serviceMaxEdges    = 20_000_000
)

// server is an in-process mdsd: service.New with cmd/mdsd's default
// configuration (plus, for serve_cold, a result store opened as
// `mdsd -store-dir` does) served on a loopback listener.
type server struct {
	svc  *service.Server
	st   *store.Store
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(storeDir string) (*server, error) {
	s := &server{done: make(chan struct{})}
	cfg := service.Config{}
	if storeDir != "" {
		st, err := store.Open(store.Options{Dir: storeDir, Fsync: store.FsyncAlways})
		if err != nil {
			return nil, err
		}
		s.st, cfg.Store = st, st
	}
	s.svc = service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.svc.Handler(), ReadTimeout: time.Minute,
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for its goroutine, then stops the
// service's workers.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.svc.Close()
}

// newClient returns an HTTP client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// post sends one solve request and reads the whole response; the latency
// is what the client observes.
func post(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// solveView is the part of a solve response the checks read.
type solveView struct {
	Cached      bool   `json:"cached"`
	Fingerprint string `json:"fingerprint"`
	Result      *struct {
		S              []int `json:"s"`
		Active         []int `json:"active"`
		BruteFallbacks int   `json:"brute_fallbacks"`
		StageStats     []struct {
			Name  string `json:"name"`
			Items int    `json:"items"`
		} `json:"stage_stats"`
	} `json:"result"`
}

// checkResponse verifies one response: HTTP 200, the expected cache
// outcome, and a dominating set by the oracle.
func checkResponse(status int, data []byte, in *input, wantCached bool) (*solveView, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, data)
	}
	var v solveView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if v.Cached != wantCached {
		return nil, fmt.Errorf("cached = %v, want %v", v.Cached, wantCached)
	}
	if v.Result == nil {
		return nil, fmt.Errorf("response without a result")
	}
	if err := in.or.check(v.Result.S); err != nil {
		return nil, err
	}
	return &v, nil
}

// requestBody encodes a graph as a POST /v1/solve body with an edge-list
// data payload.
func requestBody(in *input) []byte {
	b, _ := json.Marshal(struct {
		Data string `json:"data"`
	}{string(in.text)}) // a struct of one string always encodes
	return b
}

// serveSetup is one set-up of a serve workload: inputs, request bodies
// and a running, warmed server.
type serveSetup struct {
	ins    []*input
	bodies [][]byte
	srv    *server
	conns  []*http.Client
}

// setupServe generates the inputs, starts the server and warms it over
// one connection per solver worker. On serve_hot every distinct graph is
// solved once, so every timed request is a memory-tier hit; on serve_cold
// each client opens its connection with a few extra distinct graphs, so
// every timed request stays a miss.
func setupServe(cfg *config, cold bool, n, rep int) (*serveSetup, error) {
	s := &serveSetup{}
	var err error
	storeDir := ""
	if cold {
		storeDir = filepath.Join(cfg.workDir, "store-"+strconv.Itoa(rep))
		// The list's graphs, at least the digestOps the digest covers,
		// then the warm-up graphs.
		s.ins, err = makeColdInputs(cfg.seed, cfg.scale, max(n, digestOps)+coldClients*coldWarm)
	} else {
		s.ins, err = makeHotInputs(cfg.seed, cfg.scale)
	}
	if err != nil {
		return nil, err
	}
	s.bodies = make([][]byte, len(s.ins))
	for k, in := range s.ins {
		s.bodies[k] = requestBody(in)
	}
	if s.srv, err = startServer(storeDir); err != nil {
		return nil, err
	}
	// Warm up over coldClients connections, one per solver worker;
	// serve_hot keeps only the first for its single client.
	for range coldClients {
		s.conns = append(s.conns, newClient())
	}
	var warm [][]int
	if cold {
		for c := range s.conns {
			ks := make([]int, coldWarm)
			for j := range ks {
				ks[j] = max(n, digestOps) + c*coldWarm + j
			}
			warm = append(warm, ks)
		}
	} else {
		for c := range s.conns {
			var ks []int
			for k := c; k < len(s.ins); k += len(s.conns) {
				ks = append(ks, k)
			}
			warm = append(warm, ks)
		}
	}
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range warm[c] {
				status, data, _, err := post(s.conns[c], s.srv.url, s.bodies[k])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, data)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up request: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			s.srv.close()
			return nil, e
		}
	}
	if !cold {
		for _, c := range s.conns[1:] {
			c.CloseIdleConnections()
		}
		s.conns = s.conns[:1]
	}
	runtime.GC()
	return s, nil
}

// runServe drives the mdsd request path closed-loop: serve_hot with one
// client over a fixed list of cache hits, serve_cold with two clients over
// a list of distinct graphs that each miss, solve, persist and evict.
func runServe(cfg *config, cold bool) (*report, error) {
	rep := &report{manifest: map[string]any{}}
	nominal := hotNominalPerSecond
	if cold {
		nominal = coldNominalPerSecond
	}
	n := opCount(cfg, nominal)
	var s *serveSetup
	setups := make([]float64, setupReps)
	steals := make([]int64, setupReps)
	for r := range setups {
		if s != nil {
			s.srv.close()
		}
		s0 := stealTicks()
		t0 := time.Now()
		var err error
		if s, err = setupServe(cfg, cold, n, r); err != nil {
			return nil, err
		}
		setups[r] = time.Since(t0).Seconds()
		steals[r] = stealTicks() - s0
	}
	defer s.srv.close()
	setupMetric(rep, setups, steals)

	// The digest covers the first digestOps operations of the list, even
	// when the run's list is shorter.
	ops := coldOps(max(n, digestOps))
	if !cold {
		ops = opList(cfg.seed, cfg.workload, len(s.ins), max(n, digestOps))
	}
	for _, in := range s.ins {
		in.prepare()
	}
	digestIns := s.ins
	if cold {
		digestIns = s.ins[:min(len(s.ins), digestOps)]
	}
	digest := inputDigest(cfg.workload, digestIns, ops)
	ops = ops[:n]
	for _, in := range s.ins {
		in.text = nil // the request bodies carry it from here on
	}
	rep.manifest["input_digest"] = digest
	rep.manifest["ops"] = n
	rep.manifest["clients"] = len(s.conns)
	rep.manifest["distinct_inputs"] = len(s.ins)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	rep.manifest["rss_peak_reset"] = settle()
	before, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	var storeBefore store.Stats
	if s.srv.st != nil {
		storeBefore = s.srv.st.Stats()
	}
	compBefore := s.srv.svc.Computations()
	allocBefore := allocBytes()

	type clientTotals struct {
		traced, untraced  []time.Duration
		attempted, failed int
		solSum, lbSum     int
		counts            [5]int
		respBytes         int
	}
	tots := make([]clientTotals, len(s.conns))
	saved := make([][]byte, min(replayCap, len(ops))) // response bodies kept for the replay
	stop := deadline(cfg)
	// request runs and checks operation i on client c and returns its
	// latency.
	request := func(c, i int) time.Duration {
		t := &tots[c]
		t.attempted++
		k := ops[i]
		tracedOp := rec != nil && i%2 == 0
		var id int
		if tracedOp {
			id = rec.start("POST /v1/solve", i, -1, c)
		}
		status, data, d, err := post(s.conns[c], s.srv.url, s.bodies[k])
		if tracedOp {
			rec.end(id)
			t.traced = append(t.traced, d)
		} else {
			t.untraced = append(t.untraced, d)
		}
		t.respBytes += len(data)
		var v *solveView
		if err == nil {
			v, err = checkResponse(status, data, s.ins[k], !cold)
		}
		if err != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: op %d (input %d): %v\n", cfg.workload, i, k, err)
			return d
		}
		if i < len(saved) {
			saved[i] = data
		}
		t.solSum += len(v.Result.S)
		t.lbSum += s.ins[k].or.lb
		t.counts[0] += len(v.Result.Active)
		for _, st := range v.Result.StageStats {
			switch st.Name {
			case "Cuts":
				t.counts[1] += st.Items
			case "Partition":
				t.counts[2] += st.Items
			}
		}
		t.counts[3] += v.Result.BruteFallbacks
		t.counts[4] += len(v.Result.S)
		return d
	}
	var blocks []block
	var all []time.Duration
	size := blockOps(nominal)
	for lo := 0; lo < n; lo += size {
		if time.Now().After(stop) {
			rep.attempted += n - lo
			rep.failed += n - lo
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v after %d of %d operations\n", cfg.workload, errDeadline, lo, n)
			break
		}
		b := block{ops: min(size, n-lo)}
		lats := make([][]time.Duration, len(s.conns))
		var next atomic.Int64
		next.Store(int64(lo))
		s0, c0 := stealTicks(), cpuSeconds()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range s.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < lo+b.ops; i = int(next.Add(1) - 1) {
					lats[c] = append(lats[c], request(c, i))
				}
			}()
		}
		wg.Wait()
		b.wall = time.Since(t0)
		b.steal, b.cpu = stealTicks()-s0, cpuSeconds()-c0
		for _, l := range lats {
			b.lat = append(b.lat, l...)
		}
		all = append(all, b.lat...)
		blocks = append(blocks, b)
	}
	allocAfter := allocBytes()

	var traced, untraced []time.Duration
	var counts [5]int
	solSum, lbSum, respBytes := 0, 0, 0
	for _, t := range tots {
		traced = append(traced, t.traced...)
		untraced = append(untraced, t.untraced...)
		rep.attempted += t.attempted
		rep.failed += t.failed
		solSum += t.solSum
		lbSum += t.lbSum
		respBytes += t.respBytes
		for j := range counts {
			counts[j] += t.counts[j]
		}
	}
	lat, measuredOps, wall := measured(rep, blocks)
	outcome(rep, measuredOps, wall.Seconds(), solSum, lbSum)
	latencyMetrics(rep, lat)
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	meanMs := float64(sum) / float64(time.Millisecond) / float64(max(len(all), 1))

	pinSeed, err := checkPins(cfg, digest)
	rep.manifest["pin_checked_seed"] = pinSeed
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return rep, nil
	}

	after, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	const solveRoute = `{route="/v1/solve",outcome="2xx"}`
	serverMs := 1000 * histMean(before, after, "mdsd_request_duration_seconds", solveRoute)
	rep.set("service.server_ms", "ms", serverMs)
	rep.set("service.transport_ms", "ms", meanMs-serverMs)
	rep.set("service.cache_hit_ratio", "ratio", (after["mdsd_cache_hits_total"]-before["mdsd_cache_hits_total"])/float64(n))
	rep.set("service.computations", "count", float64(s.srv.svc.Computations()-compBefore))
	rep.set("service.alloc_kb_per_req", "KB", float64(allocAfter-allocBefore)/1024/float64(n))
	rep.set("service.response_kb", "KB", float64(respBytes)/1024/float64(n))
	rep.set("runner.queue_wait_ms", "ms", 1000*histMean(before, after, "mdsd_queue_wait_seconds", ""))
	rep.set("runner.solve_ms", "ms", 1000*histMean(before, after, "mdsd_solve_wall_seconds", ""))
	for stage, name := range map[string]string{"TwinReduce": "graph.twinreduce_ms", "Cuts": "cuts.stage_ms",
		"Partition": "core.partition_ms", "ComponentSolve": "mds.componentsolve_ms", "Stitch": "core.stitch_ms"} {
		rep.set(name, "ms", 1000*histMean(before, after, "mdsd_stage_duration_seconds", `{stage="`+stage+`"}`))
	}
	if s.srv.st != nil {
		st := s.srv.st.Stats()
		rep.set("store.entries", "count", float64(st.Entries-storeBefore.Entries))
		if st.Entries > 0 {
			rep.set("store.entry_kb", "KB", float64(st.Bytes)/1024/float64(st.Entries))
		}
	}
	setCounts(rep, counts)
	setOverhead(rep, traced, untraced)
	if err := replayHotPath(rep, rec, s, ops, saved); err != nil {
		return nil, err
	}
	if cold {
		if err := replayStore(rep, rec, cfg, saved); err != nil {
			return nil, err
		}
	}
	return rep, writeTrace(rep, rec, cfg)
}

// scrape reads the server's /metrics exposition into a series → value map.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out, nil
}

// histMean is the mean observation of a histogram series over the run:
// Δsum ÷ Δcount, or 0 when it observed nothing.
func histMean(before, after map[string]float64, name, labels string) float64 {
	count := after[name+"_count"+labels] - before[name+"_count"+labels]
	if count <= 0 {
		return 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / count
}

// replayHotPath times the phases of a request that have no server
// histogram by calling the same public functions the handler calls, on
// the bodies sent and the responses received: JSON decode into
// service.SolveRequest, graphio.ReadLimited at the service's caps,
// (*Graph).Freeze, (*CSR).Fingerprint, and json.Marshal of the received
// service.JobView.
func replayHotPath(rep *report, rec *recorder, s *serveSetup, ops []int, saved [][]byte) error {
	var phase [5]time.Duration
	names := [5]string{"json.Decode(SolveRequest)", "graphio.ReadLimited", "graph.Freeze", "graph.Fingerprint", "json.Marshal(JobView)"}
	timed := func(i, op int, fn func() error) error {
		id := rec.start(names[i], -1-op, -1, 0)
		err := fn()
		phase[i] += rec.end(id)
		return err
	}
	replays := 0
	for i, data := range saved {
		if data == nil {
			continue
		}
		var req service.SolveRequest
		var g *graph.Graph
		var csr *graph.CSR
		var view service.JobView
		body := s.bodies[ops[i]]
		err := timed(0, i, func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
		if err == nil {
			err = timed(1, i, func() error {
				var err error
				g, err = graphio.ReadLimited(strings.NewReader(req.Data), graphio.FormatAuto, serviceMaxVertices, serviceMaxEdges)
				return err
			})
		}
		if err == nil {
			_ = timed(2, i, func() error { csr = g.Freeze(); return nil })
			_ = timed(3, i, func() error { csr.Fingerprint(); return nil })
			if err = json.Unmarshal(data, &view); err == nil {
				err = timed(4, i, func() error { _, err := json.Marshal(view); return err })
			}
		}
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		replays++
	}
	if replays == 0 {
		return nil
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(replays) }
	rep.set("service.decode_ms", "ms", per(phase[0]))
	rep.set("graphio.readlimited_ms", "ms", per(phase[1]))
	rep.set("graph.freeze_ms", "ms", per(phase[2]))
	rep.set("graph.fingerprint_ms", "ms", per(phase[3]))
	rep.set("service.encode_ms", "ms", per(phase[4]))
	rep.manifest["replayed_requests"] = replays
	return nil
}

// replayStore times store.Put of received results into a fresh store
// with the server's fsync policy, as the server persists a miss.
func replayStore(rep *report, rec *recorder, cfg *config, saved [][]byte) error {
	st, err := store.Open(store.Options{Dir: filepath.Join(cfg.workDir, "replay-store"), Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	var total time.Duration
	puts := 0
	for i, data := range saved {
		if data == nil {
			continue
		}
		var view service.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			return err
		}
		payload, err := json.Marshal(view.SolveOutcome)
		if err != nil {
			return err
		}
		var fp graph.Fingerprint
		if _, err := hex.Decode(fp[:], []byte(view.Fingerprint)); err != nil {
			return fmt.Errorf("replay op %d: fingerprint: %w", i, err)
		}
		p := view.Params
		key := store.Key{Fingerprint: fp, Params: fmt.Sprintf("r1=%d,r2=%d,mbc=%d", p.R1, p.R2, p.MaxBruteComponent)}
		id := rec.start("store.Put", -1-i, -1, 0)
		err = st.Put(key, time.Now().UnixNano(), payload)
		total += rec.end(id)
		if err != nil {
			return err
		}
		puts++
	}
	if puts > 0 {
		rep.set("store.put_ms", "ms", float64(total)/float64(time.Millisecond)/float64(puts))
	}
	return nil
}
