// Crash and restart scenarios for the black-box suite: a clean restart
// on a warm store (zero recomputes), and a SIGKILL mid-load with a
// wounded log (torn tail quarantined and cut off, corrupt record counted,
// every pre-kill completion served from disk). The kill -9 scenario re-execs
// this test binary as a real daemon process so the kill is a genuine
// process death, not an in-process simulation.
package service_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"localmds/internal/service"
	"localmds/internal/store"
)

// solveView is the subset of a solve response the crash scenarios check.
type solveView struct {
	Status    string   `json:"status"`
	Cached    bool     `json:"cached"`
	CacheAgeS *float64 `json:"cache_age_s"`
}

// postView solves one body and fails the test unless it completes.
func postView(t *testing.T, base string, body []byte) solveView {
	t.Helper()
	resp, err := benchClient.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	defer resp.Body.Close()
	var v solveView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode solve response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("solve: status %d %+v", resp.StatusCode, v)
	}
	return v
}

// metricValue scrapes one unlabeled metric from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := benchClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s = %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in %s/metrics", name, base)
	return 0
}

// mustOpenStore opens the durable store with the crash-safe policy.
func mustOpenStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// runRestartWarm is the clean-restart durability scenario: solve a set
// of distinct instances, stop the daemon, boot a fresh one on the same
// store directory, and hammer the same set — every repeat must be a
// persisted hit with zero recomputes.
func runRestartWarm(t *testing.T, duration time.Duration) scenarioResult {
	dir := t.TempDir()
	const distinct = 6
	bodies := make([][]byte, distinct)
	for i := range bodies {
		bodies[i] = solveBody("ding", 80, int64(i+1))
	}

	d1 := startDaemon(t, service.Config{Workers: 2, QueueDepth: 16, Store: mustOpenStore(t, dir)})
	for _, b := range bodies {
		if v := postView(t, d1.base, b); v.Cached {
			t.Fatalf("cold solve reported cached: %+v", v)
		}
	}
	if got := d1.svc.Computations(); got != distinct {
		t.Fatalf("cold wave computed %d, want %d", got, distinct)
	}
	d1.stop()

	// Restart-to-ready: store scan + daemon boot + first healthy probe.
	restartStart := time.Now()
	d2 := startDaemon(t, service.Config{Workers: 2, QueueDepth: 16, Store: mustOpenStore(t, dir)})
	var hz map[string]any
	if err := getInto(d2.base+"/healthz", &hz); err != nil || hz["status"] != "ok" || hz["store"] != "ok" {
		t.Fatalf("restarted daemon unhealthy: %v %+v", err, hz)
	}
	ready := time.Since(restartStart)

	// Every repeat must carry the persisted computed-at timestamp.
	for _, b := range bodies {
		v := postView(t, d2.base, b)
		if !v.Cached || v.CacheAgeS == nil || *v.CacheAgeS <= 0 {
			t.Fatalf("warm repeat not served from store: %+v", v)
		}
	}
	all := hammer(4, duration, func(c, seq int) int {
		return post(d2.base, "", bodies[(c+seq)%distinct])
	})
	res := summarize("restart_warm", 4, duration, all)
	for status := range res.StatusCounts {
		if status != "200" {
			t.Fatalf("warm hammer saw status %s: %+v", status, res.StatusCounts)
		}
	}
	recomputes := d2.svc.Computations()
	if recomputes != 0 {
		t.Fatalf("warm restart recomputed %d instances, want 0", recomputes)
	}
	res.WarmHitRate = 1 - float64(recomputes)/float64(distinct)
	res.RestartToReadyMS = float64(ready.Microseconds()) / 1e3
	res.DaemonSurvived = true
	return res
}

// helperEnv gates TestHelperDaemon: set only in the re-exec'd child.
const helperEnv = "MDSD_BLACKBOX_HELPER"

// TestHelperDaemon is not a test: it is the daemon process the
// kill9_recovery scenario SIGKILLs. The parent re-execs the test binary
// with MDSD_BLACKBOX_HELPER=1, a store directory, and an address file;
// the helper boots a real daemon over that store, publishes its address
// atomically, and serves until killed.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for kill9_recovery; spawned via re-exec")
	}
	st, err := store.Open(store.Options{Dir: os.Getenv("MDSD_STORE_DIR"), Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("helper store.Open: %v", err)
	}
	svc := service.New(service.Config{Workers: 2, QueueDepth: 32, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrFile := os.Getenv("MDSD_ADDR_FILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	_ = hs.Serve(ln) // until SIGKILL
}

// helperDaemon is one re-exec'd daemon process.
type helperDaemon struct {
	cmd  *exec.Cmd
	base string
	out  *bytes.Buffer
}

// spawnHelper starts a daemon process on storeDir and waits for it to
// publish its listen address.
func spawnHelper(t *testing.T, storeDir, addrFile string) *helperDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperDaemon$")
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		"MDSD_STORE_DIR="+storeDir,
		"MDSD_ADDR_FILE="+addrFile,
	)
	out := new(bytes.Buffer)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn helper daemon: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return &helperDaemon{cmd: cmd, base: "http://" + string(b), out: out}
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper daemon never published its address; output: %s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill delivers SIGKILL — no drain, no fsync flush beyond what each
// completed Put already forced — and reaps the process.
func (h *helperDaemon) kill() {
	_ = h.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = h.cmd.Process.Wait()
}

// logRecord is one complete record in a store's segment log.
type logRecord struct {
	path      string
	off, size int64
}

// logRecords walks a store directory's segments in sequence order and
// returns their complete records in log order, stopping at anything that
// does not start a whole record. It reads only the layout's framing (the
// magic, and the payload length at header byte 64); the store checks the
// rest.
func logRecords(t *testing.T, dir string) []logRecord {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.mdsl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var recs []logRecord
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off+96 <= int64(len(data)) && bytes.HasPrefix(data[off:], []byte(storeMagic)); {
			size := 96 + int64(binary.LittleEndian.Uint64(data[off+64:]))
			if size > int64(len(data))-off {
				break
			}
			recs = append(recs, logRecord{path: p, off: off, size: size})
			off += size
		}
	}
	return recs
}

// storeMagic opens every record in a segment.
const storeMagic = "\x89MDSE\r\n\x1a"

// appendFile appends b to the file at path and returns its prior size.
func appendFile(t *testing.T, path string, b []byte) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// runKill9Recovery is the crash scenario: SIGKILL a real daemon process
// mid-load, wound the store's log the way a dying disk would (a torn
// partial record on the last segment, a payload bit flipped in a
// mid-load record), restart on the same directory, and require that
// every pre-kill completion is served from disk (zero recomputes), the
// damage is counted as quarantined, and the torn bytes are moved out of
// the segment into quarantine/.
func runKill9Recovery(t *testing.T, duration time.Duration) scenarioResult {
	storeDir := filepath.Join(t.TempDir(), "store")
	ctlDir := t.TempDir()

	h1 := spawnHelper(t, storeDir, filepath.Join(ctlDir, "addr1"))

	// Pre-kill completions: these HTTP 200s happened under fsync=always,
	// so the durability contract says they survive any crash after them.
	const preKill = 5
	preBodies := make([][]byte, preKill)
	for i := range preBodies {
		preBodies[i] = solveBody("ding", 80, int64(i+1))
		postView(t, h1.base, preBodies[i])
	}
	if n := metricValue(t, h1.base, "mdsd_store_entries"); n != preKill {
		t.Fatalf("pre-kill wave left %v entries, want %d", n, preKill)
	}

	// Load of fresh instances (disjoint n) with a SIGKILL landing in the
	// middle of the window: some in-flight writes die with the process.
	killTimer := time.AfterFunc(duration/2, h1.kill)
	all := hammer(2, duration, func(c, seq int) int {
		return post(h1.base, "", solveBody("ding", 90, int64(c)<<32|int64(seq)))
	})
	killTimer.Stop()
	h1.kill() // in case the hammer window ended before the timer fired

	// Wound the log. The flip targets a mid-load record when one landed,
	// so the pre-kill records stay bitwise intact; otherwise a record
	// whose payload fails its checksum is appended in its place. Then a
	// torn partial record goes on the end of the last segment.
	recs := logRecords(t, storeDir)
	if len(recs) < preKill {
		t.Fatalf("log holds %d whole records, want >= %d", len(recs), preKill)
	}
	last := recs[len(recs)-1].path
	var rec bytes.Buffer
	if err := store.WriteEntry(&rec, &store.Entry{ComputedAtNanos: 1, Payload: []byte(`{"never":"served"}`)}); err != nil {
		t.Fatal(err)
	}
	if len(recs) > preKill {
		r := recs[preKill]
		data, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		data[r.off+96] ^= 0x40
		if err := os.WriteFile(r.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		bad := bytes.Clone(rec.Bytes())
		bad[96] ^= 0x40
		appendFile(t, last, bad)
	}
	torn := rec.Bytes()[:60]
	tornOff := appendFile(t, last, torn)
	t.Logf("wounded the log: %d whole records (%d mid-load), torn tail at %s@%d",
		len(recs), len(recs)-preKill, filepath.Base(last), tornOff)

	restartStart := time.Now()
	h2 := spawnHelper(t, storeDir, filepath.Join(ctlDir, "addr2"))
	var hz map[string]any
	if err := getInto(h2.base+"/healthz", &hz); err != nil || hz["status"] != "ok" || hz["store"] != "ok" {
		t.Fatalf("post-crash daemon unhealthy: %v %+v", err, hz)
	}
	ready := time.Since(restartStart)

	// The startup scan must have moved the torn bytes out of the segment
	// into quarantine/.
	if info, err := os.Stat(last); err != nil || info.Size() > tornOff {
		t.Fatalf("torn tail still in %s after the restart scan: %v", last, err)
	}
	qfiles, err := filepath.Glob(filepath.Join(storeDir, "quarantine", filepath.Base(last)+"@*"))
	if err != nil {
		t.Fatal(err)
	}
	tornKept := false
	for _, q := range qfiles {
		if b, err := os.ReadFile(q); err == nil && bytes.HasSuffix(b, torn) {
			tornKept = true
		}
	}
	if !tornKept {
		t.Fatalf("torn bytes not in quarantine/ (found %v)", qfiles)
	}
	quarantined := metricValue(t, h2.base, "mdsd_store_quarantined_total")
	if quarantined < 1 {
		t.Fatalf("mdsd_store_quarantined_total = %v, want >= 1", quarantined)
	}

	// Every pre-kill completion must come back from disk: cached, with a
	// computed-at age that predates the restart, and zero recomputes.
	warmHits := 0
	for _, b := range preBodies {
		v := postView(t, h2.base, b)
		if v.Cached && v.CacheAgeS != nil && *v.CacheAgeS > 0 {
			warmHits++
		}
	}
	if warmHits != preKill {
		t.Fatalf("only %d/%d pre-kill completions served from the store", warmHits, preKill)
	}
	if recomputes := metricValue(t, h2.base, "mdsd_computations_total"); recomputes != 0 {
		t.Fatalf("post-crash daemon recomputed %v instances, want 0", recomputes)
	}

	h2.kill()
	res := summarize("kill9_recovery", 2, duration, all)
	res.WarmHitRate = float64(warmHits) / float64(preKill)
	res.RestartToReadyMS = float64(ready.Microseconds()) / 1e3
	res.Quarantined = int64(quarantined)
	res.DaemonSurvived = true
	return res
}
