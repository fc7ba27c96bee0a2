// Command perfbench is the repository benchmark: it drives Algorithm 1
// offline (workload solve) and through an in-process mdsd server
// (serve_hot, serve_cold), checks every answer with its own oracle, and
// prints one JSON result line. README.md explains the workloads and the
// metrics; run.py builds and runs it.
//
//	perfbench --workload solve --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale divides every input size and operation count; 1 for real
	// runs, larger in the self-test.
	scale int
	// workDir receives input files, store directories and the Chrome
	// trace; it lies inside the checkout.
	workDir string
	// pinned maps "workload/seed" to the expected input digest (see
	// digests.json).
	pinned map[string]string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main: the counts and metrics of
// the final JSON line plus the manifest line printed before it.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	manifest  map[string]any
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config) (*report, error){
	"solve":      runSolve,
	"serve_hot":  func(c *config) (*report, error) { return runServe(c, false) },
	"serve_cold": func(c *config) (*report, error) { return runServe(c, true) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve | serve_hot | serve_cold")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs and operation list")
	seconds := fs.Int("seconds", 30, "nominal run length; sizes the fixed operation list")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	pin := fs.Int("pin", 0, "print the input digests of seeds 0..N-1 as digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin > 0 {
		return printPins(*pin, stdout, stderr)
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload solve|serve_hot|serve_cold, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	pinned, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := workDir()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	// Write-back left by whatever ran before (the build, the previous
	// run's clean-up) slows this run's file creation and fsyncs; flush it
	// first, and flush this run's clean-up before exiting.
	syscall.Sync()
	defer syscall.Sync()
	defer os.RemoveAll(work)
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: 1, workDir: work, pinned: pinned}
	rep, err := drive(cfg)
	if err == nil {
		err = selectMetrics(rep, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := emit(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// workDir makes a fresh directory for one run under .bench_build in the
// checkout root, the only place the benchmark writes.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// emit prints the manifest line, then the result line the contract asks
// for. correct is false when any operation failed a check.
func emit(w io.Writer, cfg *config, rep *report) error {
	man := manifest(cfg)
	for k, v := range rep.manifest {
		man[k] = v
	}
	line, err := json.Marshal(map[string]any{"manifest": man})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// manifest is the run envelope: what was measured, where and how.
func manifest(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
		"rev":        revision(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"kernel":     kernel(),
	}
}

// opCount sizes the fixed operation list: the nominal rate of the
// workload on the reference host (a two-vCPU Intel Xeon KVM guest) times
// the run length. It depends only on the arguments, so every run with the
// same arguments does the same work, whatever the speed of the code under
// test.
func opCount(cfg *config, nominalPerSecond float64) int {
	n := int(nominalPerSecond * float64(cfg.seconds) / float64(cfg.scale))
	if n < 1 {
		n = 1
	}
	return n
}

// deadline bounds the timed phase so a run ends within three minutes
// (run.py's limit), even when the code under test is far slower than the
// reference host. Operations not started count as failed.
func deadline(cfg *config) time.Time {
	return time.Now().Add(time.Duration(3*cfg.seconds+20) * time.Second)
}

var errDeadline = errors.New("timed phase exceeded its deadline")

// latencyMetrics reports the median and tail latencies of lat (which it
// sorts) and records the sample count behind each percentile.
func latencyMetrics(rep *report, lat []time.Duration) {
	sortDurations(lat)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.set("op_p50_ms", "ms", ms(percentile(lat, 0.50)))
	rep.set("op_p90_ms", "ms", ms(percentile(lat, 0.90)))
	rep.set("op_p99_ms", "ms", ms(percentile(lat, 0.99)))
	rep.manifest["latency_samples"] = len(lat)
	rep.manifest["samples_beyond_p90"] = len(lat) - rank(len(lat), 0.90)
	rep.manifest["samples_beyond_p99"] = len(lat) - rank(len(lat), 0.99)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// rank is the 1-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(q*float64(n) + 0.999999)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// settle returns freed memory to the OS and resets the peak RSS, so
// rss_mb is the peak of the timed phase that follows, not of set-up.
// It reports whether the kernel accepted the reset.
func settle() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb := strings.Fields(procField(string(data), "VmHWM:") + " 0")[0]
	v, _ := strconv.ParseFloat(kb, 64)
	return v / 1024
}
