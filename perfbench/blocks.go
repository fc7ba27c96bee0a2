package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host is a shared two-vCPU VM whose hypervisor takes CPU time away
// from it ("steal"), in episodes that last minutes; it slowed identical
// runs by 20 % and their tails by far more. The timed phase therefore runs
// the fixed operation list in blocks of about blockSeconds and notes, per
// block, the wall time W, the process CPU time C and the steal S. The
// timing statistics come from the blocks without steal, topped up with
// the least-disturbed others until they hold minMeasuredOps operations,
// and each of those blocks is corrected for the steal it still saw: its
// CPU demand C+S ran at an average parallelism of (C+S)/W, so without
// steal it would have taken W - S/max(1, (C+S)/W), and its latencies are
// scaled by that ratio. Every operation still runs and is checked, and the
// manifest reports the uncorrected figures next to the steal.

const (
	blockSeconds = 0.1
	// minMeasuredOps keeps ten samples beyond the 99th percentile.
	minMeasuredOps = 1000
	// ticksPerSecond is USER_HZ, the unit of /proc/stat.
	ticksPerSecond = 100
)

// block is one measured slice of the operation list.
type block struct {
	ops   int
	wall  time.Duration
	cpu   float64 // process CPU seconds meanwhile
	steal int64   // USER_HZ ticks stolen from the VM's CPUs meanwhile
	lat   []time.Duration
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// blockOps is the block length for a workload's nominal rate.
func blockOps(nominalPerSecond float64) int {
	return max(1, int(nominalPerSecond*blockSeconds))
}

// stealTicks reads the time the hypervisor has taken from this VM's CPUs
// (the steal column of the cpu line of /proc/stat), in USER_HZ ticks; 0
// where the kernel does not report it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// measured picks the blocks the timing statistics use — every block with
// no steal and, while they hold fewer than minMeasuredOps operations, the
// least-disturbed others (earliest first among equals) — and returns their steal-corrected latencies, operation count
// and wall time. It records the selection, and the same blocks'
// uncorrected figures, in the manifest.
func measured(rep *report, blocks []block) (lat []time.Duration, ops int, wall time.Duration) {
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return blocks[order[a]].steal < blocks[order[b]].steal })
	var stolen int64
	for _, b := range blocks {
		stolen += b.steal
	}
	clean, used := 0, 0
	var raw time.Duration
	var rawLat []time.Duration
	for _, i := range order {
		b := blocks[i]
		if b.steal > 0 && ops >= minMeasuredOps {
			break
		}
		if b.steal == 0 {
			clean++
		}
		used++
		ops += b.ops
		raw += b.wall
		rawLat = append(rawLat, b.lat...)
		f := b.unstolen()
		wall += time.Duration(float64(b.wall) * f)
		for _, d := range b.lat {
			lat = append(lat, time.Duration(float64(d)*f))
		}
	}
	sortDurations(rawLat)
	rep.manifest["blocks"] = len(blocks)
	rep.manifest["blocks_without_steal"] = clean
	rep.manifest["blocks_measured"] = used
	rep.manifest["ops_measured"] = ops
	rep.manifest["steal_s"] = float64(stolen) / ticksPerSecond
	rep.manifest["uncorrected_ops_per_s"] = float64(ops) / raw.Seconds()
	rep.manifest["uncorrected_op_p50_ms"] = float64(percentile(rawLat, 0.5)) / 1e6
	rep.manifest["uncorrected_op_p99_ms"] = float64(percentile(rawLat, 0.99)) / 1e6
	return lat, ops, wall
}

// unstolen is the share of the block's wall time that remains once the
// steal it saw is taken out (see the comment at the top of the file).
func (b block) unstolen() float64 {
	w := b.wall.Seconds()
	st := float64(b.steal) / ticksPerSecond
	if w <= 0 || st <= 0 {
		return 1
	}
	parallelism := max(1, (b.cpu+st)/w)
	return max(0, w-st/parallelism) / w
}

// setupMetric reports setup_s: the median time of the three set-ups the
// hypervisor stole least from.
func setupMetric(rep *report, times []float64, steals []int64) {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steals[order[a]] < steals[order[b]] })
	var least []float64
	for _, i := range order[:min(3, len(order))] {
		least = append(least, times[i])
	}
	rep.set("setup_s", "s", median(least))
	rep.manifest["setup_reps_s"] = times
	rep.manifest["setup_reps_steal_ticks"] = steals
}
