package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeSnapshot is one sample of the process-level gauges served on
// /metrics next to the service counters.
type RuntimeSnapshot struct {
	// SampledAt stamps the collection instant; zero until the first
	// sample lands.
	SampledAt time.Time
	// Goroutines is runtime.NumGoroutine.
	Goroutines int
	// HeapBytes is the live heap (/memory/classes/heap/objects:bytes).
	HeapBytes uint64
	// GCPauseTotal is the cumulative stop-the-world pause time.
	GCPauseTotal time.Duration
	// GCCycles is the completed GC cycle count.
	GCCycles uint64
}

// runtimeMetrics are the runtime/metrics samples the collector reads;
// reading them does not stop the world.
var runtimeMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
}

// sampleRuntime reads one snapshot directly.
func sampleRuntime(now time.Time) RuntimeSnapshot {
	sample := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		sample[i].Name = name
	}
	metrics.Read(sample)
	snap := RuntimeSnapshot{
		SampledAt:  now,
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  sample[0].Value.Uint64(),
		GCCycles:   sample[2].Value.Uint64(),
	}
	// /gc/pauses:seconds is a histogram of individual pauses; its
	// weighted sum is the cumulative pause time.
	if h := sample[1].Value.Float64Histogram(); h != nil {
		var total float64
		for i, count := range h.Counts {
			// Buckets are [Buckets[i], Buckets[i+1]); weight each by its
			// lower edge — a stable under-approximation that avoids the
			// +Inf upper edge of the last bucket.
			edge := h.Buckets[i]
			if edge < 0 || edge != edge { // -Inf first edge, NaN guard
				edge = 0
			}
			total += float64(count) * edge
		}
		snap.GCPauseTotal = time.Duration(total * float64(time.Second))
	}
	return snap
}

// Collector samples the runtime gauges on a fixed interval from one
// background goroutine, so /metrics scrapes read a recent snapshot
// instead of paying (and double-counting) the sampling cost per scrape.
type Collector struct {
	mu   sync.Mutex
	last RuntimeSnapshot
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartCollector begins sampling every interval (<= 0 selects 5s). The
// first sample is taken synchronously so Last never returns a zero
// snapshot.
func StartCollector(interval time.Duration) *Collector {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	c := &Collector{stop: make(chan struct{}), done: make(chan struct{})}
	c.last = sampleRuntime(time.Now())
	//mdsvet:ignore boundedgo -- one sampler goroutine per collector lifetime, joined by Stop; not request-scoped
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-t.C:
				snap := sampleRuntime(now)
				c.mu.Lock()
				c.last = snap
				c.mu.Unlock()
			}
		}
	}()
	return c
}

// Last returns the most recent snapshot.
func (c *Collector) Last() RuntimeSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Stop ends the sampler goroutine and waits for it. Idempotent.
func (c *Collector) Stop() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
	})
}
