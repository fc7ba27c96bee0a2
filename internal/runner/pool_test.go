package runner

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"localmds/internal/experiments"
)

func TestPoolTrySubmitShedsLoad(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if !p.TrySubmit(func() { defer wg.Done(); close(started); <-block }) { // occupies the worker
		t.Fatal("TrySubmit rejected the first task on an empty queue")
	}
	<-started
	// Fill the queue slot, then expect rejection.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.TrySubmit(func() {}) {
			accepted++
		}
	}
	if accepted != 1 {
		t.Fatalf("TrySubmit accepted %d tasks with one queue slot, want 1", accepted)
	}
	if d := p.Pending(); d < 2 {
		t.Fatalf("Pending = %d, want >= 2 (running + queued)", d)
	}
	close(block)
	wg.Wait()
	p.Close()
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", p.Pending())
	}
}

func TestTrySubmitAfterCloseSheds(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if p.TrySubmit(func() {}) {
		t.Fatal("TrySubmit accepted work on a closed pool")
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d on a closed pool", p.Pending())
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, 8)
	var done atomic.Int64
	// Eight tasks always fit the eight queue slots, whatever the workers
	// have dequeued so far.
	for i := 0; i < 8; i++ {
		if !p.TrySubmit(func() { time.Sleep(time.Millisecond); done.Add(1) }) {
			t.Fatalf("TrySubmit rejected task %d with queue room left", i)
		}
	}
	p.Close() // must block until all 8 finished
	if got := done.Load(); got != 8 {
		t.Fatalf("Close returned with %d/8 tasks finished", got)
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", p.Pending())
	}
	p.Close() // idempotent
}

func TestWithTimeout(t *testing.T) {
	// No bounds: runs inline.
	v, err := WithTimeout(context.Background(), 0, func() (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Fatalf("inline: got %d, %v", v, err)
	}
	// Deadline trips.
	start := time.Now()
	_, err = WithTimeout(context.Background(), 10*time.Millisecond, func() (int, error) {
		time.Sleep(5 * time.Second)
		return 0, nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout did not return early")
	}
	// Context cancellation trips.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, err = WithTimeout(ctx, time.Minute, func() (int, error) {
		time.Sleep(5 * time.Second)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Fast function beats a generous deadline.
	v, err = WithTimeout(context.Background(), time.Minute, func() (int, error) { return 3, nil })
	if v != 3 || err != nil {
		t.Fatalf("bounded fast path: got %d, %v", v, err)
	}
}

// stallSpec is one spec whose named row blocks until its per-run release
// channel closes; the others return instantly.
func stallSpec(stallRow string, release <-chan struct{}) experiments.Spec {
	s := experiments.Spec{Name: "stall", Title: "stall", Header: []string{"row"}}
	for i := 0; i < 6; i++ {
		row := "row" + strconv.Itoa(i)
		s.Tasks = append(s.Tasks, experiments.Task{
			Row: row,
			Run: func(seed int64) ([][]string, error) {
				if row == stallRow {
					<-release
				}
				return [][]string{{row}}, nil
			},
		})
	}
	return s
}

func TestRunnerTaskTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	r := New(Options{Workers: 2, TaskTimeout: 20 * time.Millisecond})
	_, err := r.Run([]experiments.Spec{stallSpec("row3", release)})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// The error names the offending cell.
	if err == nil || !containsAll(err.Error(), "stall", "row3") {
		t.Fatalf("timeout error should identify the task, got %v", err)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	r := New(Options{Workers: 2})
	_, err := r.RunContext(ctx, []experiments.Spec{stallSpec("row0", release)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
