package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool with a bounded submission queue: the mdsd
// service holds one long-lived Pool as its job queue and sheds load with
// TrySubmit when the queue is full. (Fixed-size fan-outs — sweeps, LOCAL
// rounds, chunked parses — use graph.ParallelFor instead.) A Pool is safe
// for concurrent TrySubmit from any number of goroutines.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	workers int
	pending atomic.Int64 // accepted but not yet finished

	// mu orders submissions against Close: submitters hold the read lock
	// across their channel send so Close can never close the channel out
	// from under an in-flight send (a "send on closed channel" panic).
	mu     sync.RWMutex
	closed bool
}

// NewPool starts workers goroutines consuming a queue of the given
// capacity. workers <= 0 means GOMAXPROCS; queue <= 0 means an unbuffered
// hand-off (TrySubmit accepts only when a worker is idle).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func(), queue), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
				p.pending.Add(-1)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// TrySubmit enqueues fn if the queue has room and reports whether it was
// accepted. The service uses it to shed load instead of stalling clients.
// TrySubmit is safe to race Close: on a closed pool it reports false.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.pending.Add(1)
	select {
	case p.tasks <- fn:
		return true
	default:
		p.pending.Add(-1)
		return false
	}
}

// Pending returns the number of accepted tasks that have not finished yet
// (queued plus running) — the service's queue-depth metric.
func (p *Pool) Pending() int {
	return int(p.pending.Load())
}

// Close stops accepting work and blocks until every accepted task has
// finished — the drain step of a graceful shutdown. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
