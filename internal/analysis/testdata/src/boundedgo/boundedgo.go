// Package boundedgo exercises the boundedgo analyzer: bare goroutine
// launches and acquire-without-release on the quota pattern.
package boundedgo

import "sync"

// bare launches an unbounded goroutine.
func bare(work func()) {
	go work() // want `bare goroutine launch: fan out with graph.ParallelFor`
}

// bareLit flags function literals too.
func bareLit() {
	go func() {}() // want `bare goroutine launch: fan out with graph.ParallelFor`
}

// justified carries a reason.
func justified(done chan struct{}) {
	//mdsvet:ignore boundedgo -- exactly one goroutine, joined on done below
	go func() { close(done) }()
	<-done
}

// quota mimics the service's per-tenant job quota.
type quota struct {
	mu sync.Mutex
	n  int
}

func (q *quota) tryAcquireJob() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n >= 4 {
		return false
	}
	q.n++
	return true
}

func (q *quota) releaseJob() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.n--
}

// leaky acquires a slot and never releases it.
func leaky(q *quota) bool {
	return q.tryAcquireJob() // want `quota/semaphore slot acquired but never released`
}

// paired releases on every exit path.
func paired(q *quota, work func()) bool {
	if !q.tryAcquireJob() {
		return false
	}
	defer q.releaseJob()
	work()
	return true
}
