package obs

import (
	"sync"
	"time"
)

// Event lifecycle types, in the order one job can emit them.
const (
	EventSubmitted = "submitted" // accepted onto the queue
	EventStarted   = "started"   // a worker picked the job up
	EventCached    = "cached"    // served from the result cache, no work
	EventDone      = "done"      // finished with a result
	EventFailed    = "failed"    // finished with an error
	EventShed      = "shed"      // rejected: queue full, draining, or quota
	// EventStoreDegraded reports the one-way flip to memory-only caching
	// after a result-store I/O failure; Error carries the cause. It is a
	// daemon-lifecycle event, so the job fields are empty.
	EventStoreDegraded = "store_degraded"
)

// Event is one job-lifecycle record on the /v1/events stream. Seq is the
// bus's total order; late subscribers replaying ring history can detect
// gaps by discontinuous Seq.
type Event struct {
	Seq         uint64    `json:"seq"`
	Time        time.Time `json:"time"`
	Type        string    `json:"type"`
	JobID       string    `json:"job_id,omitempty"`
	Tenant      string    `json:"tenant,omitempty"`
	Source      string    `json:"source,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	// QueueWaitS is submitted→started, on started events.
	QueueWaitS float64 `json:"queue_wait_s,omitempty"`
	// SolveWallS is started→finished, on done/failed events.
	SolveWallS float64 `json:"solve_wall_s,omitempty"`
	// CacheAgeS is the served entry's age, on cached events.
	CacheAgeS float64 `json:"cache_age_s,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Subscription is one subscriber's live feed. Events arrive on C —
// first any replayed ring history, then new events as they publish. C
// closes when the bus closes or the subscriber is cancelled. A consumer
// too slow for its buffer loses events (counted in Dropped) rather than
// stalling the publisher: publishing sits on the job hot path.
type Subscription struct {
	C <-chan Event

	bus     *Bus
	ch      chan Event
	dropped int
}

// Dropped reports how many events this subscriber lost to a full buffer.
// Racy by nature (the publisher may be dropping concurrently); exact
// once the subscription is cancelled.
func (s *Subscription) Dropped() int {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Cancel detaches the subscriber and closes C. Idempotent, and safe
// against a concurrent Bus.Close: whoever removes the subscription from
// the bus's set (under the bus lock) is the one that closes the channel.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	if _, live := s.bus.subs[s]; live {
		delete(s.bus.subs, s)
		close(s.ch)
	}
	s.bus.mu.Unlock()
}

// Bus is the job-lifecycle event fabric: publishers stamp and fan out
// events to every subscriber, and a fixed ring buffer retains recent
// history so a late subscriber (a dashboard reconnecting, the CI smoke)
// still sees the events that just preceded it.
type Bus struct {
	mu     sync.Mutex
	ring   []Event // circular once full: oldest at ring[head]
	head   int
	cap    int
	seq    uint64
	subs   map[*Subscription]struct{}
	closed bool
	now    func() time.Time
}

// NewBus creates a bus retaining ringSize events of history; <= 0
// selects 256. now == nil selects time.Now.
func NewBus(ringSize int, now func() time.Time) *Bus {
	if ringSize <= 0 {
		ringSize = 256
	}
	if now == nil {
		now = time.Now
	}
	return &Bus{cap: ringSize, subs: make(map[*Subscription]struct{}), now: now}
}

// Publish stamps ev with the next sequence number and the bus clock,
// appends it to the ring, and offers it to every subscriber without
// blocking. Publishing on a closed bus is a silent no-op (jobs may
// finish after drain closed the stream). Returns the stamped event.
func (b *Bus) Publish(ev Event) Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ev
	}
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = b.now()
	}
	if len(b.ring) == b.cap {
		b.ring[b.head] = ev // overwrite the oldest
		b.head = (b.head + 1) % b.cap
	} else {
		b.ring = append(b.ring, ev)
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped++
		}
	}
	return ev
}

// Subscribe attaches a new subscriber with the given channel buffer
// (<= 0 selects 64). Events already in the ring with Seq > afterSeq are
// replayed into the buffer first — pass 0 for all retained history, or
// the last Seq a reconnecting client saw. On a closed bus the returned
// subscription's channel is already closed (after any replay).
func (b *Bus) Subscribe(afterSeq uint64, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// The ring holds Seqs b.seq-len+1 … b.seq in order, so the events to
	// replay are its newest b.seq-afterSeq.
	replay := len(b.ring)
	if afterSeq >= b.seq {
		replay = 0
	} else if b.seq-afterSeq < uint64(replay) {
		replay = int(b.seq - afterSeq)
	}
	sub := &Subscription{bus: b, ch: make(chan Event, max(buffer, replay))}
	sub.C = sub.ch
	for i := len(b.ring) - replay; i < len(b.ring); i++ {
		sub.ch <- b.ring[(b.head+i)%len(b.ring)]
	}
	if b.closed {
		close(sub.ch)
		return sub
	}
	b.subs[sub] = struct{}{}
	return sub
}

// LastSeq returns the most recently published sequence number.
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close ends the stream: every subscriber's channel closes after the
// events already buffered, and later Publish/Subscribe calls see a
// closed bus. Idempotent. The drain path calls this after the job pool
// has emptied, so subscribers observe every terminal event first.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.ch)
		delete(b.subs, s)
	}
}
