package service

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"localmds/internal/core"
	"localmds/internal/obs"
)

// Job statuses, in lifecycle order.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// SolveOutcome is the immutable, cacheable payload of a finished solve.
// Every outcome the server holds is sealed, and its Result is nil: seal
// runs once, when a job finishes or a disk entry is decoded, and keeps the
// encoded bytes and the header fields in place of the decoded result. The
// memory cache, the job table and the disk tier therefore share one byte
// slice per solve, and no decoded result outlives its solve. A client that
// decodes a response gets the full Result back.
type SolveOutcome struct {
	Fingerprint string           `json:"fingerprint"`
	N           int              `json:"n"`
	M           int              `json:"m"`
	Params      core.Params      `json:"params"`
	Valid       bool             `json:"valid"`
	Result      *core.Alg1Result `json:"result"`

	// encoded is json.Marshal of the fields above as they stood before
	// seal dropped Result, set before the outcome is shared and never
	// written again: responses splice it in and the disk store persists
	// it. nil on an outcome decoded from a response.
	encoded []byte
}

// seal computes the outcome's JSON encoding and drops Result, which the
// encoding now carries. It must run before the outcome is shared.
func (o *SolveOutcome) seal() error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	o.encoded, o.Result = b, nil
	return nil
}

// Job tracks one solve through the queue. Mutable state is guarded by mu;
// done closes when the job reaches a terminal status.
type Job struct {
	ID string

	mu       sync.Mutex
	status   string
	source   string
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time
	outcome  *SolveOutcome
	err      error
	done     chan struct{}

	// trace/span hold the job's span tree (rooted at the request) when the
	// job actually computed; cached and shed jobs have none. cacheAge is
	// the served entry's age for cache hits.
	trace    *obs.Trace
	span     *obs.Span
	cacheAge time.Duration
}

// JobView is the JSON snapshot served by GET /v1/jobs/{id} and embedded
// in solve responses: the per-request header fields, then the outcome's
// fields flattened in when done.
type JobView struct {
	jobHeader
	*SolveOutcome // flattened when done
}

// jobHeader is the per-request part of a JobView.
type jobHeader struct {
	ID        string     `json:"job_id"`
	Status    string     `json:"status"`
	Source    string     `json:"source,omitempty"`
	Cached    bool       `json:"cached"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	CacheAgeS *float64   `json:"cache_age_s,omitempty"` // served entry's age, cache hits only
}

// writeTo writes the view's JSON as served, newline-terminated: the
// header fields, then the outcome's sealed bytes spliced in, so a cache
// hit encodes only the header and copies nothing. The bytes equal the
// default encoding of the view with the outcome decoded from its sealed
// bytes (JobView has no MarshalJSON, so json.Marshal of it stays the
// reference). An outcome that was never sealed is marshaled as it is.
// Everything is marshaled before the first write, so an error means
// nothing was written.
func (v JobView) writeTo(w io.Writer) error {
	head, err := json.Marshal(v.jobHeader)
	if err != nil {
		return err
	}
	if v.SolveOutcome == nil {
		_, _ = w.Write(append(head, '\n'))
		return nil
	}
	out := v.SolveOutcome.encoded
	if out == nil {
		if out, err = json.Marshal(v.SolveOutcome); err != nil {
			return err
		}
	}
	// head is {...} with at least the job_id member, out is {...} with at
	// least the fingerprint member: join them with one comma, written over
	// head's closing brace (head is this call's own buffer). A failed
	// write means the client is gone; there is no one left to tell.
	head[len(head)-1] = ','
	_, _ = w.Write(head)
	_, _ = w.Write(out[1:])
	_, _ = w.Write(newline)
	return nil
}

// newline terminates every JSON response.
var newline = []byte{'\n'}

// view snapshots the job under its lock.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{jobHeader: jobHeader{
		ID:      j.ID,
		Status:  j.status,
		Source:  j.source,
		Cached:  j.cached,
		Created: j.created,
	}}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.cached {
		age := j.cacheAge.Seconds()
		v.CacheAgeS = &age
	}
	if j.status == StatusDone {
		v.SolveOutcome = j.outcome
	}
	return v
}

// setTrace attaches the job's span tree (leader jobs only, before the job
// is visible to pool workers).
func (j *Job) setTrace(tr *obs.Trace, root *obs.Span) {
	j.mu.Lock()
	j.trace, j.span = tr, root
	j.mu.Unlock()
}

// Trace returns the job's span tree, or nil for jobs that never computed
// (cache hits, shed or quota-rejected submissions).
func (j *Job) Trace() (*obs.Trace, *obs.Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace, j.span
}

// setCacheAge records the served entry's age on a cache-hit job.
func (j *Job) setCacheAge(age time.Duration) {
	j.mu.Lock()
	j.cacheAge = age
	j.mu.Unlock()
}

// Done returns the channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) markRunning() (started time.Time, queueWait time.Duration) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	started = j.started
	queueWait = started.Sub(j.created)
	j.mu.Unlock()
	return started, queueWait
}

// finish records the terminal state and releases the job's waiters.
func (j *Job) finish(out *SolveOutcome, err error) {
	j.settle(out, err)
	close(j.done)
}

// settle records the terminal state without releasing waiters. runJob
// publishes the terminal event between settle and close(j.done): a
// client released by done may send its next request at once, and that
// request's events must not overtake this job's.
func (j *Job) settle(out *SolveOutcome, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.outcome = out
	}
	j.mu.Unlock()
}

// jobStore is the in-memory job registry. Jobs are kept until the store's
// retention cap, evicting the oldest finished jobs first so /v1/jobs/{id}
// stays answerable for recent work without growing without bound.
//
// The retained jobs in creation order are held followed by order[head:].
// held collects the jobs eviction found unfinished at the front of order;
// it holds only jobs that were queued or running when eviction reached
// them, so it stays about as short as the work in flight. A create costs
// one status check per held job plus O(1) amortized, whatever the cap.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	held   []*Job
	order  []*Job
	head   int
	seq    int64
	keep   int
	counts map[string]int64 // terminal status tallies, for /metrics
}

func newJobStore(keep int) *jobStore {
	return &jobStore{
		jobs:   make(map[string]*Job),
		keep:   keep,
		counts: map[string]int64{},
	}
}

// create registers a new queued job.
func (s *jobStore) create(source string, cached bool) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", s.seq),
		status:  StatusQueued,
		source:  source,
		cached:  cached,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.evictLocked()
	return j
}

// terminal reports whether j has finished.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed
}

// evictLocked drops the oldest finished jobs beyond the retention cap;
// queued and running jobs are never dropped.
func (s *jobStore) evictLocked() {
	for len(s.jobs) > s.keep {
		if i := s.firstTerminalHeld(); i >= 0 {
			delete(s.jobs, s.held[i].ID)
			s.held = append(s.held[:i], s.held[i+1:]...)
			continue
		}
		if s.head == len(s.order) {
			return // every retained job is still in flight
		}
		j := s.order[s.head]
		s.order[s.head] = nil
		s.head++
		if j.terminal() {
			delete(s.jobs, j.ID)
		} else {
			s.held = append(s.held, j)
		}
	}
	// Reclaim the popped prefix once it is most of the slice.
	if s.head > len(s.order)/2 {
		n := copy(s.order, s.order[s.head:])
		clear(s.order[n:])
		s.order, s.head = s.order[:n], 0
	}
}

// firstTerminalHeld returns the index of the oldest finished held job, or
// -1.
func (s *jobStore) firstTerminalHeld() int {
	for i, j := range s.held {
		if j.terminal() {
			return i
		}
	}
	return -1
}

// get looks a job up by ID.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// recordTerminal tallies a finished job for /metrics.
func (s *jobStore) recordTerminal(status string) {
	s.mu.Lock()
	s.counts[status]++
	s.mu.Unlock()
}

// terminalCounts snapshots the status tallies.
func (s *jobStore) terminalCounts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}
