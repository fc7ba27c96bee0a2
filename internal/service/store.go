package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"localmds/internal/obs"
	"localmds/internal/store"
)

// The disk tier of the result cache. The memory LRU (cache.go) fronts the
// content-addressed store (internal/store): a memory miss falls through to
// disk before any recompute, a completed solve is persisted before its job
// finishes (so under fsync=always an HTTP 200 implies a durable entry),
// and a restart with the same -store-dir warms from whatever the scan
// validated — repeat traffic recomputes nothing and reports cache ages
// measured from the original computation.
//
// The store is strictly an accelerator: any real I/O error (not a miss,
// not corruption — those are handled inside the store) flips the daemon
// into memory-only mode, once, for the rest of its life. Requests never
// fail because the disk did.

// storeKey renders the disk-store key for a solve key.
func storeKey(key solveKey) store.Key {
	return store.Key{Fingerprint: key.fp, Params: key.params}
}

// storeEnabled reports whether the disk tier is configured and healthy.
func (s *Server) storeEnabled() bool {
	return s.store != nil && !s.storeDegraded.Load()
}

// degradeStore flips the daemon into memory-only mode (idempotently) after
// a real store I/O failure, surfacing it on /healthz, /metrics, and the
// event bus — but never to the request that tripped it.
func (s *Server) degradeStore(op string, err error) {
	if s.store == nil || s.storeDegraded.Swap(true) {
		return
	}
	if s.logger != nil {
		s.logger.Error("store degraded; continuing memory-only", "op", op, "error", err.Error())
	}
	s.bus.Publish(obs.Event{
		Type:  obs.EventStoreDegraded,
		Error: fmt.Sprintf("store %s: %v", op, err),
	})
}

// storeStatus is the /healthz rendering of the disk tier's state.
func (s *Server) storeStatus() string {
	switch {
	case s.store == nil:
		return "disabled"
	case s.storeDegraded.Load():
		return "degraded"
	default:
		return "ok"
	}
}

// storeLookup is the second cache tier: on a memory miss it consults the
// disk store, revalidates that the decoded outcome really answers this
// key, re-seals it (the stored bytes may predate the current schema, so
// they are never served verbatim; sealing drops the decoded result again),
// warms the memory cache with the persisted computation instant, and
// returns the outcome plus its true age. A miss, a quarantined entry, or a degraded store all return
// ok=false and the solve proceeds to compute.
func (s *Server) storeLookup(ps *parsedSolve) (*SolveOutcome, time.Duration, bool) {
	if !s.storeEnabled() {
		return nil, 0, false
	}
	e, err := s.store.Get(storeKey(ps.key))
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.degradeStore("get", err)
		}
		return nil, 0, false
	}
	var out SolveOutcome
	if jerr := json.Unmarshal(e.Payload, &out); jerr != nil || !outcomeMatches(&out, ps) || out.seal() != nil {
		// The bytes were checksum-valid but the payload does not answer
		// this key — a schema drift or a forged entry. Stop offering it.
		s.store.Discard(storeKey(ps.key))
		return nil, 0, false
	}
	computedAt := time.Unix(0, e.ComputedAtNanos)
	s.cache.put(ps.key, &out, computedAt)
	return &out, time.Since(computedAt), true
}

// outcomeMatches cross-checks a decoded payload against the request it is
// about to answer: same fingerprint, same normalized params.
func outcomeMatches(out *SolveOutcome, ps *parsedSolve) bool {
	if out.Result == nil || out.Fingerprint != ps.key.fp.String() {
		return false
	}
	p, err := out.Params.Normalized()
	return err == nil && paramsKeyString(p) == ps.key.params
}

// storePersist writes one completed, sealed outcome to the disk tier: the
// payload is the same encoding the responses splice in. It runs on the
// job's worker, before the job finishes, so the durability contract
// holds; failures degrade to memory-only and the job still succeeds.
func (s *Server) storePersist(ps *parsedSolve, out *SolveOutcome, computedAt time.Time) {
	if !s.storeEnabled() {
		return
	}
	if err := s.store.Put(storeKey(ps.key), computedAt.UnixNano(), out.encoded); err != nil {
		s.degradeStore("put", err)
	}
}
