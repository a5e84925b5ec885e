package runtime

import (
	"sync"
	"sync/atomic"
)

// quiescer coordinates periodic global drains across the concurrent batch
// drivers of runFlights. Every syncOps issued operations (the online
// checker's retirement window, when the run feeds one), each active driver
// drains its in-flight window and parks here until every other active driver
// has done the same; only then does anyone issue again. At the instant the
// barrier releases, nothing is in flight, so every operation issued before
// the sync responds before any operation issued after it invokes — a clean
// cut in the recorded history.
//
// This is what makes streaming verification's memory bound hold by
// construction rather than by scheduling luck: an online windowed checker
// can only retire its window at clean cuts, and saturated pipelined clients
// may never leave a natural global idle moment (their idle gaps must align
// in real time). Sync points trade a bounded throughput cost — the drains —
// for a guaranteed cut cadence, so the checker's peak window is bounded by
// roughly syncOps plus the in-flight population, independent of the run
// length.
//
// Usage: each driver calls tick for every operation it issues, checks due
// against the last round it synced at before issuing the next, drains and
// calls await when a new round is due, and calls leave exactly once when it
// finishes (so stragglers don't wait for a driver that will never arrive).
type quiescer struct {
	syncOps int64
	issued  atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	members int
	arrived int
	maxReq  int64 // highest round any arrived driver is waiting on
	round   int64 // latest released round
}

// newQuiescer creates a quiescer for `members` drivers syncing every
// syncOps issued operations. It returns nil when syncOps or members is not
// positive (no coordination; callers treat a nil quiescer as disabled).
func newQuiescer(syncOps int64, members int) *quiescer {
	if syncOps <= 0 || members <= 0 {
		return nil
	}
	q := &quiescer{syncOps: syncOps, members: members}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tick counts one issued operation. Nil-safe.
func (q *quiescer) tick() {
	if q != nil {
		q.issued.Add(1)
	}
}

// due reports the sync round the global issue counter has reached. A driver
// whose last synced round is behind due must drain and await. Nil-safe
// (always round 0, which is never due: drivers start at round 0).
func (q *quiescer) due() int64 {
	if q == nil {
		return 0
	}
	return q.issued.Load() / q.syncOps
}

// await parks the calling driver — whose in-flight window must already be
// drained — until every active driver has arrived for round r. The last
// arrival releases everyone. Drivers may request different rounds when the
// counter advanced between their checks; the release covers the highest
// requested round, which satisfies every earlier one too.
func (q *quiescer) await(r int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.round >= r {
		return
	}
	q.arrived++
	if r > q.maxReq {
		q.maxReq = r
	}
	if q.arrived >= q.members {
		q.release()
		return
	}
	for q.round < r {
		q.cond.Wait()
	}
}

// leave removes a finished driver from the barrier. If the remaining
// arrivals were only waiting on it, the pending round releases. Nil-safe;
// call exactly once per driver, on every exit path.
func (q *quiescer) leave() {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.members--
	if q.arrived > 0 && q.arrived >= q.members {
		q.release()
	}
}

// release opens the highest requested round and wakes the waiters. Callers
// hold q.mu.
func (q *quiescer) release() {
	q.round = q.maxReq
	q.arrived = 0
	q.cond.Broadcast()
}
