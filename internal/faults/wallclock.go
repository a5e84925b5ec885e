// Wall-clock fault scheduling: the bridge that lets a step-indexed Plan run
// on the concurrent backends (internal/runtime's live and net), where there
// is no kernel step counter — only real time.
//
// A Plan positions outage windows and crash/recovery events in kernel steps.
// The simulator interprets those steps exactly; a WallClock interprets them
// against a wall-clock epoch scaled by a configurable step duration:
//
//	step(t) = (t - epoch) / stepDur
//
// Everything stays seeded and replayable in the only sense a concurrent
// runtime can offer: the event times are a pure function of (plan, stepDur),
// so the same plan fires the same crashes, recoveries and outage boundaries
// at the same step offsets on every run — only the interleaving with
// protocol traffic varies, exactly as it does for drop/delay rules.
//
// The WallClock owns the node-event schedule (crashes and recoveries) and
// runs it in order — the events due at step 0 inside Start, the rest on one
// goroutine — so a node's crash always precedes its recovery even when the
// two land steps apart at a microsecond step duration. Link
// gating is pull-based instead: backends ask Hold at dispatch time and park
// the frame themselves until the window's boundary, reusing their existing
// delay-timer machinery (DESIGN.md section 12).
package faults

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ioa"
)

// NodeHooks receives the wall-clock schedule's node events. Both callbacks
// run in schedule order, one at a time: those due at step 0 on the goroutine
// that calls Start, before it returns, the rest on the WallClock's event
// goroutine. A backend's Crash hook stops the node (joining its loop is
// allowed — neither goroutine has other duties meanwhile) and its Recover
// hook restarts the node from its durable image, a clone of the automaton
// taken before its latest sends left it.
type NodeHooks struct {
	Crash   func(node ioa.NodeID)
	Recover func(node ioa.NodeID)
}

// WallClock drives one Plan's step-indexed schedule in real time. Zero or
// nil plans are valid (the clock then only provides the step mapping), and
// every method is safe on a nil *WallClock (everything reports zero) so
// hand-assembled runtimes in tests need no clock at all.
// Start at most once; Stop joins the event goroutine and is idempotent.
type WallClock struct {
	plan    *Plan
	stepDur time.Duration

	epoch time.Time // stamped by Start before any goroutine reads it

	crashes    atomic.Int64
	recoveries atomic.Int64

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewWallClock returns a clock for the plan (which may be nil) with the
// given step duration.
func NewWallClock(plan *Plan, stepDur time.Duration) *WallClock {
	return &WallClock{plan: plan, stepDur: stepDur, done: make(chan struct{})}
}

// Start stamps the epoch, fires every node event due at step 0 or before on
// the caller's goroutine, in schedule order, and, when later events remain,
// launches the event goroutine that fires hooks at each one's wall-clock
// time. So a crash at step 0 has happened when Start returns: a driver that
// issues operations next never races it, however loaded the host.
func (w *WallClock) Start(h NodeHooks) {
	if w == nil {
		return
	}
	w.epoch = time.Now()
	if w.plan == nil {
		return
	}
	events := w.plan.NodeEvents()
	for len(events) > 0 && events[0].Step <= 0 {
		w.fire(events[0], h)
		events = events[1:]
	}
	if len(events) == 0 {
		return
	}
	w.wg.Add(1)
	go w.run(events, h)
}

// run fires the sorted node events in order on one goroutine. A Stop between
// events abandons the rest of the schedule.
func (w *WallClock) run(events []ioa.NodeFaultEvent, h NodeHooks) {
	defer w.wg.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for _, ev := range events {
		timer.Reset(time.Until(w.StepTime(ev.Step)))
		select {
		case <-w.done:
			return
		case <-timer.C:
		}
		w.fire(ev, h)
	}
}

// fire counts one node event and calls its hook.
func (w *WallClock) fire(ev ioa.NodeFaultEvent, h NodeHooks) {
	if ev.Recover {
		w.recoveries.Add(1)
		if h.Recover != nil {
			h.Recover(ev.Node)
		}
	} else {
		w.crashes.Add(1)
		if h.Crash != nil {
			h.Crash(ev.Node)
		}
	}
}

// Stop abandons any unfired events and joins the event goroutine. In-flight
// hooks complete before Stop returns.
func (w *WallClock) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.done) })
	w.wg.Wait()
}

// Step maps the current wall-clock time to the plan's step clock.
func (w *WallClock) Step() int {
	if w == nil {
		return 0
	}
	return int(time.Since(w.epoch) / w.stepDur)
}

// StepTime maps a plan step to its wall-clock instant.
func (w *WallClock) StepTime(step int) time.Time {
	return w.epoch.Add(time.Duration(step) * w.stepDur)
}

// Hold reports whether the from->to link is inside an outage window right
// now and, if so, how long a frame must be parked until the window's next
// boundary — both as a wall-clock duration (never less than one step, so a
// re-dispatch always lands on the far side of the boundary it waited for)
// and as the step count the backend's delay accounting records. A second
// Hold at re-dispatch time catches abutting windows.
func (w *WallClock) Hold(from, to ioa.NodeID) (time.Duration, int) {
	if w == nil || w.plan == nil {
		return 0, 0
	}
	step := w.Step()
	if !w.plan.LinkBlocked(from, to, step) {
		return 0, 0
	}
	next := w.plan.NextLinkChange(from, to, step)
	if next <= step {
		next = step + 1 // defensive: Validate() guarantees End > step here
	}
	d := time.Until(w.StepTime(next))
	if d < w.stepDur {
		d = w.stepDur
	}
	return d, next - step
}

// Crashes and Recoveries report the node events fired so far.
func (w *WallClock) Crashes() int {
	if w == nil {
		return 0
	}
	return int(w.crashes.Load())
}

func (w *WallClock) Recoveries() int {
	if w == nil {
		return 0
	}
	return int(w.recoveries.Load())
}
