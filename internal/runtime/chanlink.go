package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// chanLink carries messages between node goroutines of one process: a send
// is an append to the target's mailbox — no encoding, no extra hop, no
// allocation. Attachment is the runtime's own down flag, so up and down
// have nothing to do.
type chanLink struct {
	rt   *runtime
	dead atomic.Int64 // messages addressed to a crashed node, or stranded in a sender that crashed mid-send
}

func (l *chanLink) up(*nodeState) error { return nil }
func (l *chanLink) down(*nodeState)     {}
func (l *chanLink) flush(*nodeState)    {} // every send is already in its target's mailbox
func (l *chanLink) close()              {}

func (l *chanLink) loss() (dropped, requeued int) { return int(l.dead.Load()), 0 }

func (l *chanLink) sampler(*telemetry.Registry, telemetry.Label) func() { return func() {} }

// send posts the message to the target's mailbox with backpressure and
// deadlock avoidance. Messages addressed to a crashed node are loss: nothing
// is listening. A node loop (inLoop) blocked on a peer's full mailbox keeps
// siphoning its OWN mailbox into its loop's queue whenever its wake channel
// fires, so a cycle of mutually full mailboxes (client blocked on server,
// server blocked on that client's responses) cannot wedge: every blocked
// node keeps consuming, some send always completes, and the system
// self-regulates to the slowest consumer instead of spawning a goroutine per
// overflowing message. Only when sendTimeout expires with the peer still
// full is the message dropped and counted — loss the unordered lossy channel
// model already admits. Per-link FIFO is preserved: siphoned events join the
// loop's queue behind what it already holds, in arrival order. A timer
// goroutine has no mailbox to siphon; it blocks plainly with the deadline
// (post). The fast path touches only the target mailbox: a lock-free poll of
// done (a stopped runtime sends nothing), then an append under the target
// mailbox's lock. The target's room channel, the sender's wake and crashCh,
// the deadline and the runtime-wide done are selected on only once the
// target is full. stop closes done and then the crashCh of every live
// incarnation: a parked send wakes through done, but one that siphoned
// meanwhile finds both closed at its next select and may take crashCh, so
// there it polls done. A shutdown counts neither as a crashed sender's
// message nor as overflow.
func (l *chanLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	rt := l.rt
	if to.down.Load() {
		l.dead.Add(1)
		return
	}
	ev := event{from: from.id, msg: msg}
	if !inLoop {
		rt.post(to, ev, sendTimeout)
		return
	}
	if rt.stopping() {
		return
	}
	room := to.mb.put(ev)
	if room == nil {
		return
	}
	t := time.NewTimer(sendTimeout)
	defer t.Stop()
	for {
		select {
		case <-room:
			if rt.stopping() {
				return
			}
			if room = to.mb.put(ev); room == nil {
				return
			}
		case <-from.mb.wake:
			from.takeMail()
		case <-from.crashCh:
			if rt.stopping() {
				return // stop closed crashCh after done: a shutdown, not a crash
			}
			// The sender's incarnation was crashed while blocked here; the
			// undelivered message dies with it, and its loop notices the
			// crash as soon as this send unwinds. A crash cannot race
			// stop's close of done: stop stops the wall clock first, and
			// crashNode joins this loop before it returns.
			l.dead.Add(1)
			return
		case <-t.C:
			rt.overflow.Add(1)
			return
		case <-rt.done:
			return
		}
	}
}
