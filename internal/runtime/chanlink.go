package runtime

import (
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// chanLink carries messages between node goroutines of one process: a send
// is an append to the target's mailbox — no encoding, no extra hop, no
// allocation. Attachment is the runtime's own down flag, checked at its
// gate, so up and down have nothing to do, and the link loses nothing of
// its own.
type chanLink struct {
	rt *runtime
}

func (l *chanLink) up(*nodeState) error { return nil }
func (l *chanLink) down(*nodeState)     {}
func (l *chanLink) flush(*nodeState)    {} // every send is already in its target's mailbox
func (l *chanLink) close()              {}

func (l *chanLink) loss() (dropped, requeued int) { return 0, 0 }

func (l *chanLink) sampler(*telemetry.Registry, telemetry.Label) func() { return func() {} }

// send posts the message to the target's mailbox with backpressure and
// deadlock avoidance. A node loop (inLoop) blocked on a peer's full mailbox
// keeps siphoning its OWN mailbox into its loop's queue whenever its wake
// channel fires (post, given the loop's node), so a cycle of mutually full
// mailboxes (client blocked on server, server blocked on that client's
// responses) cannot wedge: every blocked node keeps consuming, some send
// always completes, and the system self-regulates to the slowest consumer
// instead of spawning a goroutine per overflowing message. Only when
// sendTimeout expires with the peer still full is the message dropped and
// counted — loss the unordered lossy channel model already admits. Per-link
// FIFO is preserved: siphoned events join the loop's queue behind what it
// already holds, in arrival order. A timer goroutine has no mailbox to
// siphon; it waits plainly with the deadline. A send blocked when its
// sender's incarnation crashes dies with it, counted in the runtime's dead
// as a crashed sender's message; a send cut short by shutdown counts as
// nothing.
func (l *chanLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	loop := from
	if !inLoop {
		loop = nil
	}
	if _, crashed := l.rt.post(loop, to, event{from: from.id, msg: msg}, sendTimeout); crashed {
		l.rt.dead.Add(1)
	}
}
