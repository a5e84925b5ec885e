package runtime

import (
	"sync"
	"sync/atomic"
)

// mailbox is a node's bounded event queue, one for the node's whole
// lifetime, across incarnations. Senders append under a mutex; the node's
// loop takes the whole queue in one lock, swapping in its own emptied slice.
// A sender that finds the mailbox empty puts a token in wake, the one-slot
// channel the loop parks on, so a busy node is never woken and a parked one
// wakes once per burst. Senders never wait on wake: a sender that finds the
// mailbox full waits on room, which the next take closes.
//
// Wakeups are never lost: a put on an empty mailbox either fills wake's slot
// or finds a token already there, and whoever consumes a token (the parked
// loop, or its own send siphoning while blocked) takes the mailbox next, so
// the put is taken after it. A token can be stale — its events were taken
// before the loop parked — and then costs one empty take. crashNode and
// signalStop put a token too, after setting the incarnation's ended flag, so
// a parked loop sees its incarnation end.
//
// The mailbox is also how a sender learns that the runtime stopped: stop
// closes every mailbox before it ends any incarnation, and a closed mailbox
// refuses every put and releases the senders waiting for room.
type mailbox struct {
	wake chan struct{} // one slot; a token means the mailbox may hold events or the incarnation may have ended
	cap  int           // Config.Mailbox: events that may wait here at once

	mu     sync.Mutex
	q      []event
	room   chan struct{} // made by a put that finds the mailbox full, closed by the next take or by close; nil otherwise
	closed atomic.Bool   // set under mu by close, so no put appends after it; read bare by a blocked send telling shutdown from crash
}

func newMailbox(capacity int) *mailbox {
	return &mailbox{wake: make(chan struct{}, 1), cap: capacity}
}

// put appends ev and reports true, unless the mailbox is closed or full. A
// full one returns the channel the next take closes, and the caller waits on
// it and tries again; a closed one returns no channel: it refuses for good.
// A put on an empty mailbox signals wake.
func (m *mailbox) put(ev event) (room <-chan struct{}, ok bool) {
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, false
	}
	if len(m.q) >= m.cap {
		if m.room == nil {
			m.room = make(chan struct{})
		}
		room := m.room
		m.mu.Unlock()
		return room, false
	}
	m.q = append(m.q, ev)
	first := len(m.q) == 1
	m.mu.Unlock()
	if first {
		m.signal()
	}
	return nil, true
}

// signal puts a wake token unless one is already waiting.
func (m *mailbox) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// take empties the mailbox onto the end of q and returns it. An empty q is
// swapped for the mailbox's slice, so the loop's steady state copies nothing
// and allocates nothing: the two backing arrays take turns. q's handled
// slots must be zeroed, or the mailbox would pin their messages. A take
// releases every sender waiting for room.
func (m *mailbox) take(q []event) []event {
	m.mu.Lock()
	if len(q) == 0 {
		q, m.q = m.q, q
	} else {
		q = append(q, m.q...)
		clear(m.q)
		m.q = m.q[:0]
	}
	room := m.room
	m.room = nil
	m.mu.Unlock()
	if room != nil {
		close(room)
	}
	return q
}

// close makes every later put refuse, and releases every sender waiting for
// room, whose retry is then refused. What the mailbox holds stays: a loop
// may still take it.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed.Store(true)
	room := m.room
	m.room = nil
	m.mu.Unlock()
	if room != nil {
		close(room)
	}
}
