// Package transport is the connection layer of the real-network execution
// backend: every node automaton owns one Endpoint — a TCP listener plus a
// pool of dialed, reused outbound connections — and exchanges opaque
// length-prefixed frames with its peers. The split mirrors memberlist's
// transport design (a listener feeding a handler, connections cached per
// peer address), scaled down to what the register emulations need:
//
//   - Frames, not streams: on the wire a frame is a 4-byte big-endian length
//     followed by its payload, and nothing else. MaxFrame is enforced on both
//     sides so a corrupt or hostile length cannot force an unbounded
//     allocation.
//   - Sender-side flush: Send appends the frame to its connection's pending
//     batch; a sender that finds no write in progress becomes the flusher and
//     writes until nothing is pending, so frames appended meanwhile leave
//     back to back in one socket write. There is no writer goroutine.
//   - Buffered reads: each inbound connection reads through a 4 KiB
//     bufio.Reader — one read syscall per wakeup, not one per header and one
//     per payload — and hands each frame to the handler in order.
//   - Dialed-connection reuse: the first Send to a peer dials it (bounded by
//     DialTimeout); later Sends reuse it. A failed write retires it and the
//     next Send redials — loss on a broken connection reaches the layer above
//     as what it is on a real network: silence, bounded by op timeouts.
//   - Bounded sends: Outbox bounds a connection's pending frames; a sender
//     facing a full batch blocks up to SendTimeout, then drops the frame,
//     counted in Stats, and the flusher's write carries the same deadline.
//     Per-link order holds from Send to handler for every surviving frame.
//   - Graceful shutdown: Close stops the accept loop, closes every
//     connection, and joins every goroutine the endpoint started — no frame
//     handler runs after Close returns.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrame bounds a frame's payload length (16 MiB). Values in this
// repository's workloads are a few KiB; the cap only exists to keep a
// corrupt length prefix from looking like a multi-gigabyte allocation.
const MaxFrame = 16 << 20

// Batching caps: one flush writes at most maxFlushFrames pending frames, and
// stops adding frames once maxFlushBytes are buffered, leaving the rest
// pending for the next. The byte cap keeps latency bounded: a huge batch is
// one long socket write.
const (
	maxFlushFrames = 64
	maxFlushBytes  = 64 << 10
)

// ErrClosed reports a Send on an endpoint that has been closed.
var ErrClosed = errors.New("transport: endpoint closed")

// errTooLarge reports a length prefix over MaxFrame.
var errTooLarge = errors.New("transport: frame length exceeds MaxFrame")

// Outcomes of one enqueue attempt that Send turns into counted loss.
var (
	errFull = errors.New("transport: pending batch full past SendTimeout")
	errDead = errors.New("transport: connection retired")
)

// Config tunes an Endpoint. The zero value selects the defaults.
type Config struct {
	// DialTimeout bounds an outbound connection attempt (default 2s).
	DialTimeout time.Duration
	// Outbox bounds the frames pending on one connection, waiting for the
	// flush in progress to finish (default 256).
	Outbox int
	// SendTimeout bounds how long Send may block — on a full pending batch,
	// or as the flusher in a socket write — before the frames are dropped
	// and counted (default 1s). This is the backpressure window: under
	// sustained overload senders slow to the socket's drain rate instead of
	// growing unbounded queues.
	SendTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Outbox <= 0 {
		c.Outbox = 256
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = time.Second
	}
	return c
}

// Stats is a point-in-time snapshot of an endpoint's frame-loss accounting.
// Every frame an endpoint accepted for delivery and then lost is counted in
// exactly one bucket; frames still pending or in flight when Close runs are
// deliberate shutdown discards and are not counted.
type Stats struct {
	// DroppedFull counts frames dropped on a pending batch that stayed full
	// past SendTimeout, or in or behind a write that timed out unwritten.
	DroppedFull uint64
	// DroppedDead counts frames in or behind a write that failed otherwise,
	// retiring its connection.
	DroppedDead uint64
	// Requeued counts frames re-enqueued onto a freshly dialed connection
	// after their original connection died between lookup and enqueue.
	Requeued uint64
	// Malformed counts inbound streams refused at a length prefix over
	// MaxFrame; the reader closes such a stream, so nothing after the bad
	// prefix reaches the handler.
	Malformed uint64
	// FramesSent / BatchesSent / BytesSent count the write side: frames
	// successfully written to a socket, the socket writes (flushes)
	// carrying them, and the frames' payload bytes (length prefixes
	// excluded). BatchesSent <= FramesSent; their ratio is the achieved
	// coalescing factor.
	FramesSent  uint64
	BatchesSent uint64
	BytesSent   uint64
	// FramesReceived / BytesReceived count the read side: frames handed to
	// the Serve handler and their payload bytes.
	FramesReceived uint64
	BytesReceived  uint64
}

// Endpoint is one node's network identity: a TCP listener whose inbound
// frames are delivered to the handler passed to Serve, and a pool of
// outbound connections reused across Sends. Safe for concurrent use.
type Endpoint struct {
	cfg      Config
	listener net.Listener

	mu      sync.Mutex
	conns   map[string]*outConn // keyed by peer address
	inbound map[net.Conn]struct{}
	closed  bool

	droppedFull atomic.Uint64
	droppedDead atomic.Uint64
	requeued    atomic.Uint64
	malformed   atomic.Uint64

	framesSent  atomic.Uint64
	batchesSent atomic.Uint64
	bytesSent   atomic.Uint64
	framesRecv  atomic.Uint64
	bytesRecv   atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// outConn is one pooled outbound connection. Senders append to pending
// under mu; one of them at a time is the flusher, which alone touches buf
// and deadline and writes to c outside the lock.
type outConn struct {
	c    net.Conn
	dead atomic.Bool // c was retired by a failed write or by Close

	mu       sync.Mutex
	pending  [][]byte      // frames waiting for the next write, oldest first
	flushing bool          // a sender is writing, and flushes pending before it returns
	space    chan struct{} // closed when a write frees room; nil while no sender waits
	buf      []byte        // the length-prefixed frames of the write in progress
	deadline time.Time     // the write deadline set on c
}

// Listen opens an endpoint on addr ("127.0.0.1:0" for an ephemeral
// loopback port). The listener is live immediately; inbound frames are
// buffered by the kernel until Serve installs the handler.
func Listen(addr string, cfg Config) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Endpoint{
		cfg:      cfg.withDefaults(),
		listener: ln,
		conns:    make(map[string]*outConn),
		inbound:  make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Addr returns the endpoint's dialable address (with the resolved port).
func (e *Endpoint) Addr() string { return e.listener.Addr().String() }

// Stats snapshots the endpoint's frame-loss and throughput counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		DroppedFull:    e.droppedFull.Load(),
		DroppedDead:    e.droppedDead.Load(),
		Requeued:       e.requeued.Load(),
		Malformed:      e.malformed.Load(),
		FramesSent:     e.framesSent.Load(),
		BatchesSent:    e.batchesSent.Load(),
		BytesSent:      e.bytesSent.Load(),
		FramesReceived: e.framesRecv.Load(),
		BytesReceived:  e.bytesRecv.Load(),
	}
}

// Serve starts the accept loop: every inbound connection gets a reader
// goroutine that decodes length-prefixed frames and calls handler with each
// in order. The handler runs on the reader goroutine and may keep the frame;
// a handler that blocks exerts backpressure on that peer's TCP stream only.
// Serve returns immediately.
func (e *Endpoint) Serve(handler func(frame []byte)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := e.listener.Accept()
			if err != nil {
				return // listener closed
			}
			e.mu.Lock()
			if e.closed {
				e.mu.Unlock()
				c.Close()
				return
			}
			e.inbound[c] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.readFrames(c, handler)
				e.mu.Lock()
				delete(e.inbound, c)
				e.mu.Unlock()
				c.Close()
			}()
		}
	}()
}

// readFrames decodes frames off r until it fails or the endpoint closes,
// handing each to handler in order. A length over MaxFrame ends the stream
// and is counted as Malformed.
func (e *Endpoint) readFrames(r io.Reader, handler func(frame []byte)) {
	br := bufio.NewReader(r)
	for {
		frame, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, errTooLarge) {
				e.malformed.Add(1)
			}
			return
		}
		select {
		case <-e.done:
			return
		default:
		}
		e.framesRecv.Add(1)
		e.bytesRecv.Add(uint64(len(frame)))
		handler(frame) // freshly allocated by ReadFrame: the handler may keep it
	}
}

// Send hands one frame to the peer at addr, dialing (or redialing) it if no
// healthy pooled connection exists, and writes it with whatever else is
// pending — unless another sender is writing and will carry it. A full
// pending batch blocks the caller up to SendTimeout and then drops the frame
// (counted in Stats) — the frame is "lost in the network", exactly like a
// frame on a connection that breaks mid-flight; protocol-level timeouts own
// recovery. Send returns an error only when no connection could be
// established or the endpoint is closed.
func (e *Endpoint) Send(addr string, frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame %d", len(frame), MaxFrame)
	}
	err := e.enqueue(addr, frame)
	if err == errDead {
		// The connection died between lookup and enqueue: one retry on a
		// fresh connection. A second death means the peer is gone and the
		// frame is lost like any other frame on a broken connection.
		if err = e.enqueue(addr, frame); err == nil {
			e.requeued.Add(1)
		}
	}
	switch err {
	case errFull:
		e.droppedFull.Add(1)
	case errDead:
		e.droppedDead.Add(1)
	default:
		return err
	}
	return nil
}

// enqueue appends frame to the pooled connection's pending batch, waiting
// up to SendTimeout for room, and flushes it if no flush is in progress.
func (e *Endpoint) enqueue(addr string, frame []byte) error {
	oc, err := e.conn(addr)
	if err != nil {
		return err
	}
	oc.mu.Lock()
	var timeout <-chan time.Time
	for len(oc.pending) >= e.cfg.Outbox && !oc.dead.Load() {
		if oc.space == nil {
			oc.space = make(chan struct{})
		}
		space := oc.space
		oc.mu.Unlock()
		if timeout == nil {
			t := time.NewTimer(e.cfg.SendTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-space:
		case <-timeout:
			return errFull
		case <-e.done:
			return ErrClosed
		}
		oc.mu.Lock()
	}
	if oc.dead.Load() {
		oc.mu.Unlock()
		return errDead
	}
	oc.pending = append(oc.pending, frame)
	if oc.flushing {
		oc.mu.Unlock()
		return nil
	}
	oc.flushing = true
	e.flush(oc)
	return nil
}

// flush writes oc's pending frames back to back, at most maxFlushFrames and
// about maxFlushBytes per write, until none is left. It is called with oc.mu
// held and oc.flushing set, and returns with both released. A write that
// timed out unwritten drops its frames and all pending as full and keeps the
// connection; any other failure retires it and drops them as dead — unless
// Close retired it, whose discards are not loss.
func (e *Endpoint) flush(oc *outConn) {
	for len(oc.pending) > 0 {
		oc.buf = oc.buf[:0]
		n := 0
		for n < len(oc.pending) && n < maxFlushFrames && len(oc.buf) < maxFlushBytes {
			oc.buf = AppendFrame(oc.buf, oc.pending[n])
			n++
		}
		rest := copy(oc.pending, oc.pending[n:])
		clear(oc.pending[rest:])
		oc.pending = oc.pending[:rest]
		oc.wake()
		oc.mu.Unlock()
		wrote, err := e.write(oc)
		oc.mu.Lock()
		if err == nil {
			e.framesSent.Add(uint64(n))
			e.batchesSent.Add(1)
			e.bytesSent.Add(uint64(len(oc.buf) - 4*n))
			continue
		}
		lost := uint64(n + len(oc.pending))
		clear(oc.pending)
		oc.pending = oc.pending[:0]
		switch {
		case oc.dead.Load(): // Close retired c mid-write; its discards are not loss
		case wrote == 0 && errors.Is(err, os.ErrDeadlineExceeded):
			e.droppedFull.Add(lost)
		default:
			oc.dead.Store(true)
			oc.c.Close()
			e.droppedDead.Add(lost)
		}
		oc.wake()
	}
	oc.flushing = false
	oc.mu.Unlock()
}

// write writes oc.buf in one call. The deadline is pushed out to SendTimeout
// only once less than half of it remains, keeping the deadline's timer reset
// off most writes.
func (e *Endpoint) write(oc *outConn) (int, error) {
	if now := time.Now(); oc.deadline.Sub(now) < e.cfg.SendTimeout/2 {
		oc.deadline = now.Add(e.cfg.SendTimeout)
		if err := oc.c.SetWriteDeadline(oc.deadline); err != nil {
			return 0, err
		}
	}
	return oc.c.Write(oc.buf)
}

// wake releases every sender waiting for room in oc's pending batch. It is
// called with oc.mu held.
func (oc *outConn) wake() {
	if oc.space != nil {
		close(oc.space)
		oc.space = nil
	}
}

// conn returns the pooled connection to addr, dialing one if there is none
// or the pooled one was retired.
func (e *Endpoint) conn(addr string) (*outConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if oc, ok := e.conns[addr]; ok && !oc.dead.Load() {
		e.mu.Unlock()
		return oc, nil
	}
	e.mu.Unlock()

	// Dial outside the lock: a slow peer must not serialize every sender.
	c, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, ErrClosed
	}
	if racing, ok := e.conns[addr]; ok && !racing.dead.Load() {
		c.Close() // another sender dialed concurrently; keep theirs
		return racing, nil
	}
	oc := &outConn{c: c}
	e.conns[addr] = oc
	return oc, nil
}

// Close shuts the endpoint down: no new accepts or dials, every connection
// closed, every reader goroutine joined. Frames already handed to handlers
// have completed when Close returns; frames still pending are discarded.
// Idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	err := e.listener.Close()
	for _, oc := range e.conns {
		oc.dead.Store(true) // before the Close that fails a write in progress
		oc.c.Close()
	}
	for c := range e.inbound {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

// AppendFrame appends the frame for payload to dst: its 4-byte big-endian
// length, then the payload. The caller keeps payload within MaxFrame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed frame, rejecting lengths over
// MaxFrame before allocating. The payload is freshly allocated.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d > %d", errTooLarge, n, MaxFrame)
	}
	r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
