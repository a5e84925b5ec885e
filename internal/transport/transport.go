// Package transport is the connection layer of the real-network execution
// backend: an Endpoint — a TCP listener plus a pool of connections, one per
// peer, each carrying frames both ways — exchanges opaque length-prefixed
// frames with its peers. The runtime gives every server an endpoint of its
// own and all of a deployment's clients one endpoint they share. The split
// mirrors memberlist's transport design (a listener feeding a handler,
// connections cached per peer address), scaled down to what the register
// emulations need:
//
//   - Frames, not streams: on the wire a frame is a 4-byte big-endian length
//     followed by its payload, and nothing else. MaxFrame is enforced on both
//     sides so a corrupt or hostile length cannot force an unbounded
//     allocation.
//   - One connection per peer pair: the first Send to a peer dials it
//     (bounded by a 2s timeout) and opens the stream with one hello frame
//     naming the dialer's own listen address; the accepting side adopts the
//     connection as its way back to that address, so replies ride the
//     request's socket (the kernel piggybacks its ACKs on them) and the
//     peer never dials back. A pooled connection is never replaced while
//     healthy, so frames to one peer keep one FIFO stream; if both sides
//     dial at once, each sends on its own and reads both.
//   - One sender per endpoint: Send holds the endpoint's send lock from the
//     connection lookup, and any dial, through its write, and writes its
//     frames, one or a group in order, back to back in one socket write.
//     The layer above already sends from one goroutine per endpoint at a
//     time, so the lock arbitrates nothing on the hot path. No frame waits
//     in the transport apart from its own sender: there is no pending queue
//     and no writer goroutine.
//   - Buffered reads: once Serve has installed the handler, every
//     connection, dialed or accepted, has a reader goroutine reading through
//     a 4 KiB bufio.Reader — one read syscall per wakeup, not one per header
//     and one per payload — that hands each frame to the handler in order,
//     telling it whether another whole frame is already buffered: the frames
//     one read delivered are a run, and the handler learns where it ends.
//     The reader reads every frame into one buffer of its own, reused from
//     frame to frame, so a ServeRuns handler borrows the frame for the call;
//     Serve hands its handler a copy to keep.
//   - Framed sends: SendFramed writes frames its caller has already framed
//     back to back, as they go on the wire, so a layer that builds its
//     frames in place writes them with no copy in between.
//   - Retirement and redial: a failed write, or the stream ending under its
//     reader, retires the connection and the next Send redials — loss on a
//     broken connection reaches the layer above as what it is on a real
//     network: silence, bounded by op timeouts.
//   - Bounded sends: the write carries a SendTimeout deadline and the dial
//     a 2s one, so a sender waiting on the lock waits only for bounded
//     dials and writes ahead of it; each frame a failed write drops is
//     counted once in Stats.
//     Per-link order holds from Send to handler for every surviving frame.
//   - Counters belong to the caller: an endpoint adds to the Stats block
//     Config.Stats names, so a layer that replaces an endpoint (a crashed
//     server listening again on a fresh one) hands every incarnation the
//     same block, and its totals outlive each endpoint. With no block given,
//     Listen allocates one.
//   - Graceful shutdown: Close stops the accept loop, closes every
//     connection, and joins every goroutine the endpoint started — no frame
//     handler runs after Close returns.
//
// Nothing on a stream is authenticated. The hello's address is trusted
// exactly as much as the sender id every frame of the layer above carries,
// and adopting it never replaces a healthy connection, so a stray or
// spoofed hello cannot divert frames already flowing to a peer.
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

// maxHello bounds the listen address a hello frame may carry; a dialable
// host:port is far shorter.
const maxHello = 256

// errClosed reports a Send on an endpoint that has been closed.
var errClosed = errors.New("transport: endpoint closed")

// errTooLarge reports a length prefix over the reader's cap.
var errTooLarge = errors.New("transport: frame length over its cap")

// Outcomes of one write attempt that Send turns into a retry or counted loss.
var (
	errFull  = errors.New("transport: nothing written within SendTimeout")
	errDead  = errors.New("transport: write failed; connection retired")
	errStale = errors.New("transport: connection retired before the write")
)

// dialTimeout bounds an outbound connection attempt.
const dialTimeout = 2 * time.Second

// Config tunes an Endpoint. The zero value selects the defaults.
type Config struct {
	// SendTimeout bounds how long a socket write may block before its
	// frames are dropped and counted (default 1s). This is the
	// backpressure window: under sustained overload senders slow to the
	// socket's drain rate instead of growing queues.
	SendTimeout time.Duration
	// Stats is the block the endpoint counts into (default: a fresh one).
	// Every endpoint given the same block adds to it while it runs.
	Stats *Stats
}

func (c Config) withDefaults() Config {
	if c.SendTimeout <= 0 {
		c.SendTimeout = time.Second
	}
	if c.Stats == nil {
		c.Stats = new(Stats)
	}
	return c
}

// Stats is an endpoint's frame-loss and throughput accounting, read live.
// Every frame an endpoint accepted for delivery and then lost is counted in
// exactly one bucket; frames waiting for the send lock or in flight when
// Close runs are deliberate shutdown discards and are not counted. The
// block belongs to whoever passed it in Config.Stats, and outlives the
// endpoint.
type Stats struct {
	// DroppedFull counts frames whose write timed out having written
	// nothing; the connection is kept.
	DroppedFull atomic.Uint64
	// DroppedDead counts frames in a write that failed otherwise, which
	// retires the connection, or whose retry found its fresh connection
	// retired too.
	DroppedDead atomic.Uint64
	// Requeued counts frames Send wrote on a fresh connection by its one
	// retry, after the pooled connection was found retired before the
	// write.
	Requeued atomic.Uint64
	// Malformed counts inbound streams refused at a length prefix over
	// MaxFrame, or at a hello naming an address over 256 bytes; the reader
	// closes such a stream, so nothing after the bad prefix reaches the
	// handler.
	Malformed atomic.Uint64
	// FramesSent / BatchesSent / BytesSent count the write side: frames
	// successfully written to a socket, the socket writes (one per Send)
	// carrying them, and the frames' payload bytes (length prefixes
	// excluded). BatchesSent <= FramesSent; their ratio is the achieved
	// coalescing factor. A connection's hello is not a frame.
	FramesSent  atomic.Uint64
	BatchesSent atomic.Uint64
	BytesSent   atomic.Uint64
	// FramesReceived / BytesReceived count the read side: frames handed to
	// the Serve handler and their payload bytes.
	FramesReceived atomic.Uint64
	BytesReceived  atomic.Uint64
}

// Endpoint is a network identity: a TCP listener, and a pool of
// connections — one per peer, dialed by whichever side sent first — whose
// inbound frames are delivered to the handler passed to Serve. Safe for
// concurrent use.
type Endpoint struct {
	cfg      Config
	listener net.Listener

	sendMu sync.Mutex // held by Send from the connection lookup through the write: one sender at a time
	buf    []byte     // the length-prefixed frames of the write in progress; sendMu's

	mu      sync.Mutex
	conns   map[string]*peerConn          // the connection frames to a peer leave on, keyed by its listen address
	open    map[*peerConn]struct{}        // every connection not yet retired by its reader, pooled or not
	handler func(frame []byte, more bool) // installed by ServeRuns; no reader runs before
	closed  atomic.Bool                   // Close has begun (set under mu): what it strands is a deliberate discard, not loss

	wg sync.WaitGroup
}

// peerConn is one connection to a peer, carrying frames both ways. The
// sender holding the endpoint's sendMu alone touches deadline and writes to
// c. Once Serve has run, a reader goroutine owns the read side of c.
type peerConn struct {
	c        net.Conn
	dead     atomic.Bool // c was retired: by a failed write, or by its reader when the stream ended
	deadline time.Time   // the write deadline set on c
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
		conns:    make(map[string]*peerConn),
		open:     make(map[*peerConn]struct{}),
	}, nil
}

// Addr returns the endpoint's dialable address (with the resolved port).
func (e *Endpoint) Addr() string { return e.listener.Addr().String() }

// Stats returns the block the endpoint counts into: Config.Stats, or the
// one Listen allocated.
func (e *Endpoint) Stats() *Stats { return e.cfg.Stats }

// Serve is ServeRuns for a handler that has no use for run ends. Each frame
// is copied out of the reader's buffer, so the handler may keep it.
func (e *Endpoint) Serve(handler func(frame []byte)) {
	e.ServeRuns(func(frame []byte, _ bool) { handler(append([]byte(nil), frame...)) })
}

// ServeRuns installs handler and starts reading: a reader goroutine on every
// connection dialed so far, and an accept loop giving each inbound
// connection one. A reader decodes length-prefixed frames and calls handler
// with each in order; more reports that the reader has the next frame whole
// in its buffer already, so more == false ends a run — the frames one socket
// read delivered — and the reader's next step may be a blocking read. The
// handler runs on the reader goroutine. The frame is valid only during the
// call: the reader reads the next frame into the same buffer, so a handler
// that keeps anything of it copies it. A handler that blocks exerts
// backpressure on that peer's inbound direction only. ServeRuns is called
// once (Serve counts) and returns immediately.
func (e *Endpoint) ServeRuns(handler func(frame []byte, more bool)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.handler = handler
	for pc := range e.open {
		e.wg.Add(1)
		go e.serveConn(pc, false)
	}
	e.wg.Add(1)
	go e.accept()
}

func (e *Endpoint) accept() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.track(&peerConn{c: c}, true)
		e.mu.Unlock()
	}
}

// track records pc as open, so Close closes it, and starts its reader once
// Serve has installed the handler. Called with e.mu held.
func (e *Endpoint) track(pc *peerConn, accepted bool) {
	e.open[pc] = struct{}{}
	if e.handler != nil {
		e.wg.Add(1)
		go e.serveConn(pc, accepted)
	}
}

// serveConn is pc's reader goroutine. On an accepted connection it first
// adopts pc by its hello; then it hands every frame to the handler until the
// stream ends or the endpoint closes, and retires pc, so the next Send to
// the peer redials instead of writing into a connection the peer has
// closed.
func (e *Endpoint) serveConn(pc *peerConn, accepted bool) {
	defer e.wg.Done()
	br := bufio.NewReader(pc.c)
	if !accepted || e.adopt(pc, br) {
		e.readFrames(br, e.handler)
	}
	pc.dead.Store(true)
	pc.c.Close()
	e.mu.Lock()
	delete(e.open, pc)
	e.mu.Unlock()
}

// adopt reads the hello that opens an accepted stream and pools pc as the
// connection to the address it names, unless a healthy one is pooled
// already: a pooled connection is never replaced, so frames to one peer
// keep one FIFO stream, and pc then only carries the peer's frames in. It
// reports false, refusing the stream, on a hello that does not arrive whole
// or names an address over maxHello bytes (counted Malformed).
func (e *Endpoint) adopt(pc *peerConn, br *bufio.Reader) bool {
	hello, err := readFrame(br, maxHello, nil)
	if err != nil {
		if errors.Is(err, errTooLarge) {
			e.cfg.Stats.Malformed.Add(1)
		}
		return false
	}
	addr := string(hello)
	e.mu.Lock()
	defer e.mu.Unlock()
	if pooled, ok := e.conns[addr]; !ok || pooled.dead.Load() {
		e.conns[addr] = pc
	}
	return true
}

// keptReadBuf bounds the frame buffer a reader keeps between frames: a
// larger frame is read into a buffer of its own, dropped once handled.
const keptReadBuf = 1 << 20

// readFrames decodes frames off r until it fails or the endpoint closes,
// handing each to handler in order, with whether the next is buffered whole.
// Every frame is read into the same buffer, so each is valid only until the
// handler returns. A length over MaxFrame ends the stream and is counted as
// Malformed.
func (e *Endpoint) readFrames(r *bufio.Reader, handler func(frame []byte, more bool)) {
	var buf []byte
	for {
		frame, err := readFrame(r, MaxFrame, buf)
		if err != nil {
			if errors.Is(err, errTooLarge) {
				e.cfg.Stats.Malformed.Add(1)
			}
			return
		}
		if e.closed.Load() {
			return
		}
		e.cfg.Stats.FramesReceived.Add(1)
		e.cfg.Stats.BytesReceived.Add(uint64(len(frame)))
		handler(frame, buffered(r))
		if cap(frame) <= keptReadBuf {
			buf = frame
		}
	}
}

// buffered reports whether r holds a whole frame already, so reading it
// makes no syscall.
func buffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4) // cannot fail: 4 bytes are buffered
	return uint64(r.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// Send writes frames to the peer at addr, in order and back to back in one
// socket write, dialing (or redialing) it if no healthy pooled connection
// exists. Send holds the endpoint's send lock throughout, so one sender
// dials and writes at a time and the others wait for its bounded dial and
// write. Frames whose write timed out unwritten or failed are dropped and
// counted once in Stats — they are "lost in the network", exactly like
// frames on a connection that breaks mid-flight; protocol-level timeouts own
// recovery. Send returns an error only when a frame exceeds MaxFrame, no
// connection could be established or the endpoint was closed before Send
// began; a Send that Close cuts short returns nil, its frames discarded.
func (e *Endpoint) Send(addr string, frames ...[]byte) error {
	for _, frame := range frames {
		if len(frame) > MaxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame %d", len(frame), MaxFrame)
		}
	}
	if e.closed.Load() {
		return errClosed
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	e.buf = e.buf[:0]
	for _, frame := range frames {
		e.buf = appendFrame(e.buf, frame)
	}
	return e.sendLocked(addr, e.buf, len(frames))
}

// SendFramed is Send for a group its caller has framed already: stream holds
// frames frames back to back, each its 4-byte big-endian length and its
// payload, exactly as Send would write them, and goes to the socket as it
// is, in one write. The caller keeps every payload within MaxFrame and may
// reuse stream once SendFramed returns.
func (e *Endpoint) SendFramed(addr string, stream []byte, frames int) error {
	if e.closed.Load() {
		return errClosed
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	return e.sendLocked(addr, stream, frames)
}

// sendLocked writes a framed group with sendMu held, retrying once on a
// fresh connection, and counts the frames of a failed write as loss.
func (e *Endpoint) sendLocked(addr string, stream []byte, frames int) error {
	if e.closed.Load() { // Close began while the sender waited: a discard, not loss
		return nil
	}
	err := e.send(addr, stream, frames)
	if err == errStale {
		// The connection died between lookup and write: one retry on a fresh
		// connection. A second death means the peer is gone and the frames
		// are lost like any other frames on a broken connection.
		if err = e.send(addr, stream, frames); err == nil {
			e.cfg.Stats.Requeued.Add(uint64(frames))
		}
	}
	switch err {
	case errFull:
		e.cfg.Stats.DroppedFull.Add(uint64(frames))
	case errDead, errStale:
		e.cfg.Stats.DroppedDead.Add(uint64(frames))
	default:
		return err
	}
	return nil
}

// send writes a framed group to addr's pooled connection, with sendMu held.
// It reports errStale when the connection was found retired before the
// write — by the peer ending the stream, or a failed write of an earlier
// Send. A write that timed out unwritten keeps the connection (errFull); any
// other failure retires it (errDead) — unless Close is under way, whose
// discards are not loss.
func (e *Endpoint) send(addr string, stream []byte, frames int) error {
	pc, err := e.conn(addr)
	if err != nil {
		return err
	}
	if pc.dead.Load() {
		return errStale
	}
	// The deadline is pushed out to SendTimeout only once less than half of
	// it remains, keeping the deadline's timer reset off most writes.
	if now := time.Now(); pc.deadline.Sub(now) < e.cfg.SendTimeout/2 {
		pc.deadline = now.Add(e.cfg.SendTimeout)
		pc.c.SetWriteDeadline(pc.deadline) // fails only on a closed connection, whose Write fails too
	}
	wrote, err := pc.c.Write(stream)
	switch {
	case err == nil:
		e.cfg.Stats.FramesSent.Add(uint64(frames))
		e.cfg.Stats.BatchesSent.Add(1)
		e.cfg.Stats.BytesSent.Add(uint64(len(stream) - 4*frames))
		return nil
	case e.closed.Load(): // Close failed the write: a discard, not loss
		return nil
	case wrote == 0 && errors.Is(err, os.ErrDeadlineExceeded):
		return errFull
	}
	pc.dead.Store(true)
	pc.c.Close()
	return errDead
}

// conn returns the pooled connection to addr — dialed by this endpoint or
// adopted from the peer's dial — dialing one if there is none or the pooled
// one was retired. Called with sendMu held, so an endpoint opens one
// connection per peer however many goroutines send to it.
func (e *Endpoint) conn(addr string) (*peerConn, error) {
	e.mu.Lock()
	pc, ok := e.conns[addr]
	e.mu.Unlock()
	if ok && !pc.dead.Load() {
		return pc, nil
	}

	// Dial and say hello outside mu: a slow peer must not stall accepts and
	// readers. The hello goes first on the stream, before any frame.
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if _, err := c.Write(appendFrame(nil, []byte(e.Addr()))); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: hello to %s: %w", addr, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		c.Close()
		return nil, errClosed
	}
	pc = &peerConn{c: c}
	e.track(pc, false)
	if racing, ok := e.conns[addr]; ok && !racing.dead.Load() {
		// The peer's own dial was adopted meanwhile: send on that one. Ours
		// stays open and read, since the peer may have adopted it as its way
		// back.
		return racing, nil
	}
	e.conns[addr] = pc
	return pc, nil
}

// Close shuts the endpoint down: no new accepts or dials, every connection
// closed, every reader goroutine joined. Frames already handed to handlers
// have completed when Close returns; frames waiting for the send lock or in
// a write are discarded.
// Idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	e.closed.Store(true) // before the Close that fails a write in progress, which then counts no loss
	err := e.listener.Close()
	for pc := range e.open {
		pc.c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

// appendFrame appends the frame for payload to dst: its 4-byte big-endian
// length, then the payload. The caller keeps payload within MaxFrame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrame reads one length-prefixed frame into buf, rejecting a length
// over limit before allocating. The payload reuses buf's array when it fits
// and is freshly allocated otherwise.
func readFrame(r *bufio.Reader, limit uint32, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > limit {
		return nil, fmt.Errorf("%w: %d > %d", errTooLarge, n, limit)
	}
	r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
