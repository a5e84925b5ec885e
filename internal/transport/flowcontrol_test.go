package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pipePeer pools one end of an in-memory pipe as e's connection to addr,
// tracked like a dialed one (Close closes it; once Serve has run, a reader
// reads it), and returns the other end: the test plays the peer and decides
// exactly how many bytes of each write it accepts.
func pipePeer(e *Endpoint, addr string) (*peerConn, net.Conn) {
	local, remote := net.Pipe()
	pc := &peerConn{c: local}
	e.mu.Lock()
	e.track(pc, false)
	e.conns[addr] = pc
	e.mu.Unlock()
	return pc, remote
}

// TestBatchedDeliveryPreservesOrder floods one link with numbered frames
// through a tiny outbox. The reader must hand every frame to the handler
// exactly once, in send order — the per-link FIFO that the old
// spawn-on-overflow fallback broke.
func TestBatchedDeliveryPreservesOrder(t *testing.T) {
	a, err := Listen("127.0.0.1:0", Config{Outbox: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 2000
	var mu sync.Mutex
	var got []uint64
	b.Serve(func(frame []byte) {
		v, _ := binary.Uvarint(frame)
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), binary.AppendUvarint(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("frame %d arrived with sequence %d; per-link FIFO broken", i, v)
		}
	}
	if s := a.Stats(); s.DroppedFull+s.DroppedDead > 0 {
		t.Fatalf("healthy link dropped frames: %+v", s)
	}
}

// TestSendGroup pins a Send of several frames: the group arrives whole and
// in its order; a group of up to 64 frames (the flush cap) leaves in one
// socket write; and a group larger than Outbox, to a peer that never reads,
// blocks at least SendTimeout and then counts each of its frames dropped
// exactly once.
func TestSendGroup(t *testing.T) {
	numbered := func(from, n int) [][]byte {
		frames := make([][]byte, n)
		for i := range frames {
			frames[i] = binary.AppendUvarint(nil, uint64(from+i))
		}
		return frames
	}

	t.Run("order and one write", func(t *testing.T) {
		a, err := Listen("127.0.0.1:0", Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := Listen("127.0.0.1:0", Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var mu sync.Mutex
		var got []uint64
		b.Serve(func(frame []byte) {
			v, _ := binary.Uvarint(frame)
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		})

		if err := a.Send(b.Addr(), numbered(0, maxFlushFrames)...); err != nil {
			t.Fatal(err)
		}
		if s := a.Stats(); s.FramesSent != maxFlushFrames || s.BatchesSent != 1 {
			t.Fatalf("a group of %d: %d frames in %d writes, want one write", maxFlushFrames, s.FramesSent, s.BatchesSent)
		}
		const more = 200
		if err := a.Send(b.Addr(), numbered(maxFlushFrames, more)...); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == maxFlushFrames+more
		})
		mu.Lock()
		defer mu.Unlock()
		for i, v := range got {
			if v != uint64(i) {
				t.Fatalf("frame %d arrived with sequence %d; the group's order broke", i, v)
			}
		}
	})

	t.Run("larger than Outbox", func(t *testing.T) {
		const outbox, timeout, n = 4, 20 * time.Millisecond, 10
		a, err := Listen("127.0.0.1:0", Config{Outbox: outbox, SendTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		_, peer := pipePeer(a, "peer")
		defer peer.Close()
		start := time.Now()
		if err := a.Send("peer", numbered(0, n)...); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("a group past Outbox to a peer that never reads returned after %v, before SendTimeout %v", took, timeout)
		}
		if s := a.Stats(); s.DroppedFull+s.DroppedDead != n || s.FramesSent+s.Requeued != 0 {
			t.Fatalf("%+v: want each of the %d frames dropped exactly once", s, n)
		}
	})
}

// TestConcurrentSendersCoalesce has eight goroutines share one connection.
// While one of them writes, the others append behind it, and the next write
// carries their frames together: every frame arrives exactly once, each
// sender's frames arrive in its send order, and some writes carry more than
// one frame. The peer is
// a pipe, whose writes block until read, and it reads nothing until frames
// have queued behind the first write, so coalescing is not left to the
// scheduler: on one CPU the flusher and the reader would otherwise hand the
// processor back and forth and never let another sender in.
func TestConcurrentSendersCoalesce(t *testing.T) {
	const senders, each = 8, 500
	a, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pc, peer := pipePeer(a, "peer")
	defer peer.Close()

	var mu sync.Mutex
	got := make([][]uint64, senders)
	total := 0
	b := &Endpoint{done: make(chan struct{})}
	go func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			pc.mu.Lock()
			queued := len(pc.pending)
			pc.mu.Unlock()
			if queued > 1 {
				break
			}
		}
		b.readFrames(bufio.NewReader(peer), func(frame []byte, _ bool) {
			seq, _ := binary.Uvarint(frame[1:])
			mu.Lock()
			got[frame[0]] = append(got[frame[0]], seq)
			total++
			mu.Unlock()
		})
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s byte) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.Send("peer", binary.AppendUvarint([]byte{s}, uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(s))
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == senders*each
	})
	mu.Lock()
	defer mu.Unlock()
	for s, seqs := range got {
		if len(seqs) != each {
			t.Fatalf("sender %d: %d frames arrived, want %d", s, len(seqs), each)
		}
		for i, v := range seqs {
			if v != uint64(i) {
				t.Fatalf("sender %d: frame %d arrived with sequence %d; per-sender FIFO broken", s, i, v)
			}
		}
	}
	st := a.Stats()
	if st.FramesSent != senders*each || st.DroppedFull+st.DroppedDead > 0 {
		t.Fatalf("healthy link: %+v, want %d frames sent and none dropped", st, senders*each)
	}
	if st.BatchesSent >= st.FramesSent {
		t.Fatalf("%d frames left in %d writes; concurrent senders never coalesced", st.FramesSent, st.BatchesSent)
	}
}

// TestSendBackpressureDropsAreCounted wedges the socket: each Send to a
// peer that never reads must return within about SendTimeout, every
// abandoned frame must show up in Stats, and no goroutine may be left
// behind. Over a pipe the two ways a flush can time out are told apart: a
// write that wrote nothing drops its batch as full and keeps the
// connection; a write that wrote part of a frame retires the connection
// and drops its batch as dead.
func TestSendBackpressureDropsAreCounted(t *testing.T) {
	const timeout = 50 * time.Millisecond
	// A send blocks once, as the flusher in a write or as a waiter for room:
	// the bound leaves room for a scheduler hiccup, not for a second wait.
	timedSend := func(e *Endpoint, addr string, frame []byte) {
		t.Helper()
		start := time.Now()
		if err := e.Send(addr, frame); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 4*timeout {
			t.Fatalf("Send to a wedged peer took %v, SendTimeout is %v", took, timeout)
		}
	}

	t.Run("socket", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				<-stop // hold the connection open, never read
			}
		}()
		a, err := Listen("127.0.0.1:0", Config{Outbox: 1, SendTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()

		before := runtime.NumGoroutine()
		frame := make([]byte, 1<<20) // large frames fill the kernel buffer fast
		dropped := func() uint64 { s := a.Stats(); return s.DroppedFull + s.DroppedDead }
		for i := 0; i < 64 && dropped() < 3; i++ {
			timedSend(a, ln.Addr().String(), frame)
		}
		if dropped() < 3 {
			t.Fatalf("expected counted drops on a wedged socket, got %+v", a.Stats())
		}
		// No writer goroutine exists to park, and drops spawn nothing.
		if after := runtime.NumGoroutine(); after > before+1 {
			t.Fatalf("goroutines grew %d -> %d under a wedged peer; sending must not spawn", before, after)
		}
	})

	t.Run("pipe", func(t *testing.T) {
		a, err := Listen("127.0.0.1:0", Config{SendTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		pc, peer := pipePeer(a, "peer")
		defer peer.Close()

		timedSend(a, "peer", []byte("unread"))
		if s := a.Stats(); s.DroppedFull != 1 || s.DroppedDead != 0 || pc.dead.Load() {
			t.Fatalf("zero-byte timeout: %+v, dead=%v; want one full drop and the connection kept", s, pc.dead.Load())
		}

		read := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(peer, make([]byte, 3)) // then stop reading mid-frame
			read <- err
		}()
		timedSend(a, "peer", []byte("torn"))
		if err := <-read; err != nil {
			t.Fatal(err)
		}
		if s := a.Stats(); s.DroppedFull != 1 || s.DroppedDead != 1 || !pc.dead.Load() {
			t.Fatalf("partial write: %+v, dead=%v; want one dead drop and the connection retired", s, pc.dead.Load())
		}
	})
}

// TestCloseDuringFlushIsNotLoss closes an endpoint while a flusher is
// blocked writing to a peer that never reads, with another frame pending
// behind it: the flusher returns, neither frame is counted as lost (Close's
// discards are deliberate), and a later Send reports errClosed.
func TestCloseDuringFlushIsNotLoss(t *testing.T) {
	a, err := Listen("127.0.0.1:0", Config{SendTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pc, peer := pipePeer(a, "peer")
	defer peer.Close()

	sent := make(chan error, 1)
	go func() { sent <- a.Send("peer", []byte("in flight")) }()
	waitFor(t, 5*time.Second, func() bool {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.flushing && len(pc.pending) == 0
	})
	if err := a.Send("peer", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("flushing Send = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flushing Send still blocked after Close")
	}
	if s := a.Stats(); s.DroppedFull+s.DroppedDead != 0 {
		t.Fatalf("Close's discards counted as loss: %+v", s)
	}
	if err := a.Send("peer", []byte("late")); err != errClosed {
		t.Fatalf("send after close = %v, want errClosed", err)
	}
}

// TestPeerCloseMidFlushIsLoss is the converse: the peer, not Close, ends the
// stream while a flusher is blocked writing to it (a frame too large for the
// socket buffers, unread) with another frame pending behind. The peer
// half-closes, so it is the connection's reader — seeing the stream end and
// retiring the connection — that fails the write, not the socket. Both
// frames are real loss and land in DroppedDead, not among Close's uncounted
// discards, and the next Send redials and is delivered on a fresh
// connection.
func TestPeerCloseMidFlushIsLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := Listen("127.0.0.1:0", Config{SendTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Serve(func([]byte) {})
	addr := ln.Addr().String()

	sent := make(chan error, 1)
	go func() { sent <- a.Send(addr, make([]byte, MaxFrame)) }()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var pc *peerConn
	waitFor(t, 5*time.Second, func() bool {
		a.mu.Lock()
		pc = a.conns[addr]
		a.mu.Unlock()
		if pc == nil {
			return false
		}
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.flushing && len(pc.pending) == 0
	})
	if err := a.Send(addr, []byte("pending")); err != nil {
		t.Fatal(err)
	}
	pc.mu.Lock()
	stuck := pc.flushing && len(pc.pending) == 1
	pc.mu.Unlock()
	if !stuck {
		t.Skip("this host's socket buffers absorbed a MaxFrame write to an unread peer")
	}
	if err := peer.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("flushing Send = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flushing Send still blocked after the peer ended its stream")
	}
	if s := a.Stats(); s.DroppedDead != 2 || s.DroppedFull+s.Requeued+s.FramesSent != 0 || !pc.dead.Load() {
		t.Fatalf("peer ended its stream mid-flush: %+v, dead=%t; want both frames dropped dead", s, pc.dead.Load())
	}

	if err := a.Send(addr, []byte("after")); err != nil {
		t.Fatal(err)
	}
	redialed, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer redialed.Close()
	br := bufio.NewReader(redialed)
	for _, want := range []string{a.Addr(), "after"} { // the hello, then the frame
		if got, err := readFrame(br, MaxFrame); err != nil || string(got) != want {
			t.Fatalf("redialed stream: read %q, %v; want %q", got, err, want)
		}
	}
}

// TestDeadConnDropsAreCounted sends into connections the peer kills
// immediately: frames lost when a write hits the error must be counted as
// dead-connection drops instead of vanishing.
func TestDeadConnDropsAreCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.(*net.TCPConn).SetLinger(0) // RST on close: writes fail fast
			c.Close()
		}
	}()

	a, err := Listen("127.0.0.1:0", Config{Outbox: 4, SendTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	frame := make([]byte, 1<<16)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := a.Stats()
		if s.DroppedDead > 0 {
			return
		}
		_ = a.Send(ln.Addr().String(), frame) // dial errors are fine; keep probing
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no dead-connection drops recorded: %+v", a.Stats())
}
