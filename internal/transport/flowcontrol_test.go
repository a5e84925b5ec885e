package transport

import (
	"bufio"
	"bytes"
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

// waitingToSend counts the goroutines parked in Send on an endpoint's send
// lock, waiting for the sender holding it. A goroutine blocked on the pool's
// mutex further in, under send, is not one of them.
func waitingToSend() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" [sync.Mutex.Lock")) && bytes.Contains(g, []byte(").Send(")) && !bytes.Contains(g, []byte(").send(")) {
			n++
		}
	}
	return n
}

// writeBlocked reports whether a sender is parked in its socket write, under
// Endpoint.send: past the connection lookup and its check for a retired
// connection, so whatever retires the connection now fails this write.
func writeBlocked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" [IO wait")) && bytes.Contains(g, []byte("(*FD).Write(")) && bytes.Contains(g, []byte("(*Endpoint).send(")) {
			return true
		}
	}
	return false
}

// sendHeld reports whether a sender holds e's send lock: it is dialing or in
// its write, or about to be.
func sendHeld(e *Endpoint) bool {
	if e.sendMu.TryLock() {
		e.sendMu.Unlock()
		return false
	}
	return true
}

// TestBatchedDeliveryPreservesOrder floods one link with numbered frames,
// one Send each. The reader must hand every frame to the handler exactly
// once, in send order — the per-link FIFO.
func TestBatchedDeliveryPreservesOrder(t *testing.T) {
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
	if s := a.Stats(); s.DroppedFull.Load()+s.DroppedDead.Load() > 0 {
		t.Fatalf("healthy link dropped frames: %+v", s)
	}
}

// TestSendGroup pins a Send of several frames: the group arrives whole and
// in its order, and leaves in one socket write however many frames it
// holds; and a group to a peer that never reads blocks about SendTimeout
// and then counts each of its frames dropped exactly once.
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

		const first, more = 64, 200
		if err := a.Send(b.Addr(), numbered(0, first)...); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(b.Addr(), numbered(first, more)...); err != nil {
			t.Fatal(err)
		}
		if s := a.Stats(); s.FramesSent.Load() != first+more || s.BatchesSent.Load() != 2 {
			t.Fatalf("groups of %d and %d: %d frames in %d writes, want one write each", first, more, s.FramesSent.Load(), s.BatchesSent.Load())
		}
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == first+more
		})
		mu.Lock()
		defer mu.Unlock()
		for i, v := range got {
			if v != uint64(i) {
				t.Fatalf("frame %d arrived with sequence %d; the group's order broke", i, v)
			}
		}
	})

	t.Run("to a peer that never reads", func(t *testing.T) {
		const timeout, n = 20 * time.Millisecond, 10
		a, err := Listen("127.0.0.1:0", Config{SendTimeout: timeout})
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
			t.Fatalf("a group to a peer that never reads returned after %v, before SendTimeout %v", took, timeout)
		}
		if s := a.Stats(); s.DroppedFull.Load()+s.DroppedDead.Load() != n || s.FramesSent.Load()+s.Requeued.Load() != 0 {
			t.Fatalf("%+v: want each of the %d frames dropped exactly once", s, n)
		}
	})
}

// TestConcurrentSendersCoalesce has eight goroutines share one connection,
// each sending groups of four numbered frames. One writes at a time while
// the others wait for the send lock, so their groups coalesce into the one
// stream whole: every frame arrives exactly once, each group's frames back
// to back, each sender's frames in its send order, and every Send is one
// write. The peer is a pipe, whose writes block until read, and it reads
// nothing until senders wait behind the first write, so the lock is
// contended whatever the scheduler does.
func TestConcurrentSendersCoalesce(t *testing.T) {
	const senders, sends, group = 8, 100, 4
	a, err := Listen("127.0.0.1:0", Config{SendTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, peer := pipePeer(a, "peer")
	defer peer.Close()

	type arrival struct {
		sender byte
		seq    uint64
	}
	var mu sync.Mutex
	var got []arrival
	b := &Endpoint{cfg: Config{}.withDefaults()}
	go func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && waitingToSend() < 2; {
			time.Sleep(time.Millisecond)
		}
		b.readFrames(bufio.NewReader(peer), func(frame []byte, _ bool) {
			seq, _ := binary.Uvarint(frame[1:])
			mu.Lock()
			got = append(got, arrival{frame[0], seq})
			mu.Unlock()
		})
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s byte) {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				frames := make([][]byte, group)
				for j := range frames {
					frames[j] = binary.AppendUvarint([]byte{s}, uint64(i*group+j))
				}
				if err := a.Send("peer", frames...); err != nil {
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
		return len(got) == senders*sends*group
	})
	mu.Lock()
	defer mu.Unlock()
	next := make([]uint64, senders)
	for i, f := range got {
		if f.seq != next[f.sender] {
			t.Fatalf("sender %d: sequence %d arrived where %d was due; per-sender FIFO broken", f.sender, f.seq, next[f.sender])
		}
		next[f.sender]++
		if f.seq%group != 0 && got[i-1].sender != f.sender {
			t.Fatalf("sender %d's group split: sequence %d arrived after sender %d's frame", f.sender, f.seq, got[i-1].sender)
		}
	}
	st := a.Stats()
	if st.FramesSent.Load() != senders*sends*group || st.BatchesSent.Load() != senders*sends || st.DroppedFull.Load()+st.DroppedDead.Load() > 0 {
		t.Fatalf("healthy link: %+v, want %d frames sent in %d writes and none dropped", st, senders*sends*group, senders*sends)
	}
}

// TestSendBackpressureDropsAreCounted wedges the socket: each Send to a
// peer that never reads must return within about SendTimeout, every
// abandoned frame must show up in Stats, and no goroutine may be left
// behind. Over a pipe the ways a send can time out are told apart: a write
// that wrote nothing drops its frames as full and keeps the connection, and
// so does the sender waiting for the send lock behind it, whose own write
// times out in turn; a write that wrote part of a frame retires the
// connection and drops its frames as dead.
func TestSendBackpressureDropsAreCounted(t *testing.T) {
	const timeout = 50 * time.Millisecond
	// A send waits at most twice, for the send lock and in its write: the bound
	// leaves room for a scheduler hiccup, not for a third wait.
	timedSend := func(e *Endpoint, addr string, frame []byte) {
		t.Helper()
		start := time.Now()
		if err := e.Send(addr, frame); err != nil {
			t.Error(err)
		}
		if took := time.Since(start); took > 4*timeout {
			t.Errorf("Send to a wedged peer took %v, SendTimeout is %v", took, timeout)
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
		a, err := Listen("127.0.0.1:0", Config{SendTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()

		before := runtime.NumGoroutine()
		frame := make([]byte, 1<<20) // large frames fill the kernel buffer fast
		dropped := func() uint64 { s := a.Stats(); return s.DroppedFull.Load() + s.DroppedDead.Load() }
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
		if s := a.Stats(); s.DroppedFull.Load() != 1 || s.DroppedDead.Load() != 0 || pc.dead.Load() {
			t.Fatalf("zero-byte timeout: %+v, dead=%v; want one full drop and the connection kept", s, pc.dead.Load())
		}

		// Two at once: one times out in its write, the other waits for the
		// send lock and then times out in its own write — full drops either
		// way.
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				timedSend(a, "peer", []byte("unread"))
			}()
		}
		wg.Wait()
		if s := a.Stats(); s.DroppedFull.Load() != 3 || s.DroppedDead.Load() != 0 || pc.dead.Load() {
			t.Fatalf("two senders timed out: %+v, dead=%v; want three full drops and the connection kept", s, pc.dead.Load())
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
		if s := a.Stats(); s.DroppedFull.Load() != 3 || s.DroppedDead.Load() != 1 || !pc.dead.Load() {
			t.Fatalf("partial write: %+v, dead=%v; want one dead drop and the connection retired", s, pc.dead.Load())
		}
	})
}

// TestCloseDuringFlushIsNotLoss closes an endpoint while a sender is
// blocked writing to a peer that never reads, with another sender waiting
// for the send lock behind it: both return, neither frame is counted as
// lost (Close's discards are deliberate), and a later Send reports
// errClosed.
func TestCloseDuringFlushIsNotLoss(t *testing.T) {
	a, err := Listen("127.0.0.1:0", Config{SendTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, peer := pipePeer(a, "peer")
	defer peer.Close()

	sent := make(chan error, 2)
	go func() { sent <- a.Send("peer", []byte("in flight")) }()
	waitFor(t, 5*time.Second, func() bool { return sendHeld(a) })
	go func() { sent <- a.Send("peer", []byte("waiting")) }()
	waitFor(t, 5*time.Second, func() bool { return waitingToSend() == 1 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("Send cut short by Close = %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Send still blocked after Close")
		}
	}
	if s := a.Stats(); s.DroppedFull.Load()+s.DroppedDead.Load() != 0 {
		t.Fatalf("Close's discards counted as loss: %+v", s)
	}
	if err := a.Send("peer", []byte("late")); err != errClosed {
		t.Fatalf("send after close = %v, want errClosed", err)
	}
}

// TestPeerCloseMidFlushIsLoss is the converse: the peer, not Close, ends the
// stream while a sender is blocked writing to it (a frame too large for the
// socket buffers, unread) with another sender waiting for the send lock
// behind it. The peer half-closes, so it is the connection's reader —
// seeing the stream end and retiring the connection — that fails the write,
// not the socket. The writer's frame is real loss and lands in DroppedDead,
// not among Close's uncounted discards; the waiting sender finds the
// connection retired when it gets the lock, redials, and is delivered on the
// fresh connection. The peer half-closes only once the writer is parked in
// its socket write: a writer that merely holds the send lock may still be
// between pooling the connection and checking it, and would correctly take
// its stale retry onto a second connection the test never accepts.
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

	sent := make(chan error, 2)
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
		return pc != nil && (writeBlocked() || len(sent) > 0)
	})
	go func() { sent <- a.Send(addr, []byte("waiting")) }()
	waitFor(t, 5*time.Second, func() bool { return waitingToSend() == 1 || len(sent) > 0 })
	if len(sent) > 0 {
		t.Skip("this host's socket buffers absorbed a MaxFrame write to an unread peer")
	}
	if err := peer.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("Send cut short by the peer = %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Send still blocked after the peer ended its stream")
		}
	}
	if s := a.Stats(); s.DroppedDead.Load() != 1 || s.DroppedFull.Load()+s.Requeued.Load() != 0 || s.FramesSent.Load() != 1 || !pc.dead.Load() {
		t.Fatalf("peer ended its stream mid-write: %+v, dead=%t; want the writer's frame dropped dead and the waiter's sent", s, pc.dead.Load())
	}

	redialed, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer redialed.Close()
	br := bufio.NewReader(redialed)
	for _, want := range []string{a.Addr(), "waiting"} { // the hello, then the waiter's frame
		if got, err := readFrame(br, MaxFrame, nil); err != nil || string(got) != want {
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

	a, err := Listen("127.0.0.1:0", Config{SendTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	frame := make([]byte, 1<<16)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := a.Stats()
		if s.DroppedDead.Load() > 0 {
			return
		}
		_ = a.Send(ln.Addr().String(), frame) // dial errors are fine; keep probing
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no dead-connection drops recorded: %+v", a.Stats())
}
