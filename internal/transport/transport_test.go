package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes — socket delivery
// is asynchronous, so tests assert eventual state.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSendDeliversFrames(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
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
	b.Serve(func(frame []byte) {
		mu.Lock()
		got = append(got, frame)
		mu.Unlock()
	})
	a.Serve(func([]byte) {})

	for i := 0; i < 100; i++ {
		if err := a.Send(b.Addr(), []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 100
	})
	// Sends from one goroutine leave in call order: each writes its frame
	// before it returns.
	mu.Lock()
	defer mu.Unlock()
	for i, f := range got {
		if want := fmt.Sprintf("frame-%03d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

// TestServeHandsFramesToKeep pins Serve's side of the frame contract: a
// connection's reader reads every frame into one reused buffer, and ServeRuns
// handlers borrow each frame for the call, but a Serve handler is handed a
// copy of its own. Frames of one length sent as one group arrive in one read
// and would share the reader's buffer; kept past their calls, each still
// holds its own bytes.
func TestServeHandsFramesToKeep(t *testing.T) {
	const n = 32
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
	var kept [][]byte
	b.Serve(func(frame []byte) {
		mu.Lock()
		kept = append(kept, frame)
		mu.Unlock()
	})
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 16)
	}
	if err := a.Send(b.Addr(), frames...); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(kept) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, f := range kept {
		if !bytes.Equal(f, frames[i]) {
			t.Fatalf("kept frame %d reads %q after later frames were read, want %q", i, f, frames[i])
		}
	}
}

// TestConnectionReuse pins the pooling behavior: many sends to one peer
// share a single dialed connection, and the peer's sends back ride the same
// connection — after a→b and then b→a, a has accepted no connection, and
// each side has exactly one open, pooled under the other's address.
func TestConnectionReuse(t *testing.T) {
	var atA, atB atomic.Int64
	a, _ := Listen("127.0.0.1:0", Config{})
	defer a.Close()
	b, _ := Listen("127.0.0.1:0", Config{})
	defer b.Close()
	a.Serve(func([]byte) { atA.Add(1) })
	b.Serve(func([]byte) { atB.Add(1) })
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return atB.Load() == 50 })
	for i := 0; i < 50; i++ {
		if err := b.Send(a.Addr(), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return atA.Load() == 50 })
	// Nothing retires a connection here, so every connection an endpoint
	// dialed or accepted is still in its open set.
	for _, side := range []struct {
		name string
		e    *Endpoint
		peer string
	}{{"a", a, b.Addr()}, {"b", b, a.Addr()}} {
		side.e.mu.Lock()
		pool, open := len(side.e.conns), len(side.e.open)
		_, pooledIsOpen := side.e.open[side.e.conns[side.peer]]
		side.e.mu.Unlock()
		if pool != 1 || open != 1 || !pooledIsOpen {
			t.Fatalf("%s: %d pooled and %d open connections (pooled one open: %t), want the one connection both ways",
				side.name, pool, open, pooledIsOpen)
		}
	}
}

// TestColdSendersShareOneDial has many goroutines of one endpoint send to a
// peer it has no connection to yet, all at once: the first to take the send
// lock dials, and the others, waiting on the lock, find its connection
// pooled instead of each opening one, so the peer accepts exactly one.
func TestColdSendersShareOneDial(t *testing.T) {
	const senders = 32
	a, _ := Listen("127.0.0.1:0", Config{})
	defer a.Close()
	b, _ := Listen("127.0.0.1:0", Config{})
	defer b.Close()
	var got atomic.Int64
	b.Serve(func([]byte) { got.Add(1) })
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := a.Send(b.Addr(), []byte("cold")); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return got.Load() == senders })
	for _, side := range []struct {
		name string
		e    *Endpoint
	}{{"sender", a}, {"peer", b}} {
		side.e.mu.Lock()
		open := len(side.e.open)
		side.e.mu.Unlock()
		if open != 1 {
			t.Fatalf("%s: %d connections open after %d concurrent cold sends, want 1", side.name, open, senders)
		}
	}
}

// TestSimultaneousDial has two endpoints send numbered frames to each other
// from cold at once, so each may dial before it adopts the other's
// connection, in either order. Whichever connection each side ends up
// sending on, every frame arrives exactly once and in its sender's order.
func TestSimultaneousDial(t *testing.T) {
	const rounds, n = 10, 500
	for round := 0; round < rounds; round++ {
		var eps [2]*Endpoint
		var mu sync.Mutex
		var got [2][]uint64
		for i := range eps {
			e, err := Listen("127.0.0.1:0", Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			i := i
			e.Serve(func(frame []byte) {
				v, _ := binary.Uvarint(frame)
				mu.Lock()
				got[i] = append(got[i], v)
				mu.Unlock()
			})
			eps[i] = e
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(from, to *Endpoint) {
				defer wg.Done()
				<-start
				for k := 0; k < n; k++ {
					if err := from.Send(to.Addr(), binary.AppendUvarint(nil, uint64(k))); err != nil {
						t.Error(err)
						return
					}
				}
			}(eps[i], eps[1-i])
		}
		close(start)
		wg.Wait()
		waitFor(t, 10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got[0]) >= n && len(got[1]) >= n
		})
		mu.Lock()
		for i, seqs := range got {
			if len(seqs) != n {
				t.Fatalf("round %d: endpoint %d received %d frames, want %d", round, i, len(seqs), n)
			}
			for k, v := range seqs {
				if v != uint64(k) {
					t.Fatalf("round %d: endpoint %d's frame %d carried sequence %d; per-sender FIFO broken", round, i, k, v)
				}
			}
		}
		mu.Unlock()
		for i, e := range eps {
			if s := e.Stats(); s.DroppedFull.Load()+s.DroppedDead.Load()+s.Requeued.Load()+s.Malformed.Load() != 0 || s.FramesSent.Load() != n {
				t.Fatalf("round %d: endpoint %d: %+v, want %d frames sent and nothing lost", round, i, s, n)
			}
		}
	}
}

// TestSendAfterPeerRestart verifies the redial path: frames sent while the
// peer is down are lost (a real network's behavior), and sends succeed
// again once a new listener owns the address-equivalent endpoint.
func TestSendAfterPeerRestart(t *testing.T) {
	a, _ := Listen("127.0.0.1:0", Config{})
	defer a.Close()
	b, _ := Listen("127.0.0.1:0", Config{})
	var frames atomic.Int64
	b.Serve(func([]byte) { frames.Add(1) })
	addr := b.Addr()
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return frames.Load() == 1 })
	b.Close()
	// The pooled connection eventually observes the close; sends in the
	// interim are dropped or error — both acceptable. Eventually the dial
	// itself fails.
	waitFor(t, 5*time.Second, func() bool { return a.Send(addr, []byte("two")) != nil })
}

func TestCloseIsGracefulAndIdempotent(t *testing.T) {
	a, _ := Listen("127.0.0.1:0", Config{})
	b, _ := Listen("127.0.0.1:0", Config{})
	var handled atomic.Int64
	b.Serve(func([]byte) { handled.Add(1) })
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return handled.Load() == 10 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("late")); err != errClosed {
		t.Fatalf("send after close = %v, want errClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameCodec pins the one framing layer: a frame is its 4-byte
// big-endian length and its payload, nothing else, whether appendFrame
// builds it or Send writes it; frames back to back read back in order; a
// stream Send dials opens with a hello frame naming the dialer; and a length
// over MaxFrame is refused on both sides.
func TestFrameCodec(t *testing.T) {
	payloads := [][]byte{[]byte("hello frames"), {}, bytes.Repeat([]byte{0xab}, 4096), {0}}
	var stream []byte
	for _, p := range payloads {
		n := len(stream)
		stream = appendFrame(stream, p)
		if got := stream[n:]; binary.BigEndian.Uint32(got) != uint32(len(p)) || !bytes.Equal(got[4:], p) {
			t.Fatalf("appendFrame(%d bytes) = % x…", len(p), got[:4])
		}
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte // reused from frame to frame, as a connection's reader does
	for i, p := range payloads {
		got, err := readFrame(r, MaxFrame, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d read back as %q, want %q", i, got, p)
		}
		buf = got
	}
	if _, err := readFrame(r, MaxFrame, nil); err != io.EOF {
		t.Fatalf("read past the last frame = %v, want EOF", err)
	}

	// What Send puts on the socket is exactly appendFrame's bytes.
	a, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, peer := pipePeer(a, "peer")
	defer peer.Close()
	want := appendFrame(nil, payloads[0])
	written := make(chan []byte, 1)
	go func() {
		got := make([]byte, len(want))
		io.ReadFull(peer, got)
		written <- got
	}()
	if err := a.Send("peer", payloads[0]); err != nil {
		t.Fatal(err)
	}
	if got := <-written; !bytes.Equal(got, want) {
		t.Fatalf("Send wrote % x, want % x", got, want)
	}

	// SendFramed writes its caller's framed stream as it is, in one write,
	// and counts its frames and their payload bytes as Send would.
	want = appendFrame(appendFrame(nil, payloads[3]), payloads[0])
	go func() {
		got := make([]byte, len(want))
		io.ReadFull(peer, got)
		written <- got
	}()
	s := a.Stats()
	frames, batches, bytes0 := s.FramesSent.Load(), s.BatchesSent.Load(), s.BytesSent.Load()
	if err := a.SendFramed("peer", want, 2); err != nil {
		t.Fatal(err)
	}
	if got := <-written; !bytes.Equal(got, want) {
		t.Fatalf("SendFramed wrote % x, want % x", got, want)
	}
	if f, b, n := s.FramesSent.Load()-frames, s.BatchesSent.Load()-batches, s.BytesSent.Load()-bytes0; f != 2 || b != 1 ||
		n != uint64(len(payloads[3])+len(payloads[0])) {
		t.Fatalf("SendFramed of two frames counted %d frames, %d writes, %d bytes", f, b, n)
	}

	// A dialed stream opens with the hello: one frame whose payload is the
	// dialer's listen address, before the first frame sent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := a.Send(ln.Addr().String(), payloads[0]); err != nil {
		t.Fatal(err)
	}
	dialed, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	want = appendFrame(appendFrame(nil, []byte(a.Addr())), payloads[0])
	got := make([]byte, len(want))
	if _, err := io.ReadFull(dialed, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dialed stream opened with % x, want the hello then the frame: % x", got, want)
	}

	// Oversized length prefixes are rejected before allocation.
	evil := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(bufio.NewReader(evil), MaxFrame, nil); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized frame length read as %v, want errTooLarge", err)
	}
	if err := a.Send("peer", make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized send must be rejected")
	}
}

// TestReadFramesMarksRunEnds pins the run boundary ServeRuns reports: a
// frame is followed by more == true exactly when the next frame is already
// whole in the reader's buffer. The first fill of the 4 KiB buffer holds
// three small frames and the head of a large one, so the third ends a run;
// the large frame's tail is read past the buffer, leaving it empty; the last
// fill holds the two frames after it.
func TestReadFramesMarksRunEnds(t *testing.T) {
	var stream []byte
	for _, p := range []string{"a", "bc", "def"} {
		stream = appendFrame(stream, []byte(p))
	}
	stream = appendFrame(stream, bytes.Repeat([]byte{'x'}, 8<<10))
	stream = appendFrame(appendFrame(stream, []byte("tail1")), []byte("tail2"))
	var got []bool
	e := &Endpoint{cfg: Config{}.withDefaults()}
	e.readFrames(bufio.NewReader(bytes.NewReader(stream)), func(_ []byte, more bool) { got = append(got, more) })
	if want := []bool{true, true, false, false, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("run marks %v, want %v", got, want)
	}
}

// TestSlowConsumerDoesNotBlockSender floods one link from the sending
// goroutine to a slow consumer; each Send writes its frame into the
// kernel's socket buffer, which absorbs the burst, so the sender never
// waits on the consumer and every frame still arrives.
func TestSlowConsumerDoesNotBlockSender(t *testing.T) {
	a, _ := Listen("127.0.0.1:0", Config{})
	defer a.Close()
	b, _ := Listen("127.0.0.1:0", Config{})
	defer b.Close()
	var handled atomic.Int64
	b.Serve(func([]byte) {
		time.Sleep(100 * time.Microsecond) // slow consumer
		handled.Add(1)
	})
	const n = 500
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), []byte("burst")); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d sends took %v; Send must not block on a slow peer", n, took)
	}
	waitFor(t, 10*time.Second, func() bool { return handled.Load() == n })
}

// BenchmarkEndpointRoundTrip is one 64 B frame to a peer and back: two
// frames, each one write and one buffered read.
func BenchmarkEndpointRoundTrip(b *testing.B) {
	benchmarkFanOut(b, 1)
}

// BenchmarkEndpointFanOut is one sender and five peers, each replying: the
// shape of one ABD quorum phase on five servers.
func BenchmarkEndpointFanOut(b *testing.B) {
	benchmarkFanOut(b, 5)
}

func benchmarkFanOut(b *testing.B, n int) {
	a, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	replies := make(chan struct{}, n) // one reply per peer per iteration
	a.Serve(func([]byte) { replies <- struct{}{} })
	home := a.Addr()
	peers := make([]string, n)
	for i := range peers {
		p, err := Listen("127.0.0.1:0", Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		p.Serve(func(frame []byte) {
			if err := p.Send(home, frame); err != nil {
				b.Error(err)
			}
		})
		peers[i] = p.Addr()
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range peers {
			if err := a.Send(p, frame); err != nil {
				b.Fatal(err)
			}
		}
		for range peers {
			<-replies
		}
	}
}
