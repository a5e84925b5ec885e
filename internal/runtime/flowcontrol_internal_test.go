package runtime

import (
	"bytes"
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/ioa"
)

// bothLinks runs f once per real link implementation.
func bothLinks(t *testing.T, f func(t *testing.T, mkLink func(*runtime) link)) {
	t.Run("chan", func(t *testing.T) { f(t, func(rt *runtime) link { return &chanLink{rt: rt} }) })
	t.Run("tcp", func(t *testing.T) { f(t, func(rt *runtime) link { return newTCPLink(rt) }) })
}

// TestPostFIFOUnderSustainedOverflow drives 1000 sequence-marked messages
// from one node loop's position through the chan link into a mailbox
// (capacity 4) that is overflowing the whole time, with a consumer slower
// than the producer. Every message must survive (the sender blocks for
// backpressure, never drops within sendTimeout) and arrive in order — the
// per-link FIFO a spawn-on-overflow fallback silently breaks.
//
// chan only: on tcp a node loop never blocks on a peer's mailbox — its sends
// go to a socket, and the transport's own FIFO and backpressure tests
// (internal/transport) cover that path.
func TestPostFIFOUnderSustainedOverflow(t *testing.T) {
	rt := &runtime{
		cfg:  Config{Mailbox: 4}.withDefaults(),
		done: make(chan struct{}),
	}
	defer close(rt.done)
	l := &chanLink{rt: rt}
	from := &nodeState{id: 1, mb: make(chan event, 4), crashCh: make(chan struct{})}
	to := &nodeState{id: 2, mb: make(chan event, 4)}
	rt.nodes = map[ioa.NodeID]*nodeState{1: from, 2: to}

	const n = 1000
	got := make([]int, 0, n)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for i := 0; i < n; i++ {
			ev := <-to.mb
			got = append(got, ev.msg.(int))
			time.Sleep(20 * time.Microsecond) // slower than the producer
		}
	}()
	for i := 0; i < n; i++ {
		l.send(from, 2, i, true)
	}
	<-consumed
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived with sequence %d; per-link FIFO broken", i, v)
		}
	}
	if d := rt.overflow.Load() + l.dead.Load(); d != 0 {
		t.Fatalf("%d drops on a consuming link", d)
	}
}

// TestPostDropsAfterSendTimeout wedges a mailbox with no consumer: posts
// beyond capacity must return within roughly their deadline, report failure,
// and be counted as transport loss — not park goroutines or vanish silently.
func TestPostDropsAfterSendTimeout(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		rt := &runtime{done: make(chan struct{})}
		defer close(rt.done)
		rt.link = mkLink(rt)
		ns := &nodeState{mb: make(chan event, 2)}
		for i := 0; i < 2; i++ {
			if !rt.post(ns, event{}, 20*time.Millisecond) {
				t.Fatal("post to empty mailbox failed")
			}
		}
		start := time.Now()
		if rt.post(ns, event{}, 20*time.Millisecond) {
			t.Fatal("post to wedged mailbox succeeded")
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("drop took %v; must resolve around its 20ms deadline", took)
		}
		if d := rt.overflow.Load(); d != 1 {
			t.Fatalf("overflow counter = %d, want 1", d)
		}
		if s := rt.faultStats(); s.TransportDropped != 1 {
			t.Fatalf("TransportDropped = %d, want 1", s.TransportDropped)
		}
	})
}

// TestDelayTimersStoppedOnClose schedules long delay timers (every message
// delayed seconds into the future) and stops the runtime while they are
// pending: stop must cancel and forget them all, or they keep firing into
// the dead runtime and its closed link.
func TestDelayTimersStoppedOnClose(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		cl := abdCluster(t)
		sc, err := faults.Parse("delay=2000:4000") // 2-4s of wall delay at StepDur 1ms
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sc.Build(3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := newRuntime(cl, plan, Config{StepDur: time.Millisecond}, nil, mkLink)
		if err != nil {
			t.Fatal(err)
		}
		rt.start()
		// The write's initial sends are all delayed, so the op cannot finish;
		// the short wait just lets the timers get registered.
		_, started, ok := rt.invokeAsync(cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("v")}).wait(context.Background(), 50*time.Millisecond)
		if !started || ok {
			t.Fatalf("expected a started, timed-out op (started=%v ok=%v)", started, ok)
		}
		rt.timerMu.Lock()
		pending := len(rt.timers)
		rt.timerMu.Unlock()
		if pending == 0 {
			t.Fatal("no delay timers pending; the scenario should have delayed every send")
		}
		rt.stop()
		rt.timerMu.Lock()
		defer rt.timerMu.Unlock()
		if rt.timers != nil {
			t.Fatalf("%d timers still tracked after stop", len(rt.timers))
		}
		if !rt.stopped {
			t.Fatal("stop did not mark the runtime stopped")
		}
	})
}

// TestPostAfterStopIsRefused posts into a mailbox with room to spare after
// the runtime stopped: every post must be refused, not enqueued on the toss
// of a two-way select between the mailbox and done, so an operation that
// races Close fails at once instead of sitting out its OpTimeout. On the
// chan link an in-loop send after the stop must leave the mailbox empty too.
func TestPostAfterStopIsRefused(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		const n = 1000
		rt := &runtime{done: make(chan struct{})}
		rt.link = mkLink(rt)
		from := &nodeState{id: 1, mb: make(chan event, 1), crashCh: make(chan struct{})}
		to := &nodeState{id: 2, mb: make(chan event, n)}
		rt.nodes = map[ioa.NodeID]*nodeState{1: from, 2: to}
		close(rt.done)
		for i := 0; i < n; i++ {
			if rt.post(to, event{msg: i}, sendTimeout) {
				t.Fatalf("post %d after stop was enqueued", i)
			}
		}
		if l, ok := rt.link.(*chanLink); ok {
			for i := 0; i < n; i++ {
				l.send(from, to.id, i, true)
			}
		}
		if q := len(to.mb); q != 0 {
			t.Fatalf("%d events enqueued after stop", q)
		}
	})
}

// TestBlockedSendReleasedByStop blocks a node loop's chan-link send and a
// post on a full mailbox (capacity 1, no consumer) and then stops the
// runtime: the blocked path is the only place the sends still select on
// done, so both must return well before sendTimeout, and a send cut short
// by shutdown is neither backpressure loss nor a crashed sender's message.
func TestBlockedSendReleasedByStop(t *testing.T) {
	rt := &runtime{done: make(chan struct{})}
	l := &chanLink{rt: rt}
	rt.link = l
	from := &nodeState{id: 1, mb: make(chan event, 1), crashCh: make(chan struct{})}
	to := &nodeState{id: 2, mb: make(chan event, 1)}
	rt.nodes = map[ioa.NodeID]*nodeState{1: from, 2: to}
	to.mb <- event{}

	sent, posted := make(chan struct{}), make(chan bool, 1)
	go func() {
		defer close(sent)
		l.send(from, to.id, "in-loop", true)
	}()
	go func() { posted <- rt.post(to, event{msg: "posted"}, sendTimeout) }()
	eventually(t, "both senders parked on the full mailbox", func() bool {
		return parkedInSelect("(*chanLink).send(") && parkedInSelect("(*runtime).post(")
	})
	select {
	case <-sent:
		t.Fatal("in-loop send returned before stop with the target full")
	case <-posted:
		t.Fatal("post returned before stop with the target full")
	default:
	}

	close(rt.done)
	deadline := time.After(200 * time.Millisecond)
	select {
	case <-sent:
	case <-deadline:
		t.Fatal("in-loop send still blocked 200ms after stop")
	}
	select {
	case ok := <-posted:
		if ok {
			t.Fatal("post blocked on a full mailbox reported success after stop")
		}
	case <-deadline:
		t.Fatal("post still blocked 200ms after stop")
	}
	if o, d := rt.overflow.Load(), l.dead.Load(); o != 0 || d != 0 {
		t.Fatalf("shutdown counted as loss: overflow %d, dead %d", o, d)
	}
	if q := len(to.mb); q != 1 {
		t.Fatalf("target mailbox holds %d events, want only the one that filled it", q)
	}
}

// parkedInSelect reports whether some goroutine is parked in a select inside
// the function whose stack frame contains fn.
func parkedInSelect(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" [select")) && bytes.Contains(g, []byte(fn)) {
			return true
		}
	}
	return false
}
