package runtime

import (
	"context"
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
