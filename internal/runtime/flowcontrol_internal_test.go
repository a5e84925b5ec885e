package runtime

import (
	"bytes"
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"
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

// setNodes gives a hand-built runtime its nodes, as newRuntime lays them
// out: indexed by id, and listed by ascending id.
func setNodes(rt *runtime, nodes ...*nodeState) {
	for _, ns := range nodes {
		for int(ns.id) >= len(rt.nodes) {
			rt.nodes = append(rt.nodes, nil)
		}
		rt.nodes[ns.id] = ns
		rt.all = append(rt.all, ns)
	}
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
	rt := &runtime{cfg: Config{Mailbox: 4}.withDefaults()}
	l := &chanLink{rt: rt}
	from := &nodeState{id: 1, mb: newMailbox(4)}
	to := &nodeState{id: 2, mb: newMailbox(4)}
	setNodes(rt, from, to)

	const n = 1000
	got := make([]int, 0, n)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		consume(to.mb, n, func(ev event) {
			got = append(got, int(ev.msg.RID))
			time.Sleep(20 * time.Microsecond) // slower than the producer
		})
	}()
	for i := 0; i < n; i++ {
		l.send(from, to, &ioa.Msg{RID: int64(i)}, true)
	}
	<-consumed
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived with sequence %d; per-link FIFO broken", i, v)
		}
	}
	if d := rt.overflow.Load() + rt.dead.Load(); d != 0 {
		t.Fatalf("%d drops on a consuming link", d)
	}
}

// TestPostDropsAfterSendTimeout wedges a mailbox with no consumer: posts
// beyond capacity must return within roughly their deadline, report failure,
// and be counted as transport loss — not park goroutines or vanish silently.
func TestPostDropsAfterSendTimeout(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		rt := &runtime{}
		rt.link = mkLink(rt)
		ns := &nodeState{mb: newMailbox(2)}
		for i := 0; i < 2; i++ {
			if ok, _ := rt.post(nil, ns, event{}, 20*time.Millisecond); !ok {
				t.Fatal("post to empty mailbox failed")
			}
		}
		start := time.Now()
		if ok, _ := rt.post(nil, ns, event{}, 20*time.Millisecond); ok {
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
// the runtime stopped: every post must be refused by the closed mailbox, not
// enqueued, so an operation that races Close fails at once instead of
// sitting out its OpTimeout. On the chan link an in-loop send after the stop
// must leave the mailbox empty too.
func TestPostAfterStopIsRefused(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		const n = 1000
		rt := &runtime{}
		rt.link = mkLink(rt)
		from := &nodeState{id: 1, mb: newMailbox(1)}
		to := &nodeState{id: 2, mb: newMailbox(n)}
		setNodes(rt, from, to)
		rt.signalStop()
		for i := 0; i < n; i++ {
			if ok, _ := rt.post(nil, to, event{msg: &ioa.Msg{RID: int64(i)}}, sendTimeout); ok {
				t.Fatalf("post %d after stop was enqueued", i)
			}
		}
		if l, ok := rt.link.(*chanLink); ok {
			for i := 0; i < n; i++ {
				l.send(from, to, &ioa.Msg{RID: int64(i)}, true)
			}
		}
		if q := mailboxLen(to.mb); q != 0 {
			t.Fatalf("%d events enqueued after stop", q)
		}
	})
}

// TestBlockedSendReleasedByStop blocks a node loop's chan-link send and a
// post on a full mailbox (capacity 1, no consumer) and then stops the
// runtime: a sender waits on nothing but the mailbox, so shutdown reaches
// both through it — they must return well before sendTimeout, and a send cut
// short by shutdown is neither backpressure loss nor a crashed sender's
// message. The stop is made twice: in close-done by closing the mailboxes
// alone (the runtime-wide signal, which closing a done channel once was),
// and by signalStop, which closes them and then ends each incarnation as a
// crash does. A parked send is always released by the first, its target's
// mailbox closing; so in the signalStop subtest a pump keeps feeding the
// sender's own mailbox, the send keeps siphoning at each wake and
// re-entering its wait, and a stop that lands between two waits leaves the
// target closed and the sender's incarnation ended at the next one, either
// of which may win: woken through its own wake channel, the send must tell
// the shutdown (its own mailbox closed) from a crash. The post runs on both
// links; the in-loop send is the chan link's own.
func TestBlockedSendReleasedByStop(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		t.Run("close-done", func(t *testing.T) {
			testBlockedSendReleased(t, mkLink, func(rt *runtime) {
				for _, ns := range rt.all {
					ns.mb.close()
				}
			}, false)
		})
		t.Run("signalStop", func(t *testing.T) {
			testBlockedSendReleased(t, mkLink, (*runtime).signalStop, true)
		})
	})
}

func testBlockedSendReleased(t *testing.T, mkLink func(*runtime) link, stop func(*runtime), pump bool) {
	rt := &runtime{}
	rt.link = mkLink(rt)
	l, chanLinked := rt.link.(*chanLink)
	from := &nodeState{id: 1, mb: newMailbox(1)}
	to := &nodeState{id: 2, mb: newMailbox(1)}
	setNodes(rt, from, to)
	if _, ok := to.mb.put(event{}); !ok {
		t.Fatal("an empty mailbox refused the filler")
	}

	sent, posted := make(chan struct{}), make(chan bool, 1)
	go func() {
		defer close(sent)
		if chanLinked {
			l.send(from, to, label("in-loop"), true)
		}
	}()
	go func() {
		ok, _ := rt.post(nil, to, event{msg: label("posted")}, sendTimeout)
		posted <- ok
	}()
	// The in-loop send waits in post too: on chan, two goroutines park there.
	parked := 1
	if chanLinked {
		parked = 2
	}
	eventually(t, "the senders parked on the full mailbox", func() bool {
		return parkedIn("select", "(*runtime).post(") == parked
	})
	select {
	case <-sent:
		if chanLinked {
			t.Fatal("in-loop send returned before stop with the target full")
		}
	case <-posted:
		t.Fatal("post returned before stop with the target full")
	default:
	}

	if pump && chanLinked {
		quit := make(chan struct{})
		defer close(quit)
		var pumped atomic.Int64
		go func() {
			for {
				if room, ok := from.mb.put(event{msg: label("own")}); !ok {
					if room == nil {
						return // the stop closed the mailbox
					}
					select {
					case <-room:
					case <-quit:
						return
					}
					continue
				}
				pumped.Add(1)
				select {
				case <-quit:
					return
				default:
				}
			}
		}()
		eventually(t, "the blocked send siphoning its own mailbox", func() bool { return pumped.Load() >= 100 })
	}
	stop(rt)
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
	if o := rt.overflow.Load(); o != 0 {
		t.Fatalf("shutdown counted as overflow: %d", o)
	}
	if chanLinked {
		if d := rt.dead.Load(); d != 0 {
			t.Fatalf("shutdown counted as a crashed sender's message: dead %d", d)
		}
	}
	if q := mailboxLen(to.mb); q != 1 {
		t.Fatalf("target mailbox holds %d events, want only the one that filled it", q)
	}
}

// TestStopClosesEachLoopOnce stops a running cluster on each link after a
// server crashed for good (crashNode ended its incarnation before the stop)
// and after a server crashed and recovered (recoverNode cleared ended for
// its new incarnation), once mid-run with operations in flight and once
// after every operation returned. stop must close every mailbox and end
// each live incarnation — the recovered one's too — and skip the crashed
// one, and every node loop must have exited when stop returns.
func TestStopClosesEachLoopOnce(t *testing.T) {
	plans := []struct {
		name, spec string
		recoveries int
	}{
		{"crashed", "crash-f@0", 0},
		{"recovered", "crash-f@0:20", 1},
	}
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		for _, p := range plans {
			for _, midRun := range []bool{true, false} {
				name := p.name + "/after-run"
				if midRun {
					name = p.name + "/mid-run"
				}
				t.Run(name, func(t *testing.T) {
					sc, err := faults.Parse(p.spec)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := sc.Build(3, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					cl := abdCluster(t)
					rt, err := newRuntime(cl, plan, Config{}, nil, mkLink)
					if err != nil {
						t.Fatal(err)
					}
					rt.start()
					eventually(t, "the plan's crash and recovery", func() bool {
						return rt.wc.Crashes() == 1 && rt.wc.Recoveries() == p.recoveries
					})

					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var wg sync.WaitGroup
					var completed atomic.Int64
					for _, c := range []struct {
						id   ioa.NodeID
						kind ioa.OpKind
					}{{cl.Writers[0], ioa.OpWrite}, {cl.Readers[0], ioa.OpRead}} {
						wg.Add(1)
						go func(id ioa.NodeID, kind ioa.OpKind) {
							defer wg.Done()
							for i := 0; midRun || i < 20; i++ {
								if ctx.Err() != nil {
									return
								}
								inv := ioa.Invocation{Kind: kind}
								if kind == ioa.OpWrite {
									inv.Value = []byte{byte(i)}
								}
								if _, _, ok := rt.invokeAsync(id, inv).wait(ctx, time.Second); ok {
									completed.Add(1)
								}
							}
						}(c.id, c.kind)
					}
					if midRun {
						eventually(t, "operations completing", func() bool { return completed.Load() >= 4 })
						rt.stop()
						cancel()
						wg.Wait()
					} else {
						wg.Wait()
						if n := completed.Load(); n != 40 {
							t.Fatalf("%d of 40 operations completed", n)
						}
						rt.stop()
					}
					for _, ns := range rt.all {
						select {
						case <-ns.loopDone:
						default:
							t.Errorf("node %d: loop still running after stop returned", ns.id)
						}
					}
				})
			}
		}
	})
}

// TestMailboxWakeNeverLost runs four putters against one consumer that
// parks on the mailbox's wake channel alone and takes the whole queue per
// wakeup, on a mailbox small enough that the putters keep waiting for room.
// A wake token is put only on the empty → non-empty edge, so a lost wakeup
// would leave the consumer parked with events waiting: every event must
// arrive exactly once, in each putter's order, before the watchdog fires.
func TestMailboxWakeNeverLost(t *testing.T) {
	const putters, each = 4, 5000
	m := newMailbox(8)
	for p := 0; p < putters; p++ {
		go func(p int) {
			for i := 0; i < each; i++ {
				for {
					room, ok := m.put(event{from: ioa.NodeID(p), msg: &ioa.Msg{RID: int64(i)}})
					if ok {
						break
					}
					<-room
				}
			}
		}(p)
	}
	next := make([]int, putters)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		consume(m, putters*each, func(ev event) {
			p, i := int(ev.from), int(ev.msg.RID)
			if i != next[p] {
				t.Errorf("putter %d: event %d arrived when %d was due", p, i, next[p])
			}
			next[p] = i + 1
		})
	}()
	select {
	case <-consumed:
	case <-time.After(10 * time.Second):
		t.Fatalf("consumer still parked after 10s; per putter it got %v of %d", next, each)
	}
	if q := mailboxLen(m); q != 0 {
		t.Fatalf("%d events left in the mailbox after all were consumed", q)
	}
}

// TestCrashWakesIdleLoop crashes a server and a client whose loops are
// parked on empty mailboxes: the loops wait on their wake channels alone, so
// crashNode must reach them through the token it puts after setting ended,
// and return within 200ms, on both links.
func TestCrashWakesIdleLoop(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		cl := abdCluster(t)
		rt, err := newRuntime(cl, nil, Config{}, nil, mkLink)
		if err != nil {
			t.Fatal(err)
		}
		rt.start()
		eventually(t, "every loop parked on its wake channel", func() bool {
			return parkedIn("chan receive", "(*runtime).loop(") == len(rt.all)
		})
		for _, id := range []ioa.NodeID{cl.Servers[0], cl.Writers[0]} {
			crashed := make(chan struct{})
			go func() {
				defer close(crashed)
				rt.crashNode(id)
			}()
			select {
			case <-crashed:
			case <-time.After(200 * time.Millisecond):
				// No stop: it would wait on the same parked loop.
				t.Fatalf("crashNode(%d) still blocked 200ms after the crash of an idle loop", id)
			}
		}
		rt.stop()
	})
}

// TestCrashDiscardedOpNeverStarted queues an operation behind one that
// cannot complete (every send delayed seconds) and crashes the client: the
// crash abandons the queued invocation, so its wait must report it as never
// started — the session keeps it out of the history and the client in use —
// and return at once rather than sleep out its timeout, while the stuck one
// it held mid-protocol stays genuinely pending.
func TestCrashDiscardedOpNeverStarted(t *testing.T) {
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
		defer rt.stop()
		w := cl.Writers[0]
		stuck := rt.invokeAsync(w, ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("stuck")})
		queued := rt.invokeAsync(w, ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("queued")})
		eventually(t, "the first write started", func() bool { return stuck.state.Load() == invStarted })
		rt.crashNode(w)
		t0 := time.Now()
		if _, started, ok := queued.wait(context.Background(), 5*time.Second); started || ok {
			t.Fatalf("queued op discarded by the crash: started=%v ok=%v, want neither", started, ok)
		}
		if d := time.Since(t0); d > 100*time.Millisecond {
			t.Fatalf("wait on an op the crash discarded returned after %v, want at once", d)
		}
		if _, started, ok := stuck.wait(context.Background(), 20*time.Millisecond); !started || ok {
			t.Fatalf("op the crash left mid-protocol: started=%v ok=%v, want started and not ok", started, ok)
		}
	})
}

// TestBlockedSendEndsWithItsSendersCrash blocks a node loop's chan-link send
// on a full mailbox (capacity 1, no consumer) and then ends the sender's
// incarnation as crashNode does, its mailbox left open: the send must return
// well before sendTimeout, and its message dies with the crashed sender —
// counted as a crashed sender's message, not as overflow, and never put in
// the target's mailbox. TestBlockedSendReleasedByStop is the shutdown half.
func TestBlockedSendEndsWithItsSendersCrash(t *testing.T) {
	rt := &runtime{}
	l := &chanLink{rt: rt}
	rt.link = l
	from := &nodeState{id: 1, mb: newMailbox(1)}
	to := &nodeState{id: 2, mb: newMailbox(1)}
	setNodes(rt, from, to)
	if _, ok := to.mb.put(event{}); !ok {
		t.Fatal("an empty mailbox refused the filler")
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		l.send(from, to, label("in-loop"), true)
	}()
	eventually(t, "the send parked on the full mailbox", func() bool { return parkedInSelect("(*chanLink).send(") })
	from.down.Store(true)
	from.endIncarnation()
	select {
	case <-sent:
	case <-time.After(200 * time.Millisecond):
		t.Fatal("in-loop send still blocked 200ms after its sender crashed")
	}
	if d, o := rt.dead.Load(), rt.overflow.Load(); d != 1 || o != 0 {
		t.Fatalf("crashed sender's blocked send counted dead %d, overflow %d; want 1 and 0", d, o)
	}
	if q := mailboxLen(to.mb); q != 1 {
		t.Fatalf("target mailbox holds %d events, want only the one that filled it", q)
	}
}

// consume parks on m's wake channel alone and takes the whole mailbox per
// wakeup, as a node loop does, handing each event to f until n arrived.
func consume(m *mailbox, n int, f func(event)) {
	var q []event
	for got := 0; got < n; {
		if q = m.take(q[:0]); len(q) == 0 {
			<-m.wake
			continue
		}
		for _, ev := range q {
			f(ev)
		}
		got += len(q)
		clear(q)
	}
}

// mailboxLen reports how many events wait in m, not counting any take.
func mailboxLen(m *mailbox) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}

// parkedInSelect reports whether some goroutine is parked in a select inside
// the function whose stack frame contains fn.
func parkedInSelect(fn string) bool { return parkedIn("select", fn) > 0 }

// parkedIn counts the goroutines parked in the wait state named (as a
// goroutine dump prints it: "select", "chan receive", ...) inside the
// function whose stack frame contains fn.
func parkedIn(wait, fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" ["+wait)) && bytes.Contains(g, []byte(fn)) {
			n++
		}
	}
	return n
}
