// Package runtime executes register-emulation clusters on a real concurrent
// runtime: every node automaton has a loop goroutine of its own with a
// bounded mailbox and one owner at a time (that loop, or on the TCP link a
// transport reader delivering to an idle node itself), wall-clock time
// replaces the simulator's discrete steps, and the messages travel over one
// of two links chosen by backend name — in-process channels ("live") or
// loopback TCP ("net": one endpoint per server, one shared by all clients).
// The node automata are exactly the ones `internal/abd`, `internal/cas` and
// `internal/coded` deploy — the cluster is only the registry; this package
// clones the automata out of it and drives them itself, so the same
// deployment runs unchanged on every backend. Which channel carries a
// message is a parameter of the system, not of the algorithm (the paper's
// Section 2 model), so everything but the link is one code path.
//
// The contract with the simulator backend (DESIGN.md section 8):
//
//   - The simulator is the determinism oracle: same seed, same schedule,
//     byte-identical histories and fingerprints. This runtime makes NO such
//     promise — schedules here are an accident of goroutine timing, and two
//     runs of the same spec produce different histories.
//   - Safety is checked the same way on both, over one history path: a
//     batch run registers every operation with an ioa.OpFeed when its
//     automaton is invoked and settles it when the response is determined;
//     the feed's clock stamps both ends and releases settled operations in
//     invocation order into the caller's sink, or into an ioa.History of
//     the run's own when there is none. The runtime itself retains no
//     operation and no value — an interactive session records nothing here,
//     the session feed above it is the history. A history this runtime
//     produced must pass the same condition the algorithm guarantees on the
//     simulator.
//   - Faults: drop and delay rules of a faults.Plan are reused verbatim —
//     MessageFate is consulted at send time with a global send sequence
//     number, exactly as the kernel does, with delay steps scaled to wall
//     time by Config.StepDur. Outage windows and scheduled crash/recovery
//     events, positioned in kernel steps, run against the same step clock
//     via a faults.WallClock: a partitioned link's messages are held until
//     the window's wall-clock boundary, a crashed node's goroutine stops,
//     its link attachment is severed and its volatile state (mailbox,
//     queues, the automaton itself) is discarded, and a scheduled recovery
//     restarts the node from its durable image, a Clone of the automaton. A
//     server the plan recovers is cloned before each effect's first send
//     leaves it, so nothing it acknowledged can be lost to a crash.
//     Recovery of a client, whose pending operation dies with the crash,
//     is the one unsupported combination, rejected with
//     faults.ErrUnsupported. Every gate runs before the link sees the
//     message, so a dropped message is never encoded and never touches a
//     socket. A message to a node that is down is never received, as in
//     the paper's model: it is loss at the gate, beside a crashed sender's,
//     so no link encodes, holds or dials it. The runtime owns every loss
//     decision; a link counts only what dies physically on its way (frames
//     in flight to a node that went down, a dead connection, a corrupt
//     frame).
//   - Flow control: a mailbox is a bounded slice that senders append to
//     under a lock and the node's loop takes whole, parking on a one-slot
//     wake channel when it is empty. A sender facing a full one blocks up
//     to sendTimeout (1s) before the message is dropped and counted in
//     FaultStats.TransportDropped. The mailbox is the only thing a sender
//     waits on: shutdown closes every mailbox, which refuses every later
//     put and releases every waiting sender. On the TCP link the goroutine
//     releasing an endpoint's held frames writes each connection itself,
//     under the endpoint's send lock, its write bounded by the transport's
//     own 1s deadline. The paper's channels are unordered and lossy under
//     faults, so the per-link FIFO the bounded path preserves is sound and
//     the drop-after-deadline is loss the model already admits.
//   - Liveness is a verdict, not a hang: every operation carries a timeout,
//     and a run whose operations time out under a fault plan reports
//     Quiescent with the timed-out operations pending in the history (their
//     effects may still land — the atomicity checker's standard completion
//     semantics cover exactly this).
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// Backend names: each selects the link a runtime sends through.
const (
	BackendLive = "live" // in-process channels (chanLink)
	BackendNet  = "net"  // loopback TCP, one endpoint per server and one for all clients (tcpLink)
)

// Config tunes the runtime: what an operator sets, for either link. The zero
// value selects the defaults. What the store wires in per shard — the batch
// run's history sink and the telemetry handle — are arguments of RunConfig
// and OpenInteractive, not settings.
type Config struct {
	// StepDur converts a fault plan's steps into wall-clock time (default
	// 100µs): delay steps scale to holds of delay*StepDur (delay=1:24 thus
	// holds messages up to ~2.4ms), and outage windows [Start, End) cover
	// wall-clock [Start*StepDur, End*StepDur) from the run's start.
	StepDur time.Duration
	// OpTimeout bounds each operation's completion (default 5s). A client
	// whose operation times out is retired — its automaton may still be
	// waiting on lost messages — and the operation stays pending in the
	// history unless its response arrives before shutdown.
	OpTimeout time.Duration
	// Mailbox is the per-node buffered event queue capacity (default 128).
	Mailbox int
	// Pipeline is the number of operations each batch driver keeps in
	// flight per client (default 1: one at a time). The node queues
	// invocations and starts each only when its predecessor responds, so
	// the client automaton still holds one operation at a time and
	// per-client program order is preserved; recorded operation intervals
	// never overlap within a client. Interactive sessions do not read it:
	// their caller holds one operation per client at a time.
	Pipeline int
	// ListenAddr is the address every endpoint listens on (default
	// "127.0.0.1:0": one ephemeral loopback port per server, and one for the
	// clients). A fixed port in the spec would collide across endpoints, so
	// the port part should stay 0.
	// Read by the TCP link only.
	ListenAddr string
}

func (c Config) withDefaults() Config {
	if c.StepDur <= 0 {
		c.StepDur = 100 * time.Microsecond
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 128
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	return c
}

const (
	// sendTimeout bounds how long a sender blocks on a full mailbox before
	// the message is dropped and counted. This is the backpressure window:
	// under sustained overload, senders slow to the receiver's drain rate
	// instead of growing unbounded queues.
	sendTimeout = time.Second
)

// drainBatch bounds a node loop's drain batch (a run) to drainBatch+1
// events of its queue, after which it flushes the link and polls its
// incarnation's ended flag: coalescing amortizes the flush under load, the
// bound keeps a send from being held behind a long queue.
const drainBatch = 32

// link is the seam between the node runtime and the network that carries its
// messages. The runtime owns a message until send is called: the fault
// gates (drop, delay, outage hold, crashed sender, down target) have all
// passed by then, and from that call on the link owns it — it either
// reaches the target's mailbox through rt.post or is counted in loss. There
// are two implementations, chanLink and tcpLink, plus the recording fake the
// gate tests substitute.
type link interface {
	// up attaches a node to the network before its loop starts: once at
	// start and again at every recovery. An error leaves the node detached
	// (a failed recovery leaves it down).
	up(ns *nodeState) error
	// down detaches a crashed node; its loop has been joined and ns.down is
	// set. From here until the next up, the gate stops messages addressed
	// to the node, and whatever still slipped into its mailbox is discarded
	// by the runtime before the next incarnation starts.
	down(ns *nodeState)
	// send carries one gated message to the node the runtime resolved it
	// to. inLoop reports that the caller owns from: its loop (so the chan
	// link may consume from's mailbox while it waits), or a tcp reader
	// delivering to it inline; the tcp link holds the message until the
	// batch or run ends. A delayed or held message arrives on a timer
	// goroutine with inLoop false, and leaves at once (on the tcp link,
	// with the release of the endpoint's held frames that it starts or
	// finds under way).
	send(from, to *nodeState, msg ioa.Message, inLoop bool)
	// flush ends one drain batch of ns's loop, on that loop: whatever the
	// link held of the batch's sends leaves now.
	flush(ns *nodeState)
	// loss reports the messages the link accepted and then lost, and the
	// ones it had to resend on a fresh connection.
	loss() (dropped, requeued int)
	// sampler registers the link's own telemetry series and returns the
	// function the sampling goroutine calls each tick.
	sampler(reg *telemetry.Registry, shard telemetry.Label) func()
	// close releases the link's resources; called once by stop, before the
	// node loops are joined.
	close()
}

// newLink returns the link constructor the backend name selects.
func newLink(backend string) (func(*runtime) link, error) {
	switch backend {
	case BackendLive:
		return func(rt *runtime) link { return &chanLink{rt: rt} }, nil
	case BackendNet:
		return func(rt *runtime) link { return newTCPLink(rt) }, nil
	}
	return nil, fmt.Errorf("runtime: no link for backend %q (known: %s, %s)", backend, BackendLive, BackendNet)
}

// event is one mailbox entry: a message delivery, or (inv != nil) an
// operation invocation injected by the driver. Only the node's loop takes
// events off the mailbox (itself, or through its chan-link send siphoning
// while blocked), and handles them holding the ownership lock.
type event struct {
	from    ioa.NodeID
	msg     ioa.Message
	inv     *invokeEvent
	counted bool // posted by a tcp reader, so counted in the target's queued until handled
}

// Invocation lifecycle states. The single atomic state arbitrates the race
// between the node loop starting a queued invocation and a driver abandoning
// it on timeout: exactly one of the two CAS transitions wins, so an
// abandoned invocation either never ran at all or is a genuine pending op.
const (
	invQueued    int32 = iota // in a mailbox or node queue, not yet started
	invStarted                // the automaton has been invoked
	invAbandoned              // the driver gave up, or a crash discarded it, before it started
	invRefused                // the post was refused: it never reached the node
)

// invokeEvent is one submitted operation, from the driver's post to its
// response: the driver waits on it, and the node holds it as its pending
// operation while the automaton runs it.
type invokeEvent struct {
	inv   ioa.Invocation
	done  chan []byte     // buffered 1; receives the response value when recorded, closed when the op is abandoned
	state atomic.Int32    // invQueued -> invStarted (node) | invAbandoned (driver, crash); or invRefused
	span  *telemetry.Span // sampled lifecycle trace; nil for unsampled ops
	tk    *ioa.Ticket     // the feed ticket, from the start to the response; nil in interactive sessions; owner's
}

// nodeState is everything a node's owner owns: the automaton clone, its
// mailbox, the outstanding operation and the server storage maxima. One
// owner at a time — the loop or a reader: the node's loop, which holds own
// for each drain batch, or a tcp reader that took own to deliver a frame
// inline (tcpLink.inbound). Across a scheduled crash, ownership passes to
// the goroutine firing the WallClock's event (which joins the loop and
// excludes inline deliveries first) and back to the next incarnation.
type nodeState struct {
	id   ioa.NodeID
	node ioa.Node
	mb   *mailbox // one for the node's whole lifetime, across incarnations

	pending *invokeEvent   // the op the automaton holds; nil exactly while it holds none
	invq    []*invokeEvent // pipelined invocations awaiting their turn
	// q is the loop's one queue: its last take of mb, then whatever its
	// chan-link send siphoned off mb while blocked on a peer's full
	// mailbox. Events before head are handled (and zeroed); loop-owned.
	q    []event
	head int

	// Not beside mb's pointer, which every sender to the node reads: the loop
	// writes own twice per run, and must not take that cache line from them.
	own    sync.Mutex   // the ownership lock; only the loop and the crash path block on it, readers only TryLock
	queued atomic.Int32 // events tcp readers posted that are not handled yet, in mb or q; inline delivery waits for zero

	meter            ioa.StorageMeter // nil unless the node reports storage; loop-owned (rewritten on recovery)
	metered          bool             // set once at construction: the automaton type reports storage
	client           bool             // set once at construction: a writer or reader of the deployment
	curBits, maxBits atomic.Int64     // written by the node loop, readable mid-run

	// Crash-recovery machinery. ended and loopDone belong to one
	// incarnation of the node loop; the WallClock goroutine renews them
	// only between incarnations (after joining loopDone), so the loop reads
	// them race-free. ended is set once per incarnation, followed by a wake
	// token in mb (endIncarnation): by crashNode when the incarnation
	// crashes, or by stop (signalStop) when it is still live at shutdown,
	// after closing mb. The loop polls the flag once per run and after
	// every wakeup, and a chan-link send blocked on a full mailbox reads it
	// at each wake token; recoverNode clears it for the next incarnation.
	// image is the automaton a recovery restarts a clone of: nil when no
	// recovery is scheduled, else pristine, and for a server replaced by
	// the owner with a clone taken before each effect's sends.
	image    ioa.Node
	down     atomic.Bool // true between a crash and its recovery
	ended    atomic.Bool // the running incarnation is over; a wake token follows
	loopDone chan struct{}
}

// runtime drives one cluster's automata concurrently.
type runtime struct {
	cfg     Config
	plan    *faults.Plan
	wc      *faults.WallClock // step clock + crash/recovery event schedule
	nodes   []*nodeState      // indexed by NodeID, nil where no node has the id; resolve ids through node
	all     []*nodeState      // every node, by ascending id
	servers []ioa.NodeID      // the deployment's servers, whose storage maxima storageReport sums
	link    link

	feed *ioa.OpFeed             // stamps and orders a batch run's ops into its sink; nil in interactive sessions
	tel  *telemetry.RunTelemetry // where run metrics go; nil (or a nil Registry) records nothing
	seq  atomic.Uint64           // global send sequence number for MessageFate

	tracer        *telemetry.Tracer // sampled op-lifecycle spans; nil when telemetry is off
	stopTelemetry func()            // takes the final sample and joins the sampler; set by startTelemetry

	drops, delayed, delaySteps atomic.Int64
	overflow                   atomic.Int64 // events dropped after their deadline on a full mailbox
	dead                       atomic.Int64 // messages of a crashed sender, or to a down node, stopped at the gate or cut short by the crash
	checkpoints                atomic.Int64 // durable images taken ahead of a recovering node's sends

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{} // pending delay/outage timers, stopped at shutdown
	stopped bool                     // stop has begun: no timer is scheduled or fires a send

	wg sync.WaitGroup
}

// newRuntime clones every automaton out of the cluster registry, prepares
// (but does not start) a node goroutine per automaton and attaches each to
// the link, so on the TCP link the full NodeID -> address map exists before
// any frame is sent. The cluster itself is left untouched — its simulator
// System remains pristine. cfg's zero fields take their defaults here. On
// error the link is closed.
func newRuntime(cl *cluster.Cluster, plan *faults.Plan, cfg Config, tel *telemetry.RunTelemetry, mkLink func(*runtime) link) (*runtime, error) {
	cfg = cfg.withDefaults()
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	// Clients must actually be client automata; the cluster helper checks
	// the registered originals, which the runtime clones.
	clients := append(append([]ioa.NodeID(nil), cl.Writers...), cl.Readers...)
	for _, id := range clients {
		if _, err := cl.ClientAutomaton(id); err != nil {
			return nil, err
		}
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	rt := &runtime{
		cfg:     cfg,
		plan:    plan,
		tel:     tel,
		servers: cl.Servers,
		timers:  make(map[*time.Timer]struct{}),
	}
	if tel.Active() {
		rt.tracer = tel.Registry.Tracer()
	}
	ids := cl.Sys.NodeIDs() // ascending, and small non-negative integers: the System admits no other
	if len(ids) > 0 {
		rt.nodes = make([]*nodeState, ids[len(ids)-1]+1)
	}
	for _, id := range ids {
		n, err := cl.Automaton(id)
		if err != nil {
			return nil, err
		}
		ns := &nodeState{
			id:       id,
			node:     n.Clone(),
			mb:       newMailbox(cfg.Mailbox),
			loopDone: make(chan struct{}),
		}
		ns.meter, _ = ns.node.(ioa.StorageMeter)
		ns.metered = ns.meter != nil
		rt.nodes[id] = ns
		rt.all = append(rt.all, ns)
	}
	for _, id := range clients {
		rt.nodes[id].client = true
	}
	if plan != nil {
		for _, id := range plan.RecoveredNodes() {
			ns := rt.node(id)
			if ns == nil {
				return nil, fmt.Errorf("runtime: fault plan schedules recovery of unknown node %d", id)
			}
			if ns.client {
				return nil, fmt.Errorf("runtime: %w: node %d is a client scheduled to recover; only servers recover",
					faults.ErrUnsupported, id)
			}
			ns.image = ns.node.Clone()
		}
	}
	rt.wc = faults.NewWallClock(plan, cfg.StepDur)
	rt.link = mkLink(rt)
	for _, ns := range rt.all {
		if err := rt.link.up(ns); err != nil {
			rt.link.close()
			return nil, fmt.Errorf("runtime: node %d: %w", ns.id, err)
		}
	}
	return rt, nil
}

// node resolves a node id: nil for an id no node of the deployment has.
func (rt *runtime) node(id ioa.NodeID) *nodeState {
	if uint(id) < uint(len(rt.nodes)) {
		return rt.nodes[id]
	}
	return nil
}

// start launches one goroutine per node, then starts the wall clock: its
// epoch is stamped after every loop is running, so a crash scheduled at step
// 0 still finds a live incarnation to stop, and has stopped it when start
// returns — before the driver issues its first operation.
func (rt *runtime) start() {
	for _, ns := range rt.all {
		rt.wg.Add(1)
		go rt.loop(ns)
	}
	rt.wc.Start(faults.NodeHooks{Crash: rt.crashNode, Recover: rt.recoverNode})
}

// stop shuts everything down: the telemetry sampler takes its final sample,
// the wall clock stops, every pending delay/outage timer is stopped and no
// other fires a send, every mailbox closes and every live loop ends, the
// link closes, every goroutine joins. The sample comes first so it reads
// the run, not its teardown: frames stop strands (a server's last write into
// a peer endpoint that closed first) are not loss. After wc.Stop returns no
// crash/recovery hook is in flight, so no new loop goroutine can race
// wg.Wait, and every node's down flag holds still for signalStop. After stop
// returns, the storage maxima are final and no timer from this run remains
// scheduled.
func (rt *runtime) stop() {
	if rt.stopTelemetry != nil {
		rt.stopTelemetry()
	}
	rt.wc.Stop()
	rt.timerMu.Lock()
	rt.stopped = true
	for t := range rt.timers {
		t.Stop()
	}
	rt.timers = nil
	rt.timerMu.Unlock()
	rt.signalStop()
	rt.link.close()
	rt.wg.Wait()
}

// signalStop closes every node's mailbox, then ends the incarnation of every
// node that is not down exactly as a crash does. The mailboxes close first:
// a send blocked on a full mailbox is refused as soon as its target's
// closes, and a blocked chan-link send woken by its own loop's end finds its
// own mailbox closed, which tells the shutdown from a crash. A down node's
// incarnation was ended by crashNode and is not ended again. The caller must
// have stopped the wall clock, so no crashNode or recoverNode changes a
// node's down flag meanwhile.
func (rt *runtime) signalStop() {
	for _, ns := range rt.all {
		ns.mb.close()
	}
	for _, ns := range rt.all {
		if !ns.down.Load() {
			ns.endIncarnation()
		}
	}
}

// endIncarnation sets ended, then puts a wake token: a loop parked on an
// empty mailbox wakes, polls ended and exits, and a chan-link send the loop
// has blocked on a full mailbox returns.
func (ns *nodeState) endIncarnation() {
	ns.ended.Store(true)
	ns.mb.signal()
}

// after schedules f to run once after d, tracking the timer so stop can
// cancel it: an untracked time.AfterFunc would leak every in-flight delay
// timer past Close and keep firing into a dead runtime.
func (rt *runtime) after(d time.Duration, f func()) {
	rt.timerMu.Lock()
	defer rt.timerMu.Unlock()
	if rt.stopped {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		// The callback can only fire after the registration below released
		// the mutex, so t is always the registered timer here.
		rt.timerMu.Lock()
		delete(rt.timers, t)
		stopped := rt.stopped
		rt.timerMu.Unlock()
		if !stopped {
			f()
		}
	})
	rt.timers[t] = struct{}{}
}

// loop is one node goroutine — one incarnation of the node. It takes its
// whole mailbox in one lock and handles the queue under the ownership lock
// in runs of at most drainBatch+1 events, flushing the link after each run,
// so a run's sends leave together (on the tcp link, one socket write per
// destination endpoint) and no send is held past drainBatch+1 events. Events
// its chan-link send siphoned while blocked are appended to the same queue:
// they arrived after everything already in it and before anything still in
// the mailbox, so per-link FIFO holds. It polls its incarnation's ended
// flag once per run, and with the queue and the mailbox empty it parks on
// the mailbox's wake channel alone: crashNode at a crash, and stop for every
// live incarnation at shutdown, set ended and then put a wake token, so the
// loop reads no channel but its own wake and selects on nothing.
func (rt *runtime) loop(ns *nodeState) {
	exited := ns.loopDone
	defer rt.wg.Done()
	defer close(exited) // before Done: a loop stop has joined reads as exited
	for {
		if ns.ended.Load() {
			return
		}
		if ns.head == len(ns.q) {
			ns.takeMail()
			if len(ns.q) == 0 {
				<-ns.mb.wake
				continue
			}
		}
		ns.own.Lock()
		for n := 0; n <= drainBatch && ns.head < len(ns.q); n++ {
			ev := ns.q[ns.head]
			ns.q[ns.head] = event{} // the backing array must not pin the handled message
			ns.head++
			rt.handlePosted(ns, ev)
		}
		ns.own.Unlock()
		rt.link.flush(ns)
	}
}

// takeMail moves every event waiting in ns's mailbox to the end of the
// loop's queue; an exhausted queue is reset first, so the take swaps. Run by
// ns's loop, its blocked send, or the crash path with the loop joined.
func (ns *nodeState) takeMail() {
	if ns.head == len(ns.q) {
		ns.q, ns.head = ns.q[:0], 0
	}
	ns.q = ns.mb.take(ns.q)
}

// handlePosted handles an event the loop took off the mailbox; once a frame
// a tcp reader posted is handled, it no longer holds back inline delivery.
func (rt *runtime) handlePosted(ns *nodeState, ev event) {
	rt.handle(ns, ev)
	if ev.counted {
		ns.queued.Add(-1)
	}
}

// crashNode stops a node mid-run: runs where the WallClock fires its events
// (inside start for a step-0 crash, else on the clock's event goroutine).
// The incarnation's loop is signalled and joined, the node is detached from
// the link (on TCP a server's endpoint closes and peers' in-flight frames
// die as real network loss, counted by their senders; a client leaves the
// shared endpoint up, and frames arriving for it are counted lost), then its
// volatile state — everything but the durable image — is discarded: queued
// mailbox events, siphoned events, not-yet-started invocations (abandoned,
// so their drivers see "never happened"). An operation the automaton held
// mid-protocol stays pending in the history forever, which is exactly what
// the consistency checkers' completion semantics expect of an op lost to a
// crash.
func (rt *runtime) crashNode(id ioa.NodeID) {
	ns := rt.node(id)
	if ns == nil || ns.down.Load() {
		return
	}
	ns.down.Store(true)
	ns.endIncarnation()
	<-ns.loopDone
	// Exclude inline deliveries before the link lets go: one in flight ends
	// before the lock is ours, and every later one re-checks down under it,
	// so no Deliver runs on this incarnation once crashNode returns.
	ns.own.Lock()
	ns.own.Unlock()
	rt.link.down(ns)
	rt.discardVolatile(ns)
}

// discardVolatile empties the node's mailbox and queues between incarnations.
// Only called while the node is down with no loop goroutine running and
// inline deliveries excluded, so the loop-owned fields are safe to touch.
// The mailbox and the loop's queue go through one path: every queued
// invocation is abandoned (its driver wakes and sees "never started"), and
// every frame a tcp reader posted stops holding back inline delivery.
func (rt *runtime) discardVolatile(ns *nodeState) {
	ns.takeMail()
	for _, ev := range ns.q[ns.head:] {
		if ev.inv != nil {
			ev.inv.abandon()
		}
		if ev.counted {
			ns.queued.Add(-1)
		}
	}
	clear(ns.q)
	ns.q, ns.head = ns.q[:0], 0
	for _, ie := range ns.invq {
		ie.abandon()
	}
	ns.invq = nil
	if ie := ns.pending; ie != nil && ie.tk != nil {
		ie.tk.Abandon() // the op dies with the crash: permanently pending
	}
	ns.pending = nil
}

// recoverNode restarts a crashed node from its durable image: runs where
// the WallClock fires its events, strictly after the node's crash (the clock
// fires all node events in schedule order, one at a time). The new
// incarnation is a clone of the node's image — state changed since the
// node's last send is lost, everything it sent survives — re-attached to the
// link (on TCP a server gets a fresh endpoint peers redial on their next
// send, a client rejoins the shared one). A node that never sent restarts
// pristine. No lock guards ns.image here: crashNode joined the loop and took
// and released own, so its last writer is done.
func (rt *runtime) recoverNode(id ioa.NodeID) {
	ns := rt.node(id)
	if ns == nil || !ns.down.Load() || ns.image == nil {
		return
	}
	node := ns.image.Clone()
	rt.discardVolatile(ns) // events that raced the detach die with the crash
	if err := rt.link.up(ns); err != nil {
		return // no attachment, no rejoin; the node stays down
	}
	ns.node = node
	ns.meter, _ = node.(ioa.StorageMeter)
	ns.loopDone = make(chan struct{})
	ns.ended.Store(false)
	ns.down.Store(false)
	rt.wg.Add(1)
	go rt.loop(ns)
}

// handle processes one event for the node's owner. Invocations
// are queued and started only while no operation is pending, so a pipelining
// driver may submit several ops while the automaton still holds one at a
// time; deliveries go straight to the automaton.
func (rt *runtime) handle(ns *nodeState, ev event) {
	if ev.inv != nil {
		ns.invq = append(ns.invq, ev.inv)
	} else {
		rt.apply(ns, ns.node.Deliver(ev.from, ev.msg))
	}
	// Start queued invocations while the client is free. Normally at most
	// one starts; the loop only cascades when an invocation responds
	// immediately (e.g. a degenerate automaton), or skips abandoned entries.
	for ns.pending == nil && len(ns.invq) > 0 {
		ie := ns.invq[0]
		ns.invq[0] = nil // the backing array must not pin the started invocation's value
		ns.invq = ns.invq[1:]
		if !ie.state.CompareAndSwap(invQueued, invStarted) {
			continue // abandoned before it started: it never happened
		}
		ie.span.Mark(telemetry.StageStart)
		if rt.feed != nil {
			ie.tk = rt.feed.Begin(ns.id, ie.inv.Kind, ie.inv.Value)
		}
		ns.pending = ie
		rt.apply(ns, ns.node.(ioa.Client).Invoke(ie.inv))
	}
}

// apply settles a response (the feed stamps it before the effects' sends are
// dispatched: the response is determined by then, so shrinking the recorded
// operation interval to that point is sound for the checkers — the
// linearization point of a quorum operation precedes response
// determination), dispatches the sends, and refreshes the storage meters.
// A server the plan recovers is cloned into its image before the first send
// leaves it: the one durability rule, so a recovery never rolls back
// anything a peer saw.
func (rt *runtime) apply(ns *nodeState, eff ioa.Effects) {
	if ie := ns.pending; eff.Response != nil && ie != nil {
		out := eff.Response.Value
		if ie.tk != nil {
			ie.tk.Complete(out)
		}
		ie.span.Mark(telemetry.StageEffect)
		ns.pending = nil
		ie.done <- out // buffered, single outstanding op: never blocks
	}
	if ns.image != nil && !ns.client && len(eff.Sends) > 0 {
		if old, ok := ns.image.(interface{ Release() }); ok {
			old.Release() // the new image replaces it, and a recovery clones only the newest
		}
		ns.image = ns.node.Clone()
		rt.checkpoints.Add(1)
	}
	for _, send := range eff.Sends {
		rt.send(ns, send)
	}
	if ns.meter != nil {
		bits := int64(ns.meter.StorageBits())
		ns.curBits.Store(bits)
		ioa.RaiseMax(&ns.maxBits, bits)
	}
}

// send applies the fault plan's drop and delay rules to one automaton send,
// on the sender's owner. Sequence numbers are global, as in the kernel, so
// the same plan seed draws from the same decision stream.
func (rt *runtime) send(from *nodeState, s ioa.Send) {
	to := rt.node(s.To)
	if to == nil {
		return
	}
	if rt.plan != nil {
		seq := rt.seq.Add(1) - 1
		drop, delay := rt.plan.MessageFate(from.id, s.To, seq, rt.wc.Step())
		if drop {
			rt.drops.Add(1)
			return
		}
		if delay > 0 {
			rt.delayed.Add(1)
			rt.delaySteps.Add(int64(delay))
			rt.after(time.Duration(delay)*rt.cfg.StepDur, func() { rt.dispatch(from, to, s.Msg, false) })
			return
		}
	}
	rt.dispatch(from, to, s.Msg, true)
}

// dispatch gates the message on the plan's outage windows at the current
// step, then hands it to the link. A blocked message is held — not dropped —
// and re-dispatched at the next outage boundary, re-checking then in case
// windows abut; held messages are accounted as delays of (boundary - now)
// steps. A message whose sender crashed while it was parked (or mid-handle)
// dies with the sender: nothing is sent on behalf of a down node. A message
// to a node that is down is never received (the paper's model), so it is
// loss here, before any link encodes, holds or dials it.
func (rt *runtime) dispatch(from, to *nodeState, msg ioa.Message, inLoop bool) {
	if hold, steps := rt.wc.Hold(from.id, to.id); hold > 0 {
		rt.delayed.Add(1)
		rt.delaySteps.Add(int64(steps))
		rt.after(hold, func() { rt.dispatch(from, to, msg, false) })
		return
	}
	if from.down.Load() || to.down.Load() {
		rt.dead.Add(1)
		return
	}
	rt.link.send(from, to, msg, inLoop)
}

// post enqueues ev in to's mailbox with backpressure: the one place a
// sender waits. The fast path is an append under the mailbox's lock. A full
// mailbox makes the caller wait on its room channel and retry at each take
// that makes room, up to timeout, after which the event is dropped and
// counted as overflow. A closed mailbox — the runtime stopped — refuses the
// event, at once or when it releases the wait, and counts nothing. A node
// loop's chan-link send passes its own node as loop: while it waits, each
// token on the loop's wake channel siphons the loop's mailbox into its
// queue, and a token that finds the incarnation ended returns — a crash,
// reported in crashed, unless the loop's own mailbox is closed, which makes
// it the shutdown. Drivers, timers and transport readers pass a nil loop. A
// blocked transport reader stops consuming its socket, so on the TCP link
// the pressure propagates to the peer through TCP flow control. It reports
// whether the event was enqueued.
func (rt *runtime) post(loop, to *nodeState, ev event, timeout time.Duration) (ok, crashed bool) {
	room, ok := to.mb.put(ev)
	if ok || room == nil {
		return ok, false
	}
	var wake <-chan struct{} // nil, so never ready, for a caller without a loop
	if loop != nil {
		wake = loop.mb.wake
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case <-room:
			if room, ok = to.mb.put(ev); ok || room == nil {
				return ok, false
			}
		case <-wake:
			loop.takeMail()
			if loop.ended.Load() {
				return false, !loop.mb.closed.Load()
			}
		case <-t.C:
			rt.overflow.Add(1)
			return false, false
		}
	}
}

// invokeAsync submits an operation at a client and returns immediately; the
// node starts it when every earlier invocation at that client has responded.
// Pipelining drivers keep several open per client.
func (rt *runtime) invokeAsync(client ioa.NodeID, inv ioa.Invocation) *invokeEvent {
	ns := rt.node(client)
	ie := &invokeEvent{inv: inv, done: make(chan []byte, 1)}
	if rt.tracer != nil {
		ie.span = rt.tracer.Begin(inv.Kind.String())
	}
	// Invocations get the full op timeout to enqueue, not just sendTimeout:
	// a client mailbox saturated by protocol traffic clears as the node
	// drains, and dropping the invocation early would under-run fault-free
	// workloads that are merely overloaded.
	if ok, _ := rt.post(nil, ns, event{inv: ie}, rt.cfg.OpTimeout); !ok {
		ie.state.Store(invRefused)
		ie.span.End()
	} else {
		ie.span.Mark(telemetry.StageQueue)
	}
	return ie
}

// abandon gives the invocation up unless it has started, and reports
// whether it never started: refused, abandoned by a crash, or abandoned now.
// Giving it up closes done, which wakes a waiter at once (a crash abandons
// ops their drivers still wait on): an op that never started never responds,
// so nothing else ever sends on done.
func (ie *invokeEvent) abandon() bool {
	if ie.state.CompareAndSwap(invQueued, invAbandoned) {
		close(ie.done)
		return true
	}
	return ie.state.Load() != invStarted
}

// wait blocks for the response, a crash's discard, the timeout, or ctx
// cancellation. It returns the response value, whether the operation actually
// started (a started but incomplete op is genuinely pending: it may still
// take effect and must stay pending in any checked history; an unstarted one
// never happened), and whether it completed. A refused invocation returns at
// once, and so does a discarded one.
func (ie *invokeEvent) wait(ctx context.Context, timeout time.Duration) (out []byte, started, ok bool) {
	if ie.state.Load() == invRefused {
		return nil, false, false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out, open := <-ie.done:
		if !open {
			break // a crash abandoned it while queued
		}
		ie.span.Mark(telemetry.StageComplete)
		ie.span.End()
		return out, true, true
	case <-t.C:
	case <-ctx.Done():
	}
	if ie.abandon() {
		// Never started: the node will skip it, or a crash discarded it
		// still queued.
		ie.span.End()
		return nil, false, false
	}
	// Already started — it may even have completed in the race window.
	select {
	case out := <-ie.done:
		ie.span.Mark(telemetry.StageComplete)
		ie.span.End()
		return out, true, true
	default:
		ie.span.End()
		return nil, true, false
	}
}

// faultStats snapshots the fault counters in kernel form. Outage holds fold
// into the delay counters (each hold is a delay to the next window
// boundary). Backpressure drops (mailbox full past its deadline), messages
// of a crashed sender and whatever the link itself lost are transport-level
// loss, not plan decisions, so they land in TransportDropped.
func (rt *runtime) faultStats() ioa.FaultStats {
	dropped, requeued := rt.link.loss()
	return ioa.FaultStats{
		Drops:             int(rt.drops.Load()),
		DelayedMessages:   int(rt.delayed.Load()),
		DelayStepsTotal:   int(rt.delaySteps.Load()),
		Crashes:           rt.wc.Crashes(),
		Recoveries:        rt.wc.Recoveries(),
		Checkpoints:       int(rt.checkpoints.Load()),
		TransportDropped:  int(rt.overflow.Load()+rt.dead.Load()) + dropped,
		TransportRequeued: requeued,
	}
}
