package ioa

import (
	"errors"
	"testing"
)

// stubPlan is a minimal FaultPlan for kernel-level tests: per-link drops,
// fixed per-link delays, one outage window per link, and a node event list.
type stubPlan struct {
	drop   map[ChanKey]bool
	delay  map[ChanKey]int
	outage map[ChanKey][2]int // [start, end)
	events []NodeFaultEvent
}

func (p *stubPlan) MessageFate(from, to NodeID, seq uint64, step int) (bool, int) {
	k := ChanKey{from, to}
	if p.drop[k] {
		return true, 0
	}
	return false, p.delay[k]
}

func (p *stubPlan) LinkBlocked(from, to NodeID, step int) bool {
	w, ok := p.outage[ChanKey{from, to}]
	return ok && step >= w[0] && step < w[1]
}

func (p *stubPlan) NextLinkChange(from, to NodeID, step int) int {
	w, ok := p.outage[ChanKey{from, to}]
	if !ok {
		return -1
	}
	if step < w[0] {
		return w[0]
	}
	if step < w[1] {
		return w[1]
	}
	return -1
}

func (p *stubPlan) NodeEvents() []NodeFaultEvent { return p.events }

// faultTestSystem builds a quorum client (id 100) over n echo servers
// (ids 1..n) acking after q pongs.
func faultTestSystem(t *testing.T, n, q int) (*System, NodeID) {
	t.Helper()
	sys := NewSystem()
	servers := make([]NodeID, n)
	for i := range servers {
		servers[i] = NodeID(i + 1)
		if err := sys.AddServer(&echoServer{id: servers[i]}); err != nil {
			t.Fatal(err)
		}
	}
	client := NodeID(100)
	if err := sys.AddClient(&quorumClient{id: client, servers: servers, quorum: q}); err != nil {
		t.Fatal(err)
	}
	return sys, client
}

// fate is one MessageFate decision: the question the kernel asked and the
// plan's answer.
type fate struct {
	From, To NodeID
	Seq      uint64
	Step     int
	Drop     bool
	Delay    int
}

// fateLog wraps a FaultPlan and records every MessageFate decision the
// kernel asks of it, in the order asked.
type fateLog struct {
	FaultPlan
	fates []fate
}

func (l *fateLog) MessageFate(from, to NodeID, seq uint64, step int) (bool, int) {
	drop, delay := l.FaultPlan.MessageFate(from, to, seq, step)
	l.fates = append(l.fates, fate{From: from, To: to, Seq: seq, Step: step, Drop: drop, Delay: delay})
	return drop, delay
}

// faulted returns the decisions that dropped or delayed their message.
func (l *fateLog) faulted() []fate {
	var out []fate
	for _, f := range l.fates {
		if f.Drop || f.Delay > 0 {
			out = append(out, f)
		}
	}
	return out
}

// TestFaultDropStillReachesQuorum drops every message to one of three
// servers; a quorum-2 operation must still complete, the one drop (to
// server 3) must be the only fault the plan decided, and the stats must
// count it.
func TestFaultDropStillReachesQuorum(t *testing.T) {
	sys, client := faultTestSystem(t, 3, 2)
	log := &fateLog{FaultPlan: &stubPlan{drop: map[ChanKey]bool{{From: client, To: 3}: true}}}
	sys.SetFaultPlan(log)
	if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 1000); err != nil {
		t.Fatalf("op under single-link drop: %v", err)
	}
	if got := sys.FaultStats().Drops; got != 1 {
		t.Errorf("drops = %d, want 1", got)
	}
	if st := sys.FaultStats(); st.DelayedMessages != 0 || st.Crashes != 0 || st.Recoveries != 0 {
		t.Errorf("stats = %+v, want the one drop and nothing else", st)
	}
	recs := log.faulted()
	if len(recs) != 1 || !recs[0].Drop || recs[0].From != client || recs[0].To != 3 {
		t.Errorf("faulted decisions = %+v, want one drop to server 3", recs)
	}
}

// TestFaultDropQuorumLost drops messages to two of three servers: the
// quorum-2 operation can never complete and the system must go quiescent
// rather than hang.
func TestFaultDropQuorumLost(t *testing.T) {
	sys, client := faultTestSystem(t, 3, 2)
	sys.SetFaultPlan(&stubPlan{drop: map[ChanKey]bool{
		{From: client, To: 2}: true,
		{From: client, To: 3}: true,
	}})
	id, err := sys.Invoke(client, Invocation{Kind: OpWrite})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FairRun(1000, OpDone(id)); !errors.Is(err, ErrQuiescent) {
		t.Fatalf("got %v, want ErrQuiescent", err)
	}
}

// TestFaultDelayFastForward delays the only server link far beyond any
// deliverable step: the scheduler must fast-forward logical time across the
// delay instead of reporting quiescence.
func TestFaultDelayFastForward(t *testing.T) {
	sys, client := faultTestSystem(t, 1, 1)
	sys.SetFaultPlan(&stubPlan{delay: map[ChanKey]int{{From: client, To: 1}: 1000}})
	if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 100); err != nil {
		t.Fatalf("op under delay: %v", err)
	}
	if sys.Steps() < 1000 {
		t.Errorf("steps = %d, want >= 1000 (time must have fast-forwarded)", sys.Steps())
	}
	st := sys.FaultStats()
	if st.FastForwards == 0 || st.DelayedMessages == 0 {
		t.Errorf("stats = %+v, want fast-forwards and delayed messages", st)
	}
}

// TestFaultDelayReordersLink sends two pings on one link where only the
// first is delayed; the second must overtake it.
func TestFaultDelayReordersLink(t *testing.T) {
	sys := NewSystem()
	srv := &echoServer{id: 1}
	if err := sys.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	sender := &scriptClient{id: 100, sends: []Send{
		{To: 1, Msg: &Msg{Kind: kindPing, RID: 1}},
		{To: 1, Msg: &Msg{Kind: kindPing, RID: 2}},
	}}
	if err := sys.AddClient(sender); err != nil {
		t.Fatal(err)
	}
	sys.SetFaultPlan(&delayFirstPlan{})
	if _, err := sys.Invoke(100, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	if err := sys.FairRun(100, func(s *System) bool { return len(srv.received) == 2 }); err != nil {
		t.Fatal(err)
	}
	if srv.received[0] != 2 || srv.received[1] != 1 {
		t.Errorf("received order = %v, want [2 1] (delay must reorder)", srv.received)
	}
}

// scriptClient emits a fixed batch of sends on invocation and responds
// immediately.
type scriptClient struct {
	id    NodeID
	sends []Send
}

func (c *scriptClient) ID() NodeID                             { return c.id }
func (c *scriptClient) Busy() bool                             { return false }
func (c *scriptClient) Deliver(from NodeID, m Message) Effects { return Effects{} }
func (c *scriptClient) Clone() Node                            { cp := *c; return &cp }
func (c *scriptClient) Invoke(inv Invocation) Effects {
	return Effects{Sends: c.sends, Response: &Response{Kind: inv.Kind}}
}

// delayFirstPlan delays only the first message ever sent (seq 0).
type delayFirstPlan struct{}

func (delayFirstPlan) MessageFate(from, to NodeID, seq uint64, step int) (bool, int) {
	if seq == 0 {
		return false, 50
	}
	return false, 0
}
func (delayFirstPlan) LinkBlocked(from, to NodeID, step int) bool   { return false }
func (delayFirstPlan) NextLinkChange(from, to NodeID, step int) int { return -1 }
func (delayFirstPlan) NodeEvents() []NodeFaultEvent                 { return nil }

// TestFaultOutageHeals blocks the only server link for a window; the
// operation must stall through the window and complete after it heals.
func TestFaultOutageHeals(t *testing.T) {
	sys, client := faultTestSystem(t, 1, 1)
	sys.SetFaultPlan(&stubPlan{outage: map[ChanKey][2]int{{From: client, To: 1}: {0, 500}}})
	if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 100); err != nil {
		t.Fatalf("op across outage: %v", err)
	}
	if sys.Steps() < 500 {
		t.Errorf("steps = %d, want >= 500 (op must wait out the outage)", sys.Steps())
	}
}

// TestFaultScheduledCrashRecover crashes the only server at step 0 and
// recovers it at step 50. A message to a down node is lost, as on the
// wall-clock backends: the op invoked while the server is down goes
// quiescent with its ping counted as a drop, and an op invoked after the
// recovery completes.
func TestFaultScheduledCrashRecover(t *testing.T) {
	sys, client := faultTestSystem(t, 1, 1)
	fresh := NodeID(101)
	if err := sys.AddClient(&quorumClient{id: fresh, servers: []NodeID{1}, quorum: 1}); err != nil {
		t.Fatal(err)
	}
	sys.SetFaultPlan(&stubPlan{events: []NodeFaultEvent{
		{Step: 0, Node: 1},
		{Step: 50, Node: 1, Recover: true},
	}})
	if !sys.Crashed(1) {
		t.Fatal("step-0 crash event not applied at SetFaultPlan")
	}
	if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 100); !errors.Is(err, ErrQuiescent) {
		t.Fatalf("op with the only server down: got %v, want ErrQuiescent", err)
	}
	st := sys.FaultStats()
	if st.Crashes != 1 || st.Recoveries != 1 || st.Drops != 1 {
		t.Errorf("stats = %+v, want 1 crash, 1 recovery and the ping's drop", st)
	}
	if sys.Crashed(1) || sys.QueueLen(client, 1) != 0 {
		t.Errorf("server crashed %t with %d messages queued to it, want it up and none", sys.Crashed(1), sys.QueueLen(client, 1))
	}
	if _, err := sys.RunOp(fresh, Invocation{Kind: OpWrite}, 100); err != nil {
		t.Fatalf("op after recovery: %v", err)
	}
}

// TestFaultDelayedPastRecoveryDelivered crashes the only server at step 0
// and recovers it at step 50 under a 100-step delay on the client's link: a
// message is lost only if its target is down when it arrives, so the ping
// sent while the server is down arrives after the recovery and the op
// completes. A 10-step delay lands inside the crash, and the ping is lost.
func TestFaultDelayedPastRecoveryDelivered(t *testing.T) {
	for _, c := range []struct{ delay, drops int }{{100, 0}, {10, 1}} {
		sys, client := faultTestSystem(t, 1, 1)
		sys.SetFaultPlan(&stubPlan{
			delay: map[ChanKey]int{{From: client, To: 1}: c.delay},
			events: []NodeFaultEvent{
				{Step: 0, Node: 1},
				{Step: 50, Node: 1, Recover: true},
			},
		})
		_, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 100)
		if lost := c.drops > 0; (lost && !errors.Is(err, ErrQuiescent)) || (!lost && err != nil) {
			t.Fatalf("delay %d: op returned %v, want lost=%t", c.delay, err, lost)
		}
		if got := sys.FaultStats().Drops; got != c.drops {
			t.Errorf("delay %d: %d drops, want %d", c.delay, got, c.drops)
		}
		if err := sys.CheckReadySetInvariants(); err != nil {
			t.Errorf("delay %d: %v", c.delay, err)
		}
	}
}

// TestFaultSnapshotCarriesState snapshots a system mid-delay and verifies
// the restored copy completes the operation identically, including fault
// accounting.
func TestFaultSnapshotCarriesState(t *testing.T) {
	sys, client := faultTestSystem(t, 1, 1)
	sys.SetFaultPlan(&stubPlan{delay: map[ChanKey]int{{From: client, To: 1}: 200}})
	id, err := sys.Invoke(client, Invocation{Kind: OpWrite})
	if err != nil {
		t.Fatal(err)
	}
	fork := sys.Snapshot().Restore()
	for _, s := range []*System{sys, fork} {
		if err := s.FairRun(100, OpDone(id)); err != nil {
			t.Fatalf("run after snapshot: %v", err)
		}
	}
	if a, b := sys.FaultStats(), fork.FaultStats(); a != b {
		t.Errorf("fault stats diverged: %+v vs %+v", a, b)
	}
	if a, b := sys.Steps(), fork.Steps(); a != b {
		t.Errorf("steps diverged: %d vs %d", a, b)
	}
}
