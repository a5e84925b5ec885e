package ioa

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// --- toy automata for kernel tests ---

const (
	kindPing Kind = iota + 1
	kindPong
)

// ping and pong are the toy automata's messages: a sequence number in RID.
func ping(seq int) Msg { return Msg{Kind: kindPing, RID: int64(seq)} }
func pong(seq int) Msg { return Msg{Kind: kindPong, RID: int64(seq)} }

// echoServer replies pong to every ping and records the order of sequence
// numbers it received.
type echoServer struct {
	id       NodeID
	received []int
	bits     int
	out      Outbox
}

func (s *echoServer) ID() NodeID { return s.id }

func (s *echoServer) Deliver(from NodeID, msg Message) Effects {
	if msg.Kind != kindPing {
		return Effects{}
	}
	s.received = append(s.received, int(msg.RID))
	s.bits = 64 * len(s.received)
	return s.out.Reply(from, pong(int(msg.RID)))
}

func (s *echoServer) Clone() Node {
	return &echoServer{id: s.id, received: append([]int(nil), s.received...), bits: s.bits}
}

func (s *echoServer) StorageBits() int { return s.bits }

func (s *echoServer) StateDigest() string { return fmt.Sprint(s.received) }

// quorumClient sends one ping per server on write invocation and responds
// after quorum pongs.
type quorumClient struct {
	id      NodeID
	servers []NodeID
	quorum  int
	busy    bool
	seq     int
	acks    int
	out     Outbox
}

func (c *quorumClient) ID() NodeID { return c.id }
func (c *quorumClient) Busy() bool { return c.busy }

func (c *quorumClient) Invoke(inv Invocation) Effects {
	c.busy = true
	c.seq++
	c.acks = 0
	return c.out.All(c.servers, ping(c.seq))
}

func (c *quorumClient) Deliver(from NodeID, msg Message) Effects {
	if msg.Kind != kindPong || msg.RID != int64(c.seq) || !c.busy {
		return Effects{}
	}
	c.acks++
	if c.acks == c.quorum {
		c.busy = false
		return Effects{Response: &Response{Kind: OpWrite}}
	}
	return Effects{}
}

func (c *quorumClient) Clone() Node {
	cp := *c
	cp.servers = append([]NodeID(nil), c.servers...)
	cp.out = Outbox{}
	return &cp
}

func buildToySystem(t *testing.T, nServers, quorum int) (*System, []NodeID, NodeID) {
	t.Helper()
	sys := NewSystem()
	servers := make([]NodeID, nServers)
	for i := 0; i < nServers; i++ {
		servers[i] = NodeID(i + 1)
		if err := sys.AddServer(&echoServer{id: servers[i]}); err != nil {
			t.Fatal(err)
		}
	}
	client := NodeID(100)
	if err := sys.AddClient(&quorumClient{id: client, servers: servers, quorum: quorum}); err != nil {
		t.Fatal(err)
	}
	return sys, servers, client
}

// --- tests ---

func TestQuorumOpCompletes(t *testing.T) {
	sys, _, client := buildToySystem(t, 5, 3)
	op, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if op.Pending() {
		t.Fatal("operation should have completed")
	}
	if h := sys.History(); len(h.Ops) != 1 || len(h.PendingOps()) != 0 {
		t.Fatalf("history has %d ops, %d pending; want 1 complete", len(h.Ops), len(h.PendingOps()))
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	sys := NewSystem()
	if err := sys.AddServer(&echoServer{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddServer(&echoServer{id: 1}); err == nil {
		t.Fatal("duplicate node id should be rejected")
	}
}

func TestInvokeErrors(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 2)
	if _, err := sys.Invoke(NodeID(999), Invocation{Kind: OpWrite}); err == nil {
		t.Error("invoke on unknown node should fail")
	}
	if _, err := sys.Invoke(servers[0], Invocation{Kind: OpWrite}); err == nil {
		t.Error("invoke on a server should fail")
	}
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err == nil {
		t.Error("invoke on busy client should fail")
	}
	sys2, _, client2 := buildToySystem(t, 3, 2)
	sys2.Crash(client2)
	if _, err := sys2.Invoke(client2, Invocation{Kind: OpWrite}); err == nil {
		t.Error("invoke on crashed client should fail")
	}
}

func TestFIFOOrder(t *testing.T) {
	sys := NewSystem()
	srv := &echoServer{id: 1}
	if err := sys.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	cl := &quorumClient{id: 100, servers: []NodeID{1}, quorum: 1}
	if err := sys.AddClient(cl); err != nil {
		t.Fatal(err)
	}
	// Issue 10 sequential writes; each sends seq i to the single server.
	for i := 0; i < 10; i++ {
		if _, err := sys.RunOp(100, Invocation{Kind: OpWrite}, 100); err != nil {
			t.Fatal(err)
		}
	}
	for i, seq := range srv.received {
		if seq != i+1 {
			t.Fatalf("server received %v, FIFO violated at %d", srv.received, i)
		}
	}
}

// TestBackToBackOpsPrecede runs two operations one after the other, each
// on its own client: the history must order them in real time, so the
// second's invocation is stamped after the first's response.
func TestBackToBackOpsPrecede(t *testing.T) {
	sys, servers, first := buildToySystem(t, 3, 2)
	second := NodeID(101)
	if err := sys.AddClient(&quorumClient{id: second, servers: servers, quorum: 2}); err != nil {
		t.Fatal(err)
	}
	a, err := sys.RunOp(first, Invocation{Kind: OpWrite}, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunOp(second, Invocation{Kind: OpWrite}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !a.PrecedesOp(b) || b.PrecedesOp(a) {
		t.Errorf("back-to-back ops %v and %v are not ordered first before second", a, b)
	}
}

func TestCrashBlocksDeliveryButKeepsInFlight(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 3)
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	// Deliver ping to server 0 so it emits a pong, then crash server 0: its
	// in-flight pong must remain deliverable.
	if err := sys.Deliver(client, servers[0]); err != nil {
		t.Fatal(err)
	}
	sys.Crash(servers[0])
	if !sys.CanDeliver(servers[0], client) {
		t.Error("in-flight message from crashed server should remain deliverable")
	}
	// Crash server 1 with its ping still queued: delivery to it is blocked.
	sys.Crash(servers[1])
	if sys.CanDeliver(client, servers[1]) {
		t.Error("delivery to crashed server should be blocked")
	}
	// Quorum of 3 with only two pongs obtainable: the op cannot finish.
	err := sys.FairRun(1000, AllOpsDone)
	if !errors.Is(err, ErrQuiescent) {
		t.Fatalf("got %v, want ErrQuiescent", err)
	}
}

func TestLivenessWithFFailures(t *testing.T) {
	// Quorum 3 of 5: any 2 crashes must not block termination.
	sys, servers, client := buildToySystem(t, 5, 3)
	sys.Crash(servers[1])
	sys.Crash(servers[4])
	if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 1000); err != nil {
		t.Fatalf("op should terminate with f=2 failures: %v", err)
	}
}

func TestSilenceBlocksBothDirections(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 3)
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(client, servers[0]); err != nil {
		t.Fatal(err)
	}
	sys.Silence(client)
	if sys.CanDeliver(client, servers[1]) {
		t.Error("messages from silenced node must not deliver")
	}
	if sys.CanDeliver(servers[0], client) {
		t.Error("messages to silenced node must not deliver")
	}
	sys.Unsilence(client)
	if !sys.CanDeliver(client, servers[1]) {
		t.Error("unsilence should restore delivery")
	}
}

func TestFreezeChannel(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 3)
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	sys.Freeze(client, servers[0])
	if sys.CanDeliver(client, servers[0]) {
		t.Error("frozen channel must not deliver")
	}
	if !sys.CanDeliver(client, servers[1]) {
		t.Error("other channels must be unaffected")
	}
	sys.Unfreeze(client, servers[0])
	if !sys.CanDeliver(client, servers[0]) {
		t.Error("unfreeze should restore delivery")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 2)
	if _, err := sys.Invoke(client, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	stepsAt := sys.Steps()

	// Advance the original to completion.
	if err := sys.FairRun(1000, AllOpsDone); err != nil {
		t.Fatal(err)
	}

	// The snapshot must restore to the captured point, twice, independently.
	for i := 0; i < 2; i++ {
		fork := snap.Restore()
		if fork.Steps() != stepsAt {
			t.Fatalf("fork %d starts at step %d, want %d", i, fork.Steps(), stepsAt)
		}
		if len(fork.History().PendingOps()) != 1 {
			t.Fatalf("fork %d should have 1 pending op", i)
		}
		if err := fork.FairRun(1000, AllOpsDone); err != nil {
			t.Fatal(err)
		}
	}

	// Mutating a fork must not touch the original's servers.
	fork := snap.Restore()
	if err := fork.FairRun(1000, AllOpsDone); err != nil {
		t.Fatal(err)
	}
	n0, err := sys.Node(servers[0])
	if err != nil {
		t.Fatal(err)
	}
	f0, err := fork.Node(servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if n0 == f0 {
		t.Fatal("fork shares node instances with original")
	}
}

func TestStorageAccounting(t *testing.T) {
	sys, servers, client := buildToySystem(t, 3, 3)
	for i := 0; i < 4; i++ {
		if _, err := sys.RunOp(client, Invocation{Kind: OpWrite}, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rep := sys.Storage()
	// Each server received 4 pings at 64 bits each.
	for _, id := range servers {
		if got := rep.PerServerMaxBits[id]; got != 256 {
			t.Errorf("server %d max bits = %d, want 256", id, got)
		}
	}
	if rep.MaxServerBits != 256 {
		t.Errorf("MaxServerBits = %d, want 256", rep.MaxServerBits)
	}
	if rep.MaxTotalBits != 3*256 {
		t.Errorf("MaxTotalBits = %d, want %d", rep.MaxTotalBits, 3*256)
	}
	if rep.CurrentTotalBits != rep.MaxTotalBits {
		t.Errorf("CurrentTotalBits = %d, want %d (monotone toy)", rep.CurrentTotalBits, rep.MaxTotalBits)
	}
}

func TestRandomRunTerminates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sys, _, client := buildToySystem(t, 5, 3)
		id, err := sys.Invoke(client, Invocation{Kind: OpWrite})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if err := sys.RandomRun(rng, 10000, OpDone(id)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		sys := NewSystem()
		srv := &echoServer{id: 1}
		if err := sys.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		cl := &quorumClient{id: 100, servers: []NodeID{1}, quorum: 1}
		if err := sys.AddClient(cl); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5; i++ {
			id, err := sys.Invoke(100, Invocation{Kind: OpWrite})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RandomRun(rng, 1000, OpDone(id)); err != nil {
				t.Fatal(err)
			}
		}
		return append([]int(nil), srv.received...)
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
}

func TestDrainServerToServer(t *testing.T) {
	// Build a system where server 1 gossips to server 2 on every ping.
	sys := NewSystem()
	gossiper := &gossipServer{id: 1, peer: 2}
	sink := &echoServer{id: 2}
	if err := sys.AddServer(gossiper); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddServer(sink); err != nil {
		t.Fatal(err)
	}
	cl := &quorumClient{id: 100, servers: []NodeID{1}, quorum: 1}
	if err := sys.AddClient(cl); err != nil {
		t.Fatal(err)
	}
	// Invoke and deliver only the client->gossiper ping, so the gossip
	// message sits undelivered on the 1->2 channel.
	if _, err := sys.Invoke(100, Invocation{Kind: OpWrite}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(100, 1); err != nil {
		t.Fatal(err)
	}
	if sys.QueueLen(1, 2) != 1 {
		t.Fatalf("expected 1 gossip message queued, got %d", sys.QueueLen(1, 2))
	}
	n, err := sys.DrainServerToServer(100)
	if err != nil {
		t.Fatal(err)
	}
	// The gossip plus the sink's pong back to the gossiper are both
	// server-to-server messages.
	if n != 2 {
		t.Fatalf("drained %d messages, want 2", n)
	}
	if len(sink.received) != 1 {
		t.Fatal("gossip message was not delivered to the peer server")
	}
}

// gossipServer forwards every ping to a peer server and acks the sender.
type gossipServer struct {
	id   NodeID
	peer NodeID
}

func (s *gossipServer) ID() NodeID { return s.id }

func (s *gossipServer) Deliver(from NodeID, msg Message) Effects {
	if msg.Kind != kindPing {
		return Effects{}
	}
	return Effects{Sends: []Send{
		{To: from, Msg: &Msg{Kind: kindPong, RID: msg.RID}},
		{To: s.peer, Msg: msg},
	}}
}

func (s *gossipServer) Clone() Node { cp := *s; return &cp }

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("OpKind.String mismatch")
	}
	if OpKind(99).String() == "" {
		t.Error("unknown OpKind should still format")
	}
}

func TestHistoryPrecedence(t *testing.T) {
	a := Op{InvokeStep: 0, RespondStep: 5}
	b := Op{InvokeStep: 6, RespondStep: 10}
	c := Op{InvokeStep: 3, RespondStep: 8}
	if !a.PrecedesOp(b) {
		t.Error("a should precede b")
	}
	if a.PrecedesOp(c) {
		t.Error("a overlaps c")
	}
	pending := Op{InvokeStep: 0, RespondStep: -1}
	if pending.PrecedesOp(b) {
		t.Error("pending op precedes nothing")
	}
}

// TestOutboxReuse holds the Outbox to its contract: a batch is what was
// added since the last Effects, in order; a broadcast carries one message to
// every destination; a new batch reuses the buffer and clears every slot the
// last one used, so nothing handed out stays reachable from it; and a sent
// message is never written again, however many batches follow it, while a
// header-only send costs one slab allocation per slabLen messages.
func TestOutboxReuse(t *testing.T) {
	var o Outbox
	if eff := o.Effects(); eff.Sends != nil {
		t.Fatalf("an empty batch hands out %v, want nil sends", eff.Sends)
	}
	eff := o.All([]NodeID{1, 2, 3}, ping(7))
	if len(eff.Sends) != 3 || eff.Sends[0].To != 1 || eff.Sends[2].To != 3 || *eff.Sends[1].Msg != ping(7) || eff.Sends[0].Msg != eff.Sends[1].Msg {
		t.Fatalf("broadcast = %+v", eff.Sends)
	}
	first := &eff.Sends[0]
	eff = o.Reply(9, pong(8))
	if len(eff.Sends) != 1 || eff.Sends[0].To != 9 || *eff.Sends[0].Msg != pong(8) {
		t.Fatalf("reply = %+v", eff.Sends)
	}
	sent := eff.Sends[0].Msg
	if &eff.Sends[0] != first {
		t.Error("a new batch did not reuse the buffer")
	}
	for i, s := range o.sends[1:cap(o.sends)] {
		if s != (Send{}) {
			t.Errorf("slot %d still holds %+v from the last batch", i+1, s)
		}
	}
	o.Add(4, ping(1))
	o.Add(5, ping(2))
	if eff := o.Effects(); len(eff.Sends) != 2 || eff.Sends[1].To != 5 {
		t.Fatalf("added batch = %+v", eff.Sends)
	}
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < slabLen; i++ {
			o.Reply(9, pong(i))
		}
	}); got != 1 {
		t.Errorf("%d header-only replies allocate %.0f times in a grown outbox, want one slab", slabLen, got)
	}
	if *sent != pong(8) {
		t.Errorf("a sent message was rewritten by later batches: %+v", *sent)
	}
}
