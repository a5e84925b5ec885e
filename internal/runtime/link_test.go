package runtime

import (
	"context"
	"net"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

func abdCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 1, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// eventually polls cond until it holds or two seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// recLink is the fake the link seam exists for: it records what reaches it
// and delivers nothing, so the runtime's gates are tested with no network
// and no automaton traffic.
type recLink struct {
	mu         sync.Mutex
	ups, downs []ioa.NodeID
	sent       chan sentMsg // buffered: a test sends a handful of messages
}

type sentMsg struct {
	from, to ioa.NodeID
	msg      ioa.Message
	inLoop   bool
	at       time.Time
}

func (l *recLink) up(ns *nodeState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ups = append(l.ups, ns.id)
	return nil
}

func (l *recLink) down(ns *nodeState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.downs = append(l.downs, ns.id)
}

func (l *recLink) send(from *nodeState, to ioa.NodeID, msg ioa.Message, inLoop bool) {
	l.sent <- sentMsg{from.id, to, msg, inLoop, time.Now()}
}

func (l *recLink) loss() (int, int)                                    { return 0, 0 }
func (l *recLink) sampler(*telemetry.Registry, telemetry.Label) func() { return func() {} }
func (l *recLink) close()                                              {}

// gated starts a runtime over a recording link under the plan (StepDur 1ms)
// and returns it with the link and the clock's epoch as the test sees it.
func gated(t *testing.T, plan *faults.Plan) (*runtime, *recLink, time.Time) {
	t.Helper()
	rec := &recLink{sent: make(chan sentMsg, 16)}
	rt, err := newRuntime(abdCluster(t), plan, Config{StepDur: time.Millisecond}, func(*runtime) link { return rec })
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ups) != len(rt.nodes) {
		t.Fatalf("link saw %d attachments for %d nodes", len(rec.ups), len(rt.nodes))
	}
	t0 := time.Now()
	rt.start()
	t.Cleanup(rt.stop)
	return rt, rec, t0
}

func (l *recLink) next(t *testing.T) sentMsg {
	t.Helper()
	select {
	case m := <-l.sent:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("message never reached the link")
		return sentMsg{}
	}
}

func (l *recLink) silent(t *testing.T) {
	t.Helper()
	select {
	case m := <-l.sent:
		t.Fatalf("message %v reached the link", m)
	default:
	}
}

// TestGatesRunInOrderBeforeLink pins the runtime side of the seam with no
// network at all: the plan's drop rule, then its delay rule, then the outage
// hold are applied — in that order — before link.send; a held message is
// re-gated at the boundary it waited for; and nothing is sent on behalf of a
// down node. Nodes 1..3 are the servers; the sends are issued by hand in
// place of node 1's loop.
func TestGatesRunInOrderBeforeLink(t *testing.T) {
	const tolerance = 25 * time.Millisecond // clock-read skew between the test's t0 and the runtime epoch
	only := func(id ioa.NodeID) faults.NodeSet { return faults.NodeSet{id} }

	t.Run("ungated message is sent on the caller's goroutine", func(t *testing.T) {
		rt, rec, _ := gated(t, nil)
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: "direct"})
		select {
		case m := <-rec.sent:
			if m.from != 1 || m.to != 2 || m.msg != "direct" || !m.inLoop {
				t.Fatalf("link got %+v, want the message as sent, in-loop", m)
			}
		default:
			t.Fatal("an ungated message was not handed to the link before send returned")
		}
	})

	t.Run("drop wins over delay and hold", func(t *testing.T) {
		rt, rec, _ := gated(t, &faults.Plan{
			Rules: []faults.Rule{
				{From: only(1), To: only(2), DropProb: 1},
				{From: only(1), To: only(2), DelayMin: 50, DelayMax: 50},
			},
			Outages: []faults.Outage{{From: only(1), To: only(2), Start: 0, End: 100}},
		})
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: "doomed"})
		if fs := rt.faultStats(); fs.Drops != 1 || fs.DelayedMessages != 0 {
			t.Fatalf("dropped message: %+v, want 1 drop and no delay or hold", fs)
		}
		rt.send(rt.nodes[1], ioa.Send{To: 3, Msg: "spared"})
		if m := rec.next(t); m.msg != "spared" || m.to != 3 || !m.inLoop {
			t.Fatalf("link got %+v, want only the unmatched message, sent in-loop", m)
		}
		rec.silent(t)
	})

	t.Run("delay then hold", func(t *testing.T) {
		// Delay 50 steps, outage until step 100. Delay first: the hold is
		// taken at step >= 50 and adds <= 50 steps. Hold first would park
		// the message 100 steps and then delay it 50 more: 150.
		rt, rec, t0 := gated(t, &faults.Plan{
			Rules:   []faults.Rule{{From: only(1), To: only(2), DelayMin: 50, DelayMax: 50}},
			Outages: []faults.Outage{{From: only(1), To: only(2), Start: 0, End: 100}},
		})
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: "slow"})
		rec.silent(t)
		m := rec.next(t)
		if m.inLoop {
			t.Error("a released message claims to be on its sender's loop")
		}
		if at := m.at.Sub(t0); at < 100*time.Millisecond-tolerance {
			t.Errorf("sent %v after start, inside the outage window ending at 100ms", at)
		}
		if fs := rt.faultStats(); fs.DelayStepsTotal > 100 || fs.DelayedMessages > 2 {
			t.Errorf("%+v: the outage hold was not taken after the delay (want <= 100 steps over <= 2 parkings)", fs)
		}
	})

	t.Run("held message is re-gated at the boundary", func(t *testing.T) {
		// Two abutting windows: released from the first at step 60, the
		// message must be caught by the second and held to step 120.
		rt, rec, t0 := gated(t, &faults.Plan{Outages: []faults.Outage{
			{From: only(1), To: only(2), Start: 0, End: 60},
			{From: only(1), To: only(2), Start: 60, End: 120},
		}})
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: "twice held"})
		m := rec.next(t)
		if at := m.at.Sub(t0); at < 120*time.Millisecond-tolerance {
			t.Errorf("sent %v after start; the second window (to 120ms) did not re-gate it", at)
		}
		if fs := rt.faultStats(); fs.DelayedMessages != 2 {
			t.Errorf("%d holds counted, want 2 (one per window)", fs.DelayedMessages)
		}
	})

	t.Run("nothing is sent for a down node", func(t *testing.T) {
		rt, rec, _ := gated(t, &faults.Plan{
			Rules: []faults.Rule{{From: only(1), To: only(2), DelayMin: 30, DelayMax: 30}},
		})
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: "parked across the crash"})
		rt.crashNode(1)
		if len(rec.downs) != 1 || rec.downs[0] != 1 {
			t.Fatalf("link saw detachments %v, want [1]", rec.downs)
		}
		rt.send(rt.nodes[1], ioa.Send{To: 3, Msg: "sent by a dead node"})
		eventually(t, "both messages counted lost", func() bool { return rt.faultStats().TransportDropped == 2 })
		rec.silent(t)
	})
}

// idleTCP attaches an ABD cluster to a tcpLink without starting the node
// loops: frames that arrive only fill mailboxes.
func idleTCP(t *testing.T) (*runtime, *tcpLink) {
	t.Helper()
	rt, err := newRuntime(abdCluster(t), nil, Config{}, func(rt *runtime) link { return newTCPLink(rt) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.stop)
	return rt, rt.link.(*tcpLink)
}

// dialRaw opens a bare TCP connection to a node's endpoint and writes the
// hello every dialed stream opens with, so what the test writes next is read
// as frames.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(transport.AppendFrame(nil, []byte(conn.LocalAddr().String()))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTCPLinkWire is the wire regression: real frames through tcpLink. A
// message sent at one node arrives at the peer's mailbox decoded and
// attributed to its sender (the frame's sender-id prefix), and frames that
// do not decode are counted and dropped without reaching the mailbox.
func TestTCPLinkWire(t *testing.T) {
	rt, l := idleTCP(t)

	codec, ok := wire.CodecFor(0x11) // abd.queryAck: varint, tag and value bytes
	if !ok {
		t.Fatal("abd wire types not registered")
	}
	msg := codec.Sample(7)
	l.send(rt.nodes[1], 2, msg, true)
	select {
	case ev := <-rt.nodes[2].mb:
		if ev.from != 1 || !reflect.DeepEqual(ev.msg, msg) {
			t.Fatalf("node 2 received %#v from %d; node 1 sent %#v", ev.msg, ev.from, msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived")
	}

	conn := dialRaw(t, l.addrs[2])
	for _, frame := range [][]byte{
		{},           // no sender id
		{0x01, 0xee}, // sender 1, unregistered type id
		{0x01, 0x11}, // sender 1, queryAck with a truncated body
	} {
		if _, err := conn.Write(transport.AppendFrame(nil, frame)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "three undecodable frames counted", func() bool { d, _ := l.loss(); return d == 3 })
	if n := len(rt.nodes[2].mb); n != 0 {
		t.Fatalf("%d undecodable frames reached the mailbox", n)
	}
}

// TestTCPLinkLossCountedOnce pins the loss accounting across a detach: an
// endpoint's counters are in the live sum while the node is attached and in
// the retired totals afterwards — never both. One stream with a length over
// MaxFrame reaches node 1's endpoint; down(1) must leave loss() where it was
// (nothing is in flight, so Close strands no frame).
func TestTCPLinkLossCountedOnce(t *testing.T) {
	rt, l := idleTCP(t)

	conn := dialRaw(t, l.addrs[1])
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil { // length over MaxFrame
		t.Fatal(err)
	}
	eventually(t, "the malformed stream counted", func() bool { d, _ := l.loss(); return d == 1 })

	rt.nodes[1].down.Store(true)
	l.down(rt.nodes[1])
	if d, _ := l.loss(); d != 1 {
		t.Fatalf("loss() = %d after down, want 1: the retired endpoint's loss is counted twice", d)
	}
	if got := rt.faultStats().TransportDropped; got != 1 {
		t.Fatalf("TransportDropped = %d after down, want 1", got)
	}
}

// TestTCPLinkTelemetryAcrossRecovery pins the transport series across a
// crash: node 1 sends n frames, crashes, recovers on a fresh endpoint whose
// own counters restart at zero, and sends m < n more. Its frames-sent series
// must read n+m — the retired endpoint's total plus the live one's — not
// stall at n until the new endpoint passes it.
func TestTCPLinkTelemetryAcrossRecovery(t *testing.T) {
	const n, m = 5, 3
	rt, l := idleTCP(t)
	reg := telemetry.NewRegistry()
	shard, node := telemetry.L("shard", "0"), telemetry.L("node", "1")
	sample := l.sampler(reg, shard)
	sent := reg.Counter(telemetry.MetricTransportFramesSent, "", shard, node)

	codec, ok := wire.CodecFor(0x11) // abd.queryAck
	if !ok {
		t.Fatal("abd wire types not registered")
	}
	sendN := func(k int) {
		for i := 0; i < k; i++ {
			l.send(rt.nodes[1], 2, codec.Sample(uint64(i)), true)
		}
	}
	sendN(n)
	sample()
	if got := sent.Value(); got != n {
		t.Fatalf("frames sent before the crash = %d, want %d", got, n)
	}
	rt.nodes[1].down.Store(true)
	l.down(rt.nodes[1])
	sample()
	if err := l.up(rt.nodes[1]); err != nil {
		t.Fatal(err)
	}
	rt.nodes[1].down.Store(false)
	sendN(m)
	sample()
	if got := sent.Value(); got != n+m {
		t.Fatalf("frames sent after recovery = %d, want %d", got, n+m)
	}
}

// TestServersNeverDialClients pins the one-connection-per-pair shape of a
// fault-free net run: clients dial servers and every reply rides back on the
// client's own connection, so no client's listener ever accepts one. It is
// read off the kernel's socket table, where a socket other than the
// listener whose local port is a node's listen port is a connection that
// node accepted.
func TestServersNeverDialClients(t *testing.T) {
	cl := abdCluster(t)
	in, err := OpenInteractive(BackendNet, cl, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, pending, err := in.RunOp(ctx, cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(16, uint64(i))}); err != nil || pending {
			t.Fatalf("write %d: pending=%t err=%v", i, pending, err)
		}
		if _, pending, err := in.RunOp(ctx, cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead}); err != nil || pending {
			t.Fatalf("read %d: pending=%t err=%v", i, pending, err)
		}
	}

	accepted := socketsByLocalPort(t)
	l := in.rt.link.(*tcpLink)
	l.mu.RLock()
	defer l.mu.RUnlock()
	port := func(id ioa.NodeID) uint64 {
		_, p, err := net.SplitHostPort(l.addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, id := range cl.Servers {
		if accepted[port(id)] == 0 {
			t.Fatalf("server %d shows no accepted connection: the socket table was misread", id)
		}
	}
	for _, id := range []ioa.NodeID{cl.Writers[0], cl.Readers[0]} {
		if n := accepted[port(id)]; n != 0 {
			t.Fatalf("client %d accepted %d connections: a server dialed it", id, n)
		}
	}
}

// socketsByLocalPort counts the kernel's established TCP sockets by local
// port, from /proc/net/tcp and /proc/net/tcp6; it skips the test where
// neither is readable. Only established ones count: a closed connection of
// an earlier test lingering in TIME_WAIT may share a port with a listener
// opened since.
func socketsByLocalPort(t *testing.T) map[uint64]int {
	t.Helper()
	counts := map[uint64]int{}
	tables := 0
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		tables++
		lines := strings.Split(string(data), "\n")
		for _, line := range lines[1:] { // after the header
			// sl local_address rem_address st ...: addresses are hex
			// ip:port, state 01 is ESTABLISHED.
			f := strings.Fields(line)
			if len(f) < 4 || f[3] != "01" {
				continue
			}
			_, hexPort, _ := strings.Cut(f[1], ":")
			if p, err := strconv.ParseUint(hexPort, 16, 16); err == nil {
				counts[p]++
			}
		}
	}
	if tables == 0 {
		t.Skip("the kernel's TCP socket table (/proc/net/tcp) is not readable here")
	}
	return counts
}
