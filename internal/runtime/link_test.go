package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"reflect"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	"repro/internal/workload"
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
	ends       []string     // "sample" per telemetry sample of the link, "close" for its close, in order
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

func (l *recLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	l.sent <- sentMsg{from.id, to.id, msg, inLoop, time.Now()}
}

func (l *recLink) flush(*nodeState) {}
func (l *recLink) loss() (int, int) { return 0, 0 }
func (l *recLink) sampler(*telemetry.Registry, telemetry.Label) func() {
	return func() { l.end("sample") }
}
func (l *recLink) close() { l.end("close") }

func (l *recLink) end(what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ends = append(l.ends, what)
}

// gated starts a runtime over a recording link under the plan (StepDur 1ms)
// and returns it with the link and the clock's epoch as the test sees it.
func gated(t *testing.T, plan *faults.Plan) (*runtime, *recLink, time.Time) {
	t.Helper()
	rec := &recLink{sent: make(chan sentMsg, 16)}
	rt, err := newRuntime(abdCluster(t), plan, Config{StepDur: time.Millisecond}, nil, func(*runtime) link { return rec })
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ups) != len(rt.all) {
		t.Fatalf("link saw %d attachments for %d nodes", len(rec.ups), len(rt.all))
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

// TestFinalSampleBeforeTeardown pins the order a run ends in, for RunConfig's
// stop and Interactive.Close alike: the telemetry sampler's final sample of
// the link comes before the link closes, so what teardown strands (a
// server's last write into a peer endpoint that closed first) never reads as
// loss in the run's series.
func TestFinalSampleBeforeTeardown(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*runtime)
	}{
		{"stop", (*runtime).stop},
		{"Interactive.Close", func(rt *runtime) { (&Interactive{rt: rt}).Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recLink{sent: make(chan sentMsg, 16)}
			cl := abdCluster(t)
			tel := &telemetry.RunTelemetry{Registry: telemetry.NewRegistry()}
			rt, err := newRuntime(cl, nil, Config{}, tel, func(*runtime) link { return rec })
			if err != nil {
				t.Fatal(err)
			}
			rt.startTelemetry(cl, workload.Spec{}, nil)
			rt.start()
			tc.end(rt)
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if n := len(rec.ends); n < 2 || rec.ends[n-2] != "sample" || rec.ends[n-1] != "close" {
				t.Fatalf("the run ended with %v; want the final sample, then the link's close", rec.ends)
			}
		})
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
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: label("direct")})
		select {
		case m := <-rec.sent:
			if m.from != 1 || m.to != 2 || m.msg.Body != "direct" || !m.inLoop {
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
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: label("doomed")})
		if fs := rt.faultStats(); fs.Drops != 1 || fs.DelayedMessages != 0 {
			t.Fatalf("dropped message: %+v, want 1 drop and no delay or hold", fs)
		}
		rt.send(rt.nodes[1], ioa.Send{To: 3, Msg: label("spared")})
		if m := rec.next(t); m.msg.Body != "spared" || m.to != 3 || !m.inLoop {
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
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: label("slow")})
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
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: label("twice held")})
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
		rt.send(rt.nodes[1], ioa.Send{To: 2, Msg: label("parked across the crash")})
		rt.crashNode(1)
		if len(rec.downs) != 1 || rec.downs[0] != 1 {
			t.Fatalf("link saw detachments %v, want [1]", rec.downs)
		}
		rt.send(rt.nodes[1], ioa.Send{To: 3, Msg: label("sent by a dead node")})
		eventually(t, "both messages counted lost", func() bool { return rt.faultStats().TransportDropped == 2 })
		rec.silent(t)
	})
}

// TestSendToDownNodeStopsAtGate crashes a server of a running deployment
// and sends to it from a client through the runtime's send path: a message
// to a down node is loss at the gate, counted once in TransportDropped, and
// no link sees it. On tcp it is never framed into the clients' hold for the
// server's dead address, so the release at the end of the client's batch
// dials nothing, and neither the link's send errors nor the clients'
// transport counters move; on chan nothing reaches the server's mailbox.
func TestSendToDownNodeStopsAtGate(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		cl := abdCluster(t)
		rt, err := newRuntime(cl, nil, Config{}, nil, mkLink)
		if err != nil {
			t.Fatal(err)
		}
		rt.start()
		defer rt.stop()
		server, client := rt.nodes[cl.Servers[0]], rt.nodes[cl.Writers[0]]
		rt.crashNode(server.id)
		l, tcp := rt.link.(*tcpLink)
		var errs int64
		var before sentStats
		if tcp {
			errs, before = l.sendErrs.Load(), snapshot(l.holds[client.id].stats)
		}
		lost := rt.faultStats().TransportDropped

		rt.send(client, ioa.Send{To: server.id, Msg: sampler(t, 0x10)(1)}) // abd.queryMsg
		if tcp {
			l.mu.RLock()
			dead := l.addrs[server.id]
			l.mu.RUnlock()
			h := l.holds[client.id]
			h.mu.Lock()
			for _, g := range h.groups {
				if g.addr == dead {
					h.mu.Unlock()
					t.Fatalf("the clients' hold has a group of %d frames for the down server's address %s", g.frames, dead)
				}
			}
			h.mu.Unlock()
			l.flush(client) // the end of the client's batch
			if e, after := l.sendErrs.Load(), snapshot(h.stats); e != errs || after != before {
				t.Fatalf("a send to a down server reached the transport: send errors %d -> %d, clients' counters %+v -> %+v", errs, e, before, after)
			}
		}
		if got := rt.faultStats().TransportDropped - lost; got != 1 {
			t.Fatalf("TransportDropped rose by %d, want 1", got)
		}
		if q := mailboxLen(server.mb); q != 0 {
			t.Fatalf("the down server's mailbox holds %d events", q)
		}
	})
}

// idleTCP attaches an ABD cluster to a tcpLink without starting the node
// loops: frames that arrive only fill mailboxes.
func idleTCP(t *testing.T) (*runtime, *tcpLink) {
	t.Helper()
	rt, err := newRuntime(abdCluster(t), nil, Config{}, nil, func(rt *runtime) link { return newTCPLink(rt) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.stop)
	return rt, rt.link.(*tcpLink)
}

// streamFrame appends payload to dst as a transport stream carries it: its
// 4-byte big-endian length, then the payload.
func streamFrame(dst, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(payload))), payload...)
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
	if _, err := conn.Write(streamFrame(nil, []byte(conn.LocalAddr().String()))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// delivery is one Deliver a recNode saw.
type delivery struct {
	to, from ioa.NodeID
	msg      ioa.Message
	by       *recNode // the incarnation that ran it
	inline   bool     // on a transport reader, not on the node's loop
}

// recLog is what every recNode of a runtime saw, in order.
type recLog struct {
	mu   sync.Mutex
	seen []delivery
	late atomic.Int64 // deliveries to an incarnation after its crash
}

// count returns how many deliveries match.
func (g *recLog) count(match func(delivery) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, d := range g.seen {
		if match(d) {
			n++
		}
	}
	return n
}

// recNode is a recording automaton: it logs every delivery, takes pause
// over it, and answers it with reply's sends (none when reply is nil). A
// delivery still running, or begun, once the test has marked the incarnation
// dead counts late. It is recoverable, with no state to keep.
type recNode struct {
	id    ioa.NodeID
	log   *recLog
	pause time.Duration
	reply func(from ioa.NodeID) []ioa.Send
	dead  atomic.Bool // the test crashed this incarnation
}

func (n *recNode) ID() ioa.NodeID { return n.id }

func (n *recNode) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	n.log.mu.Lock()
	n.log.seen = append(n.log.seen, delivery{to: n.id, from: from, msg: msg, by: n, inline: !onLoop()})
	n.log.mu.Unlock()
	time.Sleep(n.pause)
	if n.dead.Load() {
		n.log.late.Add(1)
	}
	if n.reply == nil {
		return ioa.Effects{}
	}
	return ioa.Effects{Sends: n.reply(from)}
}

func (n *recNode) Clone() ioa.Node {
	return &recNode{id: n.id, log: n.log, pause: n.pause, reply: n.reply}
}

// onLoop reports whether its caller runs on a node loop.
func onLoop() bool {
	pc := make([]uintptr, 64)
	frames := goruntime.CallersFrames(pc[:goruntime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*runtime).loop") {
			return true
		}
		if !more {
			return false
		}
	}
}

// recordAll replaces every automaton of a runtime whose loops have not
// started by a recNode; a client's answers every delivery with reply.
func recordAll(rt *runtime, reply func(from ioa.NodeID) []ioa.Send) *recLog {
	log := &recLog{}
	for _, ns := range rt.all {
		n := &recNode{id: ns.id, log: log}
		if ns.client {
			n.reply = reply
		}
		ns.node, ns.meter = n, nil
	}
	return log
}

// sampler returns wire's samples of kind k, which must be registered.
func sampler(t testing.TB, k ioa.Kind) func(seed uint64) ioa.Message {
	t.Helper()
	if wire.Name(k) == "" {
		t.Fatalf("wire kind 0x%02x not registered", byte(k))
	}
	return func(seed uint64) ioa.Message { return wire.Sample(k, seed) }
}

// label is a message that carries a name, for links that never encode it.
func label(name string) ioa.Message { return &ioa.Msg{Body: name} }

// netFrame is the frame tcpLink.send builds for msg.
func netFrame(t testing.TB, from, to ioa.NodeID, msg ioa.Message) []byte {
	t.Helper()
	frame := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(from)), uint64(to))
	frame, err := wire.Append(frame, msg)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestTCPLinkWire is the wire regression: real frames through tcpLink to
// recording automata whose loops never run, so every frame is delivered
// inline by the reader that reads it. An owner's send is held until its
// batch ends (the loop's flush), a timer goroutine's leaves at once, and
// either arrives decoded and attributed to its sender. A server's replies to
// two clients leave as one write to the clients' shared endpoint and reach
// the clients their destination ids name; delivered in that one reader run,
// the two clients send a request to every server, and those leave as one
// write per server. Frames that do not decode (an unregistered kind, a
// truncated header or body, a body its kind does not have), or name a node
// the endpoint they arrive on does not serve, are counted and dropped
// without reaching an automaton.
func TestTCPLinkWire(t *testing.T) {
	rt, l := idleTCP(t)
	writer, reader := ioa.NodeID(cluster.WriterBase), ioa.NodeID(cluster.ReaderBase)
	servers := []ioa.NodeID{1, 2, 3}

	sample := sampler(t, 0x11) // abd.queryAck: varint, tag and value bytes
	msg := sample(7)
	log := recordAll(rt, func(ioa.NodeID) []ioa.Send {
		sends := make([]ioa.Send, len(servers))
		for i, s := range servers {
			sends[i] = ioa.Send{To: s, Msg: msg}
		}
		return sends
	})
	stats := func(id ioa.NodeID) sentStats { return snapshot(l.holds[id].stats) }
	arrives := func(to, from ioa.NodeID, times int) {
		t.Helper()
		eventually(t, fmt.Sprintf("%d frames from %d at %d", times, from, to), func() bool {
			return log.count(func(d delivery) bool { return d.to == to && d.from == from }) == times
		})
		// The reader that delivered holds the node's lock until its handle
		// returns, after the delivery is recorded. A frame another reader
		// brings meanwhile finds the node busy and is posted, to a mailbox no
		// loop drains here: wait until the lock is free.
		eventually(t, fmt.Sprintf("the reader that delivered to %d letting go", to), func() bool {
			if !rt.nodes[to].own.TryLock() {
				return false
			}
			rt.nodes[to].own.Unlock()
			return true
		})
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, d := range log.seen {
			if d.to == to && d.from == from && (!reflect.DeepEqual(d.msg, msg) || !d.inline) {
				t.Fatalf("node %d received %#v from %d (inline %t); node %d sent %#v", to, d.msg, from, d.inline, from, msg)
			}
		}
	}

	l.send(rt.nodes[1], rt.nodes[2], msg, true)
	if s := stats(1); s.FramesSent != 0 {
		t.Fatalf("an owner's send left before its batch ended: %+v", s)
	}
	l.flush(rt.nodes[1])
	if s := stats(1); s.FramesSent != 1 || s.BatchesSent != 1 {
		t.Fatalf("after flush: %+v, want the one frame written", s)
	}
	arrives(2, 1, 1)

	l.send(rt.nodes[1], rt.nodes[3], msg, false) // a timer goroutine's send
	if s := stats(1); s.FramesSent != 2 || s.BatchesSent != 2 {
		t.Fatalf("a timer goroutine's send: %+v, want it written at once", s)
	}
	arrives(3, 1, 1)

	before := stats(writer)
	l.send(rt.nodes[1], rt.nodes[writer], msg, true)
	l.send(rt.nodes[1], rt.nodes[reader], msg, true)
	l.flush(rt.nodes[1])
	if s := stats(1); s.FramesSent != 4 || s.BatchesSent != 3 {
		t.Fatalf("replies to two clients: %+v, want both frames in one more write", s)
	}
	arrives(writer, 1, 1)
	arrives(reader, 1, 1)
	for _, s := range servers {
		arrives(s, writer, 1)
		arrives(s, reader, 1)
	}
	// A write is counted once it returns, which may be after its peer
	// delivered it.
	eventually(t, "the clients' endpoint counting its writes", func() bool { return stats(writer).FramesSent-before.FramesSent >= 6 })
	if s := stats(writer); s.FramesSent-before.FramesSent != 6 || s.BatchesSent-before.BatchesSent != 3 {
		t.Fatalf("two clients' requests from one reader run: %d frames in %d writes, want 6 in 3 (one per server)",
			s.FramesSent-before.FramesSent, s.BatchesSent-before.BatchesSent)
	}

	delivered := log.count(func(delivery) bool { return true })
	raw := func(addr string, frames ...[]byte) {
		conn := dialRaw(t, addr)
		for _, frame := range frames {
			if _, err := conn.Write(streamFrame(nil, frame)); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw(l.addrs[2],
		[]byte{},                 // no sender id
		[]byte{0x01},             // sender 1, no destination id
		[]byte{0x01, 0x03, 0x11}, // to server 3, on server 2's endpoint
		[]byte{0x01, 0x09, 0x11}, // to node 9, which does not exist
		[]byte{0x01, 0x02, 0xee}, // to server 2, unregistered kind
		[]byte{0x01, 0x02, 0x11}, // to server 2, queryAck with a truncated header
		[]byte{0x01, 0x02, 0x11, 0x02, 0x02, 0x00, 0x05, 0x61}, // to server 2, queryAck with a truncated body
		[]byte{0x01, 0x02, 0x10, 0x02, 0x00, 0x00, 0x01, 0x61}, // to server 2, a header-only query with a body
	)
	raw(l.addrs[writer], []byte{0x01, 0x02, 0x11}) // to a server, on the clients' endpoint
	eventually(t, "nine bad frames counted", func() bool { d, _ := l.loss(); return d == 9 })
	if n := log.count(func(delivery) bool { return true }) - delivered; n != 0 {
		t.Fatalf("%d bad frames reached an automaton", n)
	}
}

// sentStats is the write side of a transport.Stats block, read at one
// moment.
type sentStats struct {
	FramesSent, BatchesSent, BytesSent, DroppedFull, DroppedDead uint64
}

func snapshot(s *transport.Stats) sentStats {
	return sentStats{s.FramesSent.Load(), s.BatchesSent.Load(), s.BytesSent.Load(), s.DroppedFull.Load(), s.DroppedDead.Load()}
}

// bigQueryAck is an abd.queryAck whose value is size bytes, built by
// decoding its frame: the codec's samples are all small.
func bigQueryAck(t testing.TB, size int) ioa.Message {
	t.Helper()
	env := binary.AppendVarint([]byte{0x11}, 1) // abd.queryAck, RID 1
	env = binary.AppendVarint(binary.AppendVarint(env, 1), 0)
	env = binary.AppendUvarint(env, uint64(size))
	msg, err := wire.Decode(append(env, make([]byte, size)...))
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestTimerSendRidesReleaseUnderWay pins the hold as the one place a frame
// waits: while a release of server 1's hold is wedged writing a frame too
// large for the socket buffers to a peer that never reads, a timer
// goroutine's send from server 1 joins the hold and returns — the timer
// goroutine does not write a connection itself — and the release carries
// it once its wedged write has timed out, so it arrives exactly once.
func TestTimerSendRidesReleaseUnderWay(t *testing.T) {
	rt, l := idleTCP(t)
	log := recordAll(rt, nil)
	sample := sampler(t, 0x11)                      // abd.queryAck
	wedged, err := net.Listen("tcp", "127.0.0.1:0") // accepts in the kernel, never reads
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	stats := func() sentStats { return snapshot(l.holds[1].stats) }

	h := l.holds[1]
	if held, err := h.add(wedged.Addr().String(), 1, 2, bigQueryAck(t, transport.MaxFrame-64)); !held || err != nil {
		t.Fatalf("a frame within MaxFrame: held %t, %v", held, err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		l.release(h)
	}()
	eventually(t, "the release under way", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.releasing && len(h.groups) == 0
	})
	l.send(rt.nodes[1], rt.nodes[2], sample(3), false) // a timer goroutine's send
	h.mu.Lock()
	held := len(h.groups) == 1 && h.groups[0].frames == 1
	h.mu.Unlock()
	sent := stats().FramesSent
	select {
	case <-released:
		t.Skip("this host's socket buffers absorbed a MaxFrame write to an unread peer")
	default:
	}
	if !held || sent != 0 {
		t.Fatalf("a timer send during a wedged release: held in the hold %t, %d frames written; want it held, none written", held, sent)
	}

	<-released // the wedged write times out after the transport's 1s
	eventually(t, "the timer send delivered", func() bool {
		return log.count(func(d delivery) bool { return d.to == 2 && d.from == 1 }) == 1
	})
	if s := stats(); s.FramesSent != 1 || s.BatchesSent != 1 || s.DroppedFull+s.DroppedDead != 1 {
		t.Fatalf("after the release: %+v, want the timer's frame written once and the wedged frame dropped", s)
	}
	if n := log.count(func(d delivery) bool { return true }); n != 1 {
		t.Fatalf("%d deliveries, want the timer's frame exactly once", n)
	}
}

// TestFramesReadBackToBackStayDistinct is the guard against aliasing the
// reader's frame buffer: two frames of one length, written in one write on
// one connection, are read into the same buffer one after the other, and
// each decodes to its own message, intact after the next one overwrote the
// frame it came from.
func TestFramesReadBackToBackStayDistinct(t *testing.T) {
	rt, l := idleTCP(t)
	log := recordAll(rt, nil)
	sample := sampler(t, 0x11)             // abd.queryAck
	first, second := sample(7), sample(31) // values of one length, different bytes
	a, b := netFrame(t, 1, 2, first), netFrame(t, 1, 2, second)
	if len(a) != len(b) || reflect.DeepEqual(first, second) {
		t.Fatal("the samples must differ at one frame length")
	}
	conn := dialRaw(t, l.addrs[2])
	if _, err := conn.Write(streamFrame(streamFrame(nil, a), b)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "both frames delivered", func() bool { return log.count(func(delivery) bool { return true }) == 2 })
	log.mu.Lock()
	defer log.mu.Unlock()
	for i, want := range []ioa.Message{first, second} {
		if d := log.seen[i]; d.to != 2 || d.from != 1 || !reflect.DeepEqual(d.msg, want) {
			t.Fatalf("delivery %d: %#v from %d at %d, want %#v from 1 at 2", i, d.msg, d.from, d.to, want)
		}
	}
}

// TestOversizeFrameRefusedAtHold sends a message whose frame is over
// transport.MaxFrame: the hold refuses it, it is counted as loss and never
// written, and the group it was refused from still carries the next frame
// intact.
func TestOversizeFrameRefusedAtHold(t *testing.T) {
	rt, l := idleTCP(t)
	log := recordAll(rt, nil)
	stats := func() sentStats { return snapshot(l.holds[1].stats) }
	l.send(rt.nodes[1], rt.nodes[2], bigQueryAck(t, transport.MaxFrame), false)
	if s := stats(); s.FramesSent+s.BatchesSent+s.BytesSent != 0 {
		t.Fatalf("an oversize frame reached the socket: %+v", s)
	}
	if d, _ := l.loss(); d != 1 {
		t.Fatalf("%d frames counted lost, want the oversize one", d)
	}

	sample := sampler(t, 0x11)
	msg := sample(7)
	l.send(rt.nodes[1], rt.nodes[2], msg, false)
	eventually(t, "the next frame delivered", func() bool { return log.count(func(delivery) bool { return true }) == 1 })
	if s := stats(); s.FramesSent != 1 || s.BatchesSent != 1 {
		t.Fatalf("after the refusal: %+v, want the next frame alone written", s)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if d := log.seen[0]; d.to != 2 || d.from != 1 || !reflect.DeepEqual(d.msg, msg) {
		t.Fatalf("delivered %#v from %d at %d, want %#v from 1 at 2", d.msg, d.from, d.to, msg)
	}
}

// TestWarmHoldEncodesWithoutAllocating pins the send path's one copy: once
// its group's buffer has grown, a hold frames and encodes an abd.queryAck
// straight into it, allocating nothing.
func TestWarmHoldEncodesWithoutAllocating(t *testing.T) {
	sample := sampler(t, 0x11) // abd.queryAck
	msg := sample(7)
	h := &hold{}
	add := func() {
		if held, err := h.add("127.0.0.1:1", 1, cluster.WriterBase, msg); !held || err != nil {
			t.Fatalf("held %t, %v", held, err)
		}
		g := &h.groups[0]
		g.stream, g.frames = g.stream[:0], 0 // what a release leaves
	}
	add()
	if n := testing.AllocsPerRun(1000, add); n != 0 {
		t.Fatalf("encoding into a warm hold: %v allocations per message, want 0", n)
	}
}

// TestInlineDeliveryKeepsLinkFIFO streams sequence-numbered messages from
// server 2 to a running server 1 while the test, now and then, holds server
// 1's lock and injects a message from server 3 through inbound — posted,
// since the lock is taken. The reader delivers inline whenever server 1 is
// idle and posts while it is not, and the loop handles what was posted:
// both paths run, and every message arrives once, in send order.
func TestInlineDeliveryKeepsLinkFIFO(t *testing.T) {
	const n = 3000
	// The test posts while it holds server 1's lock, which no owner does: a
	// mailbox deeper than the whole stream keeps that post from waiting for
	// room the loop cannot make.
	rt, err := newRuntime(abdCluster(t), nil, Config{Mailbox: 2 * n}, nil, func(rt *runtime) link { return newTCPLink(rt) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.stop)
	l := rt.link.(*tcpLink)
	log := recordAll(rt, nil)
	rt.start()
	target := rt.nodes[1]
	sample := sampler(t, 0x10) // abd.queryMsg{RID}
	from := func(id ioa.NodeID) func(delivery) bool {
		return func(d delivery) bool { return d.to == 1 && d.from == id }
	}

	target.own.Lock() // the first frames are posted
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 0; i < n; i++ {
			l.send(rt.nodes[2], rt.nodes[1], sample(uint64(i)), false)
			if i%20 == 0 {
				time.Sleep(50 * time.Microsecond) // pace the stream across many lock cycles
			}
		}
	}()
	injected := 0
	for deadline := time.Now().Add(5 * time.Second); log.count(from(2)) < n && time.Now().Before(deadline); {
		if injected > 0 {
			target.own.Lock()
		}
		l.inbound(target, netFrame(t, 3, 1, sample(uint64(injected))))
		injected++
		// The first window stays shut until a streamed frame is posted behind
		// the injected one, so the stream has a posted delivery whatever the
		// scheduler does: on a loaded host no frame may reach the reader
		// inside any later 1 ms window.
		wait := time.Now().Add(time.Millisecond)
		if injected == 1 {
			wait = deadline
		}
		for target.queued.Load() < 2 && time.Now().Before(wait) {
			goruntime.Gosched() // let the reader post behind the injected message
		}
		target.own.Unlock()
		time.Sleep(200 * time.Microsecond) // let the loop drain and the reader deliver inline
	}
	eventually(t, "every message delivered", func() bool {
		return log.count(from(2)) == n && log.count(from(3)) == injected
	})
	<-streamed

	next := map[ioa.NodeID]int{}
	inline, posted := 0, 0
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, d := range log.seen {
		if want := sample(uint64(next[d.from])); !reflect.DeepEqual(d.msg, want) {
			t.Fatalf("from node %d: got %#v, want %#v next: per-link FIFO broken", d.from, d.msg, want)
		}
		next[d.from]++
		if d.from == 2 && d.inline {
			inline++
		} else if d.from == 2 {
			posted++
		}
	}
	if inline == 0 || posted == 0 {
		t.Fatalf("%d inline and %d posted deliveries of the stream; the test must exercise both", inline, posted)
	}
	t.Logf("%d inline, %d posted, %d injected", inline, posted, injected)
}

// TestCrashDuringInlineDelivery crashes a node while a reader delivers a
// stream to it inline, each delivery taking a while: no Deliver runs on the
// crashed incarnation once crashNode returns, the recovered one receives the
// stream again, and after stop every goroutine is reaped. The victims are
// server 1, whose endpoint closes under its reader, and the writer, whose
// shared endpoint stays up, so only the crash path's own exclusion keeps the
// reader out.
func TestCrashDuringInlineDelivery(t *testing.T) {
	for _, victimID := range []ioa.NodeID{1, ioa.NodeID(cluster.WriterBase)} {
		t.Run(fmt.Sprint("node ", victimID), func(t *testing.T) {
			base := goruntime.NumGoroutine()
			rt, err := newRuntime(abdCluster(t), nil, Config{}, nil, func(rt *runtime) link { return newTCPLink(rt) })
			if err != nil {
				t.Fatal(err)
			}
			stop := sync.OnceFunc(rt.stop)
			t.Cleanup(stop)
			l := rt.link.(*tcpLink)
			log := recordAll(rt, nil)
			victim := rt.nodes[victimID]
			victim.node.(*recNode).pause = 20 * time.Microsecond
			victim.image = victim.node.Clone()
			rt.start()

			sample := sampler(t, 0x10) // abd.queryMsg
			quit, streamed := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(streamed)
				for i := uint64(0); ; i++ {
					select {
					case <-quit:
						return
					default:
					}
					l.send(rt.nodes[2], rt.nodes[victimID], sample(i), false)
				}
			}()
			by := func(n *recNode) func(delivery) bool { return func(d delivery) bool { return d.by == n } }

			first := victim.node.(*recNode)
			eventually(t, "the stream delivered", func() bool { return log.count(by(first)) >= 200 })
			rt.crashNode(victimID)
			first.dead.Store(true)
			time.Sleep(20 * time.Millisecond) // the stream keeps coming
			if late := log.late.Load(); late != 0 {
				t.Fatalf("%d deliveries still ran after crashNode returned", late)
			}
			rt.recoverNode(victimID)
			second := victim.node.(*recNode)
			if second == first {
				t.Fatal("recovery kept the crashed incarnation")
			}
			eventually(t, "the stream delivered after recovery", func() bool { return log.count(by(second)) >= 200 })
			if inline := log.count(func(d delivery) bool { return d.by == second && d.inline }); inline == 0 {
				t.Error("the recovered node got nothing inline")
			}
			close(quit)
			<-streamed
			stop()
			if late := log.late.Load(); late != 0 {
				t.Fatalf("%d deliveries still ran after crashNode returned", late)
			}
			eventually(t, "goroutines reaped", func() bool { return goruntime.NumGoroutine() <= base })
		})
	}
}

// TestTCPLinkLossCountedOnce pins the loss accounting across a detach: a
// server's endpoint counts into the server's block, which outlives the
// endpoint, so loss reads it once whether the endpoint is open or closed.
// One stream with a length over MaxFrame reaches node 1's endpoint; down(1)
// must leave loss() where it was (nothing is in flight, so Close strands no
// frame).
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

// TestClientCrashOnSharedEndpoint crashes one client of a running net
// deployment and recovers it. The clients share one endpoint, so the crash
// only detaches the client: a frame addressed to it while it is down still
// arrives and counts in TransportDropped, its sibling clients keep
// completing operations over the same endpoint, and once recovered it
// receives again. The victim is a reader with no checkpoint, which recovers
// as a pristine automaton.
func TestClientCrashOnSharedEndpoint(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 2, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(cl, nil, Config{}, nil, func(rt *runtime) link { return newTCPLink(rt) })
	if err != nil {
		t.Fatal(err)
	}
	writer, victim, sibling := cl.Writers[0], cl.Readers[0], cl.Readers[1]
	rt.nodes[victim].image = rt.nodes[victim].node.Clone()
	rt.start()
	t.Cleanup(rt.stop)
	l := rt.link.(*tcpLink)

	ops := 0
	run := func(client ioa.NodeID, kind ioa.OpKind) {
		t.Helper()
		ops++
		inv := ioa.Invocation{Kind: kind}
		if kind == ioa.OpWrite {
			inv.Value = register.MakeValue(16, uint64(ops))
		}
		if _, started, ok := rt.invokeAsync(client, inv).wait(context.Background(), 5*time.Second); !ok {
			t.Fatalf("op %d at client %d did not complete (started=%t)", ops, client, started)
		}
	}
	run(writer, ioa.OpWrite)
	run(victim, ioa.OpRead)

	rt.crashNode(victim)
	l.mu.RLock()
	shared := l.clients
	l.mu.RUnlock()
	lost := rt.faultStats().TransportDropped
	sample := sampler(t, 0x11) // abd.queryAck
	l.send(rt.nodes[cl.Servers[0]], rt.nodes[victim], sample(1), false)
	eventually(t, "the frame for the crashed client counted lost", func() bool {
		return rt.faultStats().TransportDropped > lost && l.detached.Load() > 0
	})
	for i := 0; i < 4; i++ {
		run(writer, ioa.OpWrite)
		run(sibling, ioa.OpRead)
	}

	rt.recoverNode(victim)
	run(victim, ioa.OpRead)
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.clients != shared || l.eps[victim] != shared || l.eps[sibling] != shared {
		t.Fatal("the client crash replaced or left the shared endpoint")
	}
}

// TestTCPLinkTelemetryAcrossRecovery pins the transport series across a
// crash: server 1's loop sends n frames in one drain batch, crashes,
// recovers on a fresh endpoint, and sends m < n more in the next. Its series
// must read n+m frames in 2 writes — both endpoints counted into the
// server's one block — not stall at n until the new endpoint passes it. The clients' shared endpoint has one series of its
// own, so no client reports the writes of another.
func TestTCPLinkTelemetryAcrossRecovery(t *testing.T) {
	const n, m = 5, 3
	rt, l := idleTCP(t)
	reg := telemetry.NewRegistry()
	shard, node := telemetry.L("shard", "0"), telemetry.L("node", "1")
	sample := l.sampler(reg, shard)
	sent := reg.Counter(telemetry.MetricTransportFramesSent, "", shard, node)
	writes := reg.Counter(telemetry.MetricTransportBatchesSent, "", shard, node)
	clientsRecv := reg.Counter(telemetry.MetricTransportFramesRecv, "", shard, telemetry.L("node", clientsOwner))

	ack := sampler(t, 0x11) // abd.queryAck
	batch := func(k int) {
		for i := 0; i < k; i++ {
			l.send(rt.nodes[1], rt.nodes[2], ack(uint64(i)), true)
		}
		l.flush(rt.nodes[1])
	}
	batch(n)
	sample()
	if got, w := sent.Value(), writes.Value(); got != n || w != 1 {
		t.Fatalf("before the crash: %d frames in %d writes, want %d in 1", got, w, n)
	}
	rt.nodes[1].down.Store(true)
	l.down(rt.nodes[1])
	sample()
	if err := l.up(rt.nodes[1]); err != nil {
		t.Fatal(err)
	}
	rt.nodes[1].down.Store(false)
	batch(m)
	sample()
	if got, w := sent.Value(), writes.Value(); got != n+m || w != 2 {
		t.Fatalf("after recovery: %d frames in %d writes, want %d in 2", got, w, n+m)
	}

	l.send(rt.nodes[1], rt.nodes[ioa.NodeID(cluster.WriterBase)], ack(0), true)
	l.send(rt.nodes[1], rt.nodes[ioa.NodeID(cluster.ReaderBase)], ack(1), true)
	l.flush(rt.nodes[1])
	eventually(t, "both client frames counted once", func() bool { sample(); return clientsRecv.Value() == 2 })
}

// TestServersNeverDialClients pins the one-connection-per-pair shape of a
// fault-free net run: the clients' shared endpoint dials servers and every
// reply rides back on that connection, so the clients' listener never
// accepts one. It is
// read off the kernel's socket table, where a socket other than the
// listener whose local port is a node's listen port is a connection that
// node accepted.
func TestServersNeverDialClients(t *testing.T) {
	cl := abdCluster(t)
	in, err := OpenInteractive(BackendNet, cl, nil, Config{}, nil)
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
	port := listenPorts(t, in.rt.link.(*tcpLink))
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

// TestNetConnectionsDoNotGrowWithClients pins the endpoint layout: the
// clients of a net deployment share one endpoint, so a fault-free run of 5
// servers and 4 clients holds exactly 5 connections — one per server, each
// dialed by the shared endpoint and accepted by the server — however many
// clients talk over them.
func TestNetConnectionsDoNotGrowWithClients(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 5, F: 1, Writers: 2, Readers: 2, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	in, err := OpenInteractive(BackendNet, cl, nil, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()
	for i, w := range cl.Writers {
		if _, pending, err := in.RunOp(ctx, w, ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(16, uint64(i))}); err != nil || pending {
			t.Fatalf("write at %d: pending=%t err=%v", w, pending, err)
		}
	}
	for _, r := range cl.Readers {
		if _, pending, err := in.RunOp(ctx, r, ioa.Invocation{Kind: ioa.OpRead}); err != nil || pending {
			t.Fatalf("read at %d: pending=%t err=%v", r, pending, err)
		}
	}

	accepted := socketsByLocalPort(t)
	port := listenPorts(t, in.rt.link.(*tcpLink))
	conns := 0
	for _, ns := range in.rt.all {
		if !ns.client || ns.id == cl.Writers[0] { // the clients' port once
			conns += accepted[port(ns.id)]
		}
	}
	if conns != len(cl.Servers) {
		t.Fatalf("%d connections for %d servers and %d clients, want one per server", conns, len(cl.Servers), len(cl.Writers)+len(cl.Readers))
	}
}

// listenPorts returns a node's listen port, read off the link's address
// table.
func listenPorts(t *testing.T, l *tcpLink) func(ioa.NodeID) uint64 {
	return func(id ioa.NodeID) uint64 {
		t.Helper()
		l.mu.RLock()
		addr := l.addrs[id]
		l.mu.RUnlock()
		_, p, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		return n
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

// acker is a client automaton that only reports each delivery.
type acker struct {
	id   ioa.NodeID
	acks chan struct{}
}

func (a *acker) ID() ioa.NodeID { return a.id }
func (a *acker) Deliver(ioa.NodeID, ioa.Message) ioa.Effects {
	a.acks <- struct{}{}
	return ioa.Effects{}
}
func (a *acker) Clone() ioa.Node { return &acker{id: a.id, acks: a.acks} }

// BenchmarkTCPLinkQuorum is one client's query round on five ABD servers
// through tcpLink, the way a client loop sends it: five queries added to the
// clients' hold under the client's lock, one flush, then the five replies.
// Each server's reader delivers its query inline and its reply leaves when
// that reader's run ends; the clients' readers deliver the replies inline.
// frames/write is over every endpoint, both directions together.
func BenchmarkTCPLinkQuorum(b *testing.B) {
	cl, err := abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 1, Readers: 1, MultiWriter: true})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := newRuntime(cl, nil, Config{}, nil, func(rt *runtime) link { return newTCPLink(rt) })
	if err != nil {
		b.Fatal(err)
	}
	l := rt.link.(*tcpLink)
	client := rt.nodes[cl.Writers[0]]
	acks := make(chan struct{}, len(cl.Servers))
	client.node = &acker{id: client.id, acks: acks}
	rt.start()
	defer rt.stop()
	sample := sampler(b, 0x10) // abd.queryMsg
	servers := make([]*nodeState, len(cl.Servers))
	for i, id := range cl.Servers {
		servers[i] = rt.nodes[id]
	}
	round := func(i int) {
		query := sample(uint64(i))
		client.own.Lock()
		for _, s := range servers {
			l.send(client, s, query, true)
		}
		client.own.Unlock()
		l.flush(client)
		for range cl.Servers {
			<-acks
		}
	}
	round(0) // connections dialed
	sent := func() (frames, writes uint64) {
		for _, h := range l.owners {
			frames, writes = frames+h.stats.FramesSent.Load(), writes+h.stats.BatchesSent.Load()
		}
		return frames, writes
	}
	f0, w0 := sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
	b.StopTimer()
	f, w := sent()
	b.ReportMetric(float64(f-f0)/float64(w-w0), "frames/write")
}
