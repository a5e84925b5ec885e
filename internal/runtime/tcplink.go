package runtime

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tcpLink carries messages over real sockets: every attached node owns a TCP
// endpoint (internal/transport), messages cross as compact binary frames
// (sender id + internal/wire encoding), and faults become physical events —
// a crashed node's endpoint closes, so peers' in-flight frames die as real
// network loss, and a recovered node listens on a FRESH endpoint peers
// redial on their next send. Two nodes share one connection both ways,
// opened by whichever sent first — in a fault-free run a client, since
// servers only answer — so a server's replies ride the client's own socket
// and no server dials a client. A transport reader blocked on a full mailbox
// stops reading its socket, so backpressure propagates peer-to-peer through
// TCP's own flow control, in that connection's one direction; node loops
// never block on a peer's mailbox here (their sends go to sockets, whose
// kernel buffers break sender/receiver cycles long before the drop deadline
// does), so nothing is ever siphoned.
// A node loop's send writes the frame to the socket itself, one write per
// frame, unless another sender on the same connection is already writing:
// then the frame leaves in that sender's next write, back to back with
// whatever else queued behind it.
type tcpLink struct {
	rt *runtime

	// mu guards everything below it: recovery replaces a node's endpoint and
	// address. A node is in eps exactly while attached, so an endpoint's
	// counters are read from one place at a time — live while attached, in
	// retired once down has folded them.
	mu      sync.RWMutex
	eps     map[ioa.NodeID]*transport.Endpoint
	addrs   map[ioa.NodeID]string          // dialable address per node; a down node keeps its dead one
	retired map[ioa.NodeID]transport.Stats // final counters of the node's endpoints a crash closed, summed

	badFrames atomic.Int64 // undecodable inbound frames, dropped
	sendErrs  atomic.Int64 // frames lost to failed dials/closed or detached endpoints
}

func newTCPLink(rt *runtime) *tcpLink {
	return &tcpLink{
		rt:      rt,
		eps:     make(map[ioa.NodeID]*transport.Endpoint),
		addrs:   make(map[ioa.NodeID]string),
		retired: make(map[ioa.NodeID]transport.Stats),
	}
}

// up opens a listening endpoint for the node and re-points its address, so
// peers redial the new address on their next send while anything aimed at a
// dead socket is counted loss. The endpoint runs on the transport's defaults
// (2s dial timeout, 256 pending frames per connection, 1s send timeout).
func (l *tcpLink) up(ns *nodeState) error {
	ep, err := transport.Listen(l.rt.cfg.ListenAddr, transport.Config{})
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.eps[ns.id] = ep
	l.addrs[ns.id] = ep.Addr()
	l.mu.Unlock()
	ep.Serve(func(frame []byte) { l.inbound(ns, frame) })
	return nil
}

// down closes the node's endpoint and detaches it, folding the endpoint's
// final counters into the node's retired totals, so neither loss nor the
// telemetry series ever lose them — and, the endpoint being gone from eps,
// never count them twice.
func (l *tcpLink) down(ns *nodeState) {
	l.mu.RLock()
	ep := l.eps[ns.id]
	l.mu.RUnlock()
	ep.Close()
	// Detach and fold in one critical section, so a concurrent reader sees
	// the endpoint's counters live or retired, never both and never neither.
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.eps, ns.id)
	l.retired[ns.id] = sumStats(l.retired[ns.id], ep.Stats())
}

// totals returns the node's transport counters over every endpoint it has
// owned: the retired ones' final totals plus the live one's. Called with mu
// held.
func (l *tcpLink) totals(id ioa.NodeID) transport.Stats {
	s := l.retired[id]
	if ep := l.eps[id]; ep != nil {
		s = sumStats(s, ep.Stats())
	}
	return s
}

func sumStats(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		DroppedFull:    a.DroppedFull + b.DroppedFull,
		DroppedDead:    a.DroppedDead + b.DroppedDead,
		Requeued:       a.Requeued + b.Requeued,
		Malformed:      a.Malformed + b.Malformed,
		FramesSent:     a.FramesSent + b.FramesSent,
		BatchesSent:    a.BatchesSent + b.BatchesSent,
		BytesSent:      a.BytesSent + b.BytesSent,
		FramesReceived: a.FramesReceived + b.FramesReceived,
		BytesReceived:  a.BytesReceived + b.BytesReceived,
	}
}

func (l *tcpLink) close() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, ep := range l.eps {
		ep.Close()
	}
}

// send frames the message and hands it to the sender's endpoint, which
// writes it on its one connection to the target. A Send error (failed dial,
// closed endpoint) is real-network silence — the endpoint redials on the
// next send and protocol timeouts own recovery — but it
// is counted, so lossy-run reports do not understate loss. The endpoint and
// address are snapshotted under mu (recovery replaces both); the Send itself
// runs outside the lock, since it can block for the transport's full send
// timeout.
func (l *tcpLink) send(from *nodeState, to ioa.NodeID, msg ioa.Message, _ bool) {
	frame := binary.AppendUvarint(make([]byte, 0, 64), uint64(from.id))
	frame, err := wire.Append(frame, msg)
	if err != nil {
		// An unregistered message type cannot cross the network; surfacing
		// it as loss would hide the bug, so panic — the wire registry tests
		// make this unreachable for shipped algorithms.
		panic(fmt.Sprintf("runtime: node %d sent unencodable message: %v", from.id, err))
	}
	l.mu.RLock()
	ep, addr := l.eps[from.id], l.addrs[to]
	l.mu.RUnlock()
	if ep == nil || ep.Send(addr, frame) != nil {
		l.sendErrs.Add(1)
	}
}

// inbound decodes one frame off a node's socket and posts it to the node's
// mailbox. Undecodable frames are counted and dropped — on a real network a
// corrupt datagram is silence, and protocol timeouts own recovery.
func (l *tcpLink) inbound(ns *nodeState, frame []byte) {
	from, n := binary.Uvarint(frame)
	if n <= 0 {
		l.badFrames.Add(1)
		return
	}
	msg, err := wire.Decode(frame[n:])
	if err != nil {
		l.badFrames.Add(1)
		return
	}
	l.rt.post(ns, event{from: ioa.NodeID(from), msg: msg}, sendTimeout)
}

func (l *tcpLink) loss() (dropped, requeued int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	dropped = int(l.sendErrs.Load() + l.badFrames.Load())
	for id := range l.rt.nodes {
		s := l.totals(id)
		dropped += int(s.DroppedFull + s.DroppedDead + s.Malformed)
		requeued += int(s.Requeued)
	}
	return dropped, requeued
}

// nodeTransport is the per-node counter set the sampler lifts a node's
// transport totals into. The totals span every endpoint the node has owned,
// so they never move backward across a crash; Raise mirrors them.
type nodeTransport struct {
	framesSent, framesRecv   telemetry.Counter
	batchesSent              telemetry.Counter
	bytesSent, bytesRecv     telemetry.Counter
	droppedFull, droppedDead telemetry.Counter
	requeued, malformed      telemetry.Counter
}

func (t *nodeTransport) lift(s transport.Stats) {
	t.framesSent.Raise(s.FramesSent)
	t.framesRecv.Raise(s.FramesReceived)
	t.batchesSent.Raise(s.BatchesSent)
	t.bytesSent.Raise(s.BytesSent)
	t.bytesRecv.Raise(s.BytesReceived)
	t.droppedFull.Raise(s.DroppedFull)
	t.droppedDead.Raise(s.DroppedDead)
	t.requeued.Raise(s.Requeued)
	t.malformed.Raise(s.Malformed)
}

// sampler registers one transport counter set per node (servers and clients
// both own an endpoint) and returns the lift from transport.Endpoint.Stats.
func (l *tcpLink) sampler(reg *telemetry.Registry, sl telemetry.Label) func() {
	nt := make(map[ioa.NodeID]*nodeTransport, len(l.rt.nodes))
	for id := range l.rt.nodes {
		nl := telemetry.L("node", strconv.Itoa(int(id)))
		t := &nodeTransport{
			framesSent:  reg.Counter(telemetry.MetricTransportFramesSent, "frames written to peer sockets", sl, nl),
			framesRecv:  reg.Counter(telemetry.MetricTransportFramesRecv, "frames received and handed to the node", sl, nl),
			batchesSent: reg.Counter(telemetry.MetricTransportBatchesSent, "socket writes carrying frames (frames/batches = coalescing factor)", sl, nl),
			bytesSent:   reg.Counter(telemetry.MetricTransportBytesSent, "frame payload bytes written to peer sockets", sl, nl),
			bytesRecv:   reg.Counter(telemetry.MetricTransportBytesRecv, "frame payload bytes received", sl, nl),
			droppedFull: reg.Counter(telemetry.MetricTransportDroppedFull, "frames dropped on a full pending batch or an unwritten socket write past SendTimeout", sl, nl),
			droppedDead: reg.Counter(telemetry.MetricTransportDroppedDead, "frames lost to dead connections", sl, nl),
			requeued:    reg.Counter(telemetry.MetricTransportRequeued, "frames re-enqueued onto a redialed connection", sl, nl),
			malformed:   reg.Counter(telemetry.MetricTransportMalformed, "inbound streams refused at a length over MaxFrame", sl, nl),
		}
		nt[id] = t
	}
	return func() {
		l.mu.RLock()
		defer l.mu.RUnlock()
		for id, t := range nt {
			t.lift(l.totals(id))
		}
	}
}
