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

// tcpLink carries messages over real sockets: every server owns a TCP
// endpoint (internal/transport) and all client nodes share one, messages
// cross as compact binary frames (sender id, destination id, then the
// internal/wire encoding), and faults become physical events — a crashed
// server's endpoint closes, so peers' in-flight frames die as real network
// loss, and a recovered server listens on a FRESH endpoint peers redial on
// their next send. A crashed client only detaches: its siblings keep the
// shared endpoint. The runtime stops every message to a down node at its
// gate, so the link never encodes, holds or dials one; only frames already
// in flight when the node went down reach it, and inbound counts those as
// loss. Two endpoints share one connection both ways, opened by whichever
// sent first — in a fault-free run the clients' endpoint, since servers only
// answer — so a server's replies ride the clients' own socket and no server
// dials a client.
//
// A transport reader delivers a frame to an idle node itself: if it wins the
// node's ownership lock and nothing posted to the node is still waiting, it
// runs the automaton on its own goroutine, saving the mailbox hop and the
// loop's wakeup; otherwise it posts to the mailbox. A reader blocked on a
// full mailbox stops reading its socket, so backpressure propagates
// peer-to-peer through TCP's own flow control, in that connection's one
// direction (on the shared connection it holds back the replies to every
// client behind the full one); owners never block on a peer's mailbox here
// (their sends go to sockets, whose kernel buffers break sender/receiver
// cycles long before the drop deadline does), so nothing is ever siphoned.
//
// Every send is held per sending endpoint — one hold per server, one all
// clients share — and the hold is the only place a frame waits. An owner's
// sends stay there until the loop's drain batch or the reader's run (the
// frames one socket read delivered) ends; then each destination's group
// goes to the transport as one write. So a server that answered four
// clients in one batch answers them in one write, and two clients whose
// replies arrived in that one write send their next requests to each server
// in one write. Sends from timer goroutines (delay and outage holds) release
// the hold at once, or ride the release under way; one release at a time
// writes an endpoint's frames.
//
// A frame is built once: the hold encodes each message straight into its
// destination's write buffer, framed as the socket carries it, and the
// release writes that buffer as it is (transport.Endpoint.SendFramed). On
// the way in, a reader reads each frame into a buffer it reuses and inbound
// decodes it in place; the decoder copies byte strings and shards out, so
// nothing delivered keeps the frame.
//
// Each hold also carries its endpoint owner's transport counters: one block
// for the whole run, handed to every endpoint the owner listens on, so a
// server's totals outlive the endpoints its crashes close, and loss and the
// telemetry sampler read them without a lock.
type tcpLink struct {
	rt *runtime

	// holds is the hold of the endpoint each node sends from, indexed by node
	// id like runtime.nodes; owners lists each hold once, every server's by
	// ascending id, then the clients'. Built with the link and never changed,
	// so both are read without a lock.
	holds  []*hold
	owners []*hold

	// mu guards everything below it: recovery replaces a server's endpoint
	// and address.
	mu      sync.RWMutex
	eps     map[ioa.NodeID]*transport.Endpoint // the endpoint an attached node sends from: a server's own, or clients
	addrs   map[ioa.NodeID]string              // dialable address per node; a down server keeps its dead one
	clients *transport.Endpoint                // shared by every client node, opened at the first one's up; only close closes it

	badFrames atomic.Int64 // undecodable or misrouted inbound frames, dropped
	detached  atomic.Int64 // inbound frames in flight to a node that was down when they arrived
	sendErrs  atomic.Int64 // frames lost to failed dials/closed or detached endpoints, or refused over MaxFrame
}

// clientsOwner labels the shared client endpoint's telemetry series.
const clientsOwner = "clients"

func newTCPLink(rt *runtime) *tcpLink {
	l := &tcpLink{
		rt:    rt,
		holds: make([]*hold, len(rt.nodes)),
		eps:   make(map[ioa.NodeID]*transport.Endpoint),
		addrs: make(map[ioa.NodeID]string),
	}
	clients := &hold{stats: new(transport.Stats)}
	for _, ns := range rt.all {
		if ns.client {
			l.holds[ns.id] = clients
			continue
		}
		h := &hold{owner: ns, stats: new(transport.Stats)}
		l.holds[ns.id], l.owners = h, append(l.owners, h)
	}
	l.owners = append(l.owners, clients)
	return l
}

// up attaches a node. A server gets a fresh listening endpoint, counting
// into the server's block, and its address is re-pointed, so peers redial
// the new address on their next send; a client attaches to the shared
// endpoint, opened by the first client up. Endpoints run on the transport's
// defaults (2s dial timeout, 1s send timeout).
func (l *tcpLink) up(ns *nodeState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ns.client && l.clients != nil {
		l.eps[ns.id], l.addrs[ns.id] = l.clients, l.clients.Addr()
		return nil
	}
	h := l.holds[ns.id]
	ep, err := transport.Listen(l.rt.cfg.ListenAddr, transport.Config{Stats: h.stats})
	if err != nil {
		return err
	}
	if ns.client {
		l.clients = ep
	}
	l.eps[ns.id], l.addrs[ns.id] = ep, ep.Addr()
	ep.ServeRuns(func(frame []byte, more bool) {
		l.inbound(h.owner, frame) // a server's endpoint serves that server alone
		if !more {
			l.release(h) // the run ends: what its inline deliveries sent leaves
		}
	})
	return nil
}

// down detaches a crashed node. A client's shared endpoint stays up for its
// siblings; inbound counts frames still in flight to the client as loss
// until it is back. A server's endpoint closes; its counters stay in the
// server's block.
func (l *tcpLink) down(ns *nodeState) {
	l.mu.Lock()
	ep := l.eps[ns.id]
	delete(l.eps, ns.id)
	l.mu.Unlock()
	if !ns.client {
		ep.Close() // outside mu: a reader ending its run releases a hold, which takes mu
	}
}

// close closes every endpoint. Endpoint.Close joins the endpoint's readers,
// and a reader ending its run releases a hold, which takes mu to find its
// endpoint, so the endpoints are closed outside mu.
func (l *tcpLink) close() {
	l.mu.RLock()
	eps := make([]*transport.Endpoint, 0, len(l.eps)+1)
	for _, ep := range l.eps {
		eps = append(eps, ep)
	}
	if l.clients != nil {
		eps = append(eps, l.clients)
	}
	l.mu.RUnlock()
	for _, ep := range eps {
		ep.Close() // idempotent: the clients' endpoint is listed once per attached client
	}
}

// hold is the frames one endpoint's nodes sent, waiting to be released: an
// owner's (its loop, or a reader delivering inline) until the drain batch or
// reader run that sent them ends, a timer goroutine's until the release it
// starts or finds under way. Groups are per destination address, in
// first-send order, and each is the write that carries it: its frames back
// to back, each framed as the transport puts it on the wire. A send encodes
// its message into its group through enc, and a release writes the group as
// it is, so a frame is built once and copied by nothing before the socket.
// Groups and their buffers are reused from release to release. One release
// at a time sends them, so every (sender, destination) pair keeps its send
// order and one goroutine at a time writes each of the endpoint's
// connections.
type hold struct {
	owner *nodeState       // the server whose endpoint sends the frames; nil for the clients' shared one
	stats *transport.Stats // the counters of every endpoint owner has listened on, for the whole run

	mu        sync.Mutex
	groups    []heldGroup // waiting to be sent
	spare     []heldGroup // the array the last release sent from, emptied for reuse
	enc       wire.Buffer // encodes every message added, straight into its group
	releasing bool        // a release is sending, and sends whatever is added meanwhile before it returns
}

// heldGroup is the frames held for one destination address, in send order.
type heldGroup struct {
	addr   string
	stream []byte // the frames, back to back: [4-byte length][uvarint from][uvarint to][wire frame]
	frames int
}

// keptStream bounds the group buffer a release keeps for reuse: a larger one
// (a burst of large values) is dropped once written.
const keptStream = 1 << 20

// add frames msg from one node to another — the 4-byte length, the sender
// and destination ids, the wire frame — at the end of addr's group. It
// reports false, leaving the group as it was, for a frame over
// transport.MaxFrame, which no peer would accept; an error is a message wire
// cannot encode.
func (h *hold) add(addr string, from, to ioa.NodeID, msg ioa.Message) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.group(addr)
	start := len(g.stream)
	s := append(g.stream, 0, 0, 0, 0) // the length, filled in below
	s = binary.AppendUvarint(s, uint64(from))
	s = binary.AppendUvarint(s, uint64(to))
	s, err := h.enc.Append(s, msg)
	n := len(s) - start - 4
	if err != nil || n > transport.MaxFrame {
		g.stream = s[:start]
		return false, err
	}
	binary.BigEndian.PutUint32(s[start:], uint32(n))
	g.stream, g.frames = s, g.frames+1
	return true, nil
}

// group returns addr's group, opening one after the others if none is held.
// Called with mu held.
func (h *hold) group(addr string) *heldGroup {
	for i := range h.groups {
		if g := &h.groups[i]; g.addr == addr {
			return g
		}
	}
	if n := len(h.groups); n < cap(h.groups) {
		h.groups = h.groups[:n+1] // reuse the slot and its buffer
	} else {
		h.groups = append(h.groups, heldGroup{})
	}
	g := &h.groups[len(h.groups)-1]
	g.addr = addr
	return g
}

// send frames the message into the sending endpoint's hold. An owner's send
// (inLoop) leaves when the owner's batch or run ends; a timer goroutine's
// releases the hold at once. The address is snapshotted under mu (recovery
// replaces it). A frame over transport.MaxFrame is refused at the hold and
// counted as loss: it is never written.
func (l *tcpLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	l.mu.RLock()
	addr := l.addrs[to.id]
	l.mu.RUnlock()
	h := l.holds[from.id]
	held, err := h.add(addr, from.id, to.id, msg)
	if err != nil {
		// An unregistered kind, or a body that disagrees with its kind,
		// cannot cross the network; surfacing it as loss would hide the
		// bug, so panic — the wire registry tests make this unreachable for
		// shipped algorithms.
		panic(fmt.Sprintf("runtime: node %d sent unencodable message: %v", from.id, err))
	}
	if p, ok := msg.Body.(ioa.Pooled); ok {
		p.Release() // the frame holds a copy of the payload: the message lets go of its own
	}
	if !held {
		l.sendErrs.Add(1)
	}
	if !inLoop {
		l.release(h)
	}
}

// flush ends the node loop's drain batch by releasing its endpoint's hold.
func (l *tcpLink) flush(ns *nodeState) { l.release(l.holds[ns.id]) }

// release sends what h holds: each destination's group goes to the
// transport as one write, its frames in the order they were sent. A caller
// that finds a release under way leaves its frames to it and returns; the
// one releasing sends until nothing is held. A send error (failed dial,
// closed endpoint) is real-network silence — the endpoint redials on the
// next send and protocol timeouts own recovery — but it is counted, so
// lossy-run reports do not understate loss. Sends run outside mu, since one
// can block for the transport's full send timeout.
func (l *tcpLink) release(h *hold) {
	h.mu.Lock()
	if h.releasing {
		h.mu.Unlock()
		return
	}
	h.releasing = true
	for len(h.groups) > 0 {
		out := h.groups
		h.groups, h.spare = h.spare[:0], nil
		h.mu.Unlock()
		l.mu.RLock()
		ep := l.clients
		if h.owner != nil {
			ep = l.eps[h.owner.id] // nil while the server is down: its frames count as lost
		}
		l.mu.RUnlock()
		for i := range out {
			g := &out[i]
			if g.frames > 0 && (ep == nil || ep.SendFramed(g.addr, g.stream, g.frames) != nil) {
				l.sendErrs.Add(int64(g.frames))
			}
			if cap(g.stream) > keptStream {
				g.stream = nil
			}
			g.stream, g.frames = g.stream[:0], 0
		}
		h.mu.Lock()
		h.spare = out[:0]
	}
	h.releasing = false
	h.mu.Unlock()
}

// inbound decodes one frame off an endpoint and delivers it to the node it
// names: inline, on the reader's goroutine, when the node is idle, and
// otherwise through its mailbox. owner is the server that owns the endpoint,
// or nil on the clients' shared one; a frame naming a node that endpoint
// does not serve is misrouted. Undecodable and misrouted frames are counted
// and dropped — on a real network a corrupt datagram is silence, and
// protocol timeouts own recovery — and so is a frame for a node that is
// down.
func (l *tcpLink) inbound(owner *nodeState, frame []byte) {
	from, n := binary.Uvarint(frame)
	if n <= 0 {
		l.badFrames.Add(1)
		return
	}
	to, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		l.badFrames.Add(1)
		return
	}
	ns := l.rt.node(ioa.NodeID(to))
	if ns == nil || (owner != nil && ns != owner) || (owner == nil && !ns.client) {
		l.badFrames.Add(1)
		return
	}
	if ns.down.Load() {
		l.detached.Add(1)
		return
	}
	// The header is read before the body is decoded: what a frame is — its
	// kind, the request it answers — is known before it costs a decode.
	hdr, body, err := wire.Header(frame[n+m:])
	if err != nil {
		l.badFrames.Add(1)
		return
	}
	msg, err := wire.DecodeBody(hdr, body)
	if err != nil {
		l.badFrames.Add(1)
		return
	}
	ev := event{from: ioa.NodeID(from), msg: msg}
	// Inline only while nothing a reader posted to ns waits: such a frame may
	// be an earlier one of this link, and must be handled first. A reader
	// that loses the TryLock posts and moves on — it never blocks on a
	// node's lock, so a busy node costs it the mailbox hop and no more.
	if ns.own.TryLock() {
		if ns.queued.Load() == 0 {
			// down is re-checked under the lock: crashNode sets it before it
			// takes the lock to exclude inline deliveries.
			if ns.down.Load() {
				l.detached.Add(1)
			} else {
				l.rt.handle(ns, ev)
			}
			ns.own.Unlock()
			return
		}
		ns.own.Unlock()
	}
	ev.counted = true
	ns.queued.Add(1) // before the post: the loop may handle the event at once
	if ok, _ := l.rt.post(nil, ns, ev, sendTimeout); !ok {
		ns.queued.Add(-1)
	}
}

func (l *tcpLink) loss() (dropped, requeued int) {
	dropped = int(l.sendErrs.Load() + l.badFrames.Load() + l.detached.Load())
	for _, h := range l.owners {
		dropped += int(h.stats.DroppedFull.Load() + h.stats.DroppedDead.Load() + h.stats.Malformed.Load())
		requeued += int(h.stats.Requeued.Load())
	}
	return dropped, requeued
}

// endpointTransport is the counter set the sampler lifts one endpoint
// owner's transport block into. A server's block spans every endpoint it
// has listened on, so its totals never move backward across a crash; Raise
// mirrors them.
type endpointTransport struct {
	framesSent, framesRecv   telemetry.Counter
	batchesSent              telemetry.Counter
	bytesSent, bytesRecv     telemetry.Counter
	droppedFull, droppedDead telemetry.Counter
	requeued, malformed      telemetry.Counter
}

func (t *endpointTransport) lift(s *transport.Stats) {
	t.framesSent.Raise(s.FramesSent.Load())
	t.framesRecv.Raise(s.FramesReceived.Load())
	t.batchesSent.Raise(s.BatchesSent.Load())
	t.bytesSent.Raise(s.BytesSent.Load())
	t.bytesRecv.Raise(s.BytesReceived.Load())
	t.droppedFull.Raise(s.DroppedFull.Load())
	t.droppedDead.Raise(s.DroppedDead.Load())
	t.requeued.Raise(s.Requeued.Load())
	t.malformed.Raise(s.Malformed.Load())
}

// sampler registers one transport counter set per endpoint owner — each
// server's under node=<id>, the clients' shared one under node="clients",
// so no endpoint is counted twice — and returns the lift from the owners'
// blocks.
func (l *tcpLink) sampler(reg *telemetry.Registry, sl telemetry.Label) func() {
	sets := make([]*endpointTransport, len(l.owners))
	for i, h := range l.owners {
		owner := clientsOwner
		if h.owner != nil {
			owner = strconv.Itoa(int(h.owner.id))
		}
		nl := telemetry.L("node", owner)
		sets[i] = &endpointTransport{
			framesSent:  reg.Counter(telemetry.MetricTransportFramesSent, "frames written to peer sockets", sl, nl),
			framesRecv:  reg.Counter(telemetry.MetricTransportFramesRecv, "frames received and handed to the node", sl, nl),
			batchesSent: reg.Counter(telemetry.MetricTransportBatchesSent, "socket writes carrying frames (frames/batches = coalescing factor)", sl, nl),
			bytesSent:   reg.Counter(telemetry.MetricTransportBytesSent, "frame payload bytes written to peer sockets", sl, nl),
			bytesRecv:   reg.Counter(telemetry.MetricTransportBytesRecv, "frame payload bytes received", sl, nl),
			droppedFull: reg.Counter(telemetry.MetricTransportDroppedFull, "frames dropped by a socket write that timed out with nothing written, past SendTimeout", sl, nl),
			droppedDead: reg.Counter(telemetry.MetricTransportDroppedDead, "frames lost to dead connections", sl, nl),
			requeued:    reg.Counter(telemetry.MetricTransportRequeued, "frames resent on a redialed connection", sl, nl),
			malformed:   reg.Counter(telemetry.MetricTransportMalformed, "inbound streams refused at a length over MaxFrame", sl, nl),
		}
	}
	return func() {
		for i, h := range l.owners {
			sets[i].lift(h.stats)
		}
	}
}
