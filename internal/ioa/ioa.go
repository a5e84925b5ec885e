// Package ioa provides a deterministic, single-threaded simulation kernel for
// asynchronous message-passing systems in the I/O-automata style used by the
// paper (Section 3): a set of nodes (servers and clients) connected by
// point-to-point reliable FIFO channels, scheduled one discrete step at a
// time.
//
// Determinism is the load-bearing property. The paper's lower-bound proofs
// construct executions ("run the writer until point P, silence it, fork two
// futures...") that are only expressible when the schedule is data rather
// than an accident of thread timing. The kernel therefore exposes:
//
//   - single-step delivery primitives (Deliver, Invoke),
//   - fair and seeded-random schedulers built on top of them,
//   - crash failures (a node stops taking steps),
//   - silencing (messages from AND to a node are delayed indefinitely,
//     the construction used in the valency probes of Sections 4-6),
//   - per-channel freezing (used by the Theorem 6.5 construction, which
//     withholds value-dependent messages in the channels),
//   - whole-system snapshots with deep-cloned node state, and
//   - per-server storage accounting in bits, the paper's cost metric.
//
// Every message has one shape, a Msg: a header (its Kind, the request id
// RID it belongs to, a version Tag) and, only for the messages that carry
// data, a Body. Messages are immutable: nodes must never write a message (or
// a byte slice reachable from one) after sending it, which lets queues,
// mailboxes and snapshots share it. A body whose payload is drawn from a
// pool (Pooled) is shared only with its holder count raised.
//
// The slice of sends a step returns is the node's, not the caller's: a node
// builds it in its Outbox and reuses the buffer on its next step, so both
// consumers — System here and the wall-clock node runtime — read Effects.Sends
// before they step that node again. The Outbox carves the messages
// themselves from slabs it never reuses, so a header-only send allocates no
// message of its own; only a body is boxed, and a broadcast stores its
// message, and boxes its body, once.
package ioa

import "fmt"

// NodeID identifies a node. Servers and clients share one namespace.
type NodeID int

// Kind identifies a message's type: what a node switches on, and the byte
// that leads its wire frame. Each algorithm package owns a range of kinds
// (internal/wire lists them).
type Kind uint8

// Msg is a message's value. The header — Kind, the request id RID of the
// phase it belongs to, a version Tag — is all that queries, acks and
// finalizations carry; their Body is nil. A message that carries data holds
// it in Body: a value, a coded element, or a coded register's reply slots. A
// body that bears a written value says so through ValueBearer, and one that
// holds a pooled payload through Pooled.
type Msg struct {
	Kind Kind
	RID  int64
	Tag  Tag
	Body any
}

// Message is a message as nodes exchange it: its Msg, shared by pointer by
// every holder, since nobody writes a message once it is sent.
type Message = *Msg

// Tag is a version identifier: a sequence number paired with the writer's id
// to break ties, ordered lexicographically. It is the (z, id) "tag" used by
// multi-writer algorithms such as ABD and CAS.
type Tag struct {
	Seq    int64
	Writer NodeID
}

// Less reports whether t orders strictly before u.
func (t Tag) Less(u Tag) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.Writer < u.Writer
}

// Equal reports whether the tags are identical.
func (t Tag) Equal(u Tag) bool { return t.Seq == u.Seq && t.Writer == u.Writer }

// IsZero reports whether t is the bottom tag (no write yet).
func (t Tag) IsZero() bool { return t.Seq == 0 && t.Writer == 0 }

// Next returns the tag a writer with the given id uses after observing t.
func (t Tag) Next(writer NodeID) Tag { return Tag{Seq: t.Seq + 1, Writer: writer} }

// Bits returns the metadata size of a tag for storage accounting: 64 bits of
// sequence number plus 32 bits of writer id.
func (t Tag) Bits() int { return 96 }

// String formats the tag.
func (t Tag) String() string { return fmt.Sprintf("(%d,w%d)", t.Seq, t.Writer) }

// OpKind distinguishes read and write operations.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Invocation starts an operation at a client.
type Invocation struct {
	Kind  OpKind
	Value []byte // value to write; nil for reads
}

// Response completes an operation at a client.
type Response struct {
	Kind  OpKind
	Value []byte // value read; nil for writes
}

// Send is an outgoing message directed at a node.
type Send struct {
	To  NodeID
	Msg Message
}

// Effects is everything a node does in reaction to one input event: messages
// it sends plus, for clients, the completion of the outstanding operation.
//
// Sends is valid until the node's next Deliver or Invoke: a node may build
// it in an Outbox it reuses for every step. Consumers read it before they
// step the node again and copy what they keep.
type Effects struct {
	Sends    []Send
	Response *Response
}

// Slab carves messages from allocations of slabLen Msgs and never writes a
// carved one again: a message may outlive its carving in any queue, mailbox
// or snapshot, and a full slab lives on in the messages carved from it. So
// a message costs a slabLen-th of an allocation. The zero Slab is ready to
// use; one goroutine at a time may carve from it.
type Slab struct{ msgs []Msg }

// slabLen is how many messages a Slab carves from one allocation.
const slabLen = 16

// Carve stores msg in the slab and returns it as a Message.
func (s *Slab) Carve(msg Msg) Message {
	if len(s.msgs) == cap(s.msgs) {
		s.msgs = make([]Msg, 0, slabLen)
	}
	s.msgs = append(s.msgs, msg)
	return &s.msgs[len(s.msgs)-1]
}

// Outbox is a node's reusable send buffer: one per node, so a step
// allocates only the bodies of the messages it sends, and a broadcast stores
// its message and boxes its body once for every destination. Add collects
// sends and Effects hands them out; the first Add after that starts a new
// batch, clearing every slot the last one used, so the buffer keeps a send
// reachable only until the node's next send, never across batches of
// different sizes. The messages themselves are carved from the outbox's
// Slab. A node's Clone must give the copy a zero Outbox, never share one.
type Outbox struct {
	sends  []Send
	slab   Slab
	handed bool // sends went out in an Effects; the next Add starts afresh
}

// add appends one send of a carved message to the current batch.
func (o *Outbox) add(to NodeID, m Message) {
	if o.handed {
		clear(o.sends)
		o.sends = o.sends[:0]
		o.handed = false
	}
	o.sends = append(o.sends, Send{To: to, Msg: m})
}

// Add appends one send to the current batch.
func (o *Outbox) Add(to NodeID, msg Msg) { o.add(to, o.slab.Carve(msg)) }

// Effects hands out the current batch, valid until the next Add.
func (o *Outbox) Effects() Effects {
	o.handed = true
	if len(o.sends) == 0 {
		return Effects{}
	}
	return Effects{Sends: o.sends}
}

// Reply sends msg to one node: the whole effect of a server's step.
func (o *Outbox) Reply(to NodeID, msg Msg) Effects {
	o.Add(to, msg)
	return o.Effects()
}

// All sends the same msg to every node in ids: a quorum phase's broadcast.
func (o *Outbox) All(ids []NodeID, msg Msg) Effects {
	m := o.slab.Carve(msg)
	for _, id := range ids {
		o.add(id, m)
	}
	return o.Effects()
}

// Node is a deterministic event-driven automaton. Deliver must be a pure
// state transition: same state + same input => same new state and effects.
// The effects' Sends stay valid until the node's next Deliver or Invoke.
type Node interface {
	// ID returns the node's identity.
	ID() NodeID
	// Deliver handles a message from another node.
	Deliver(from NodeID, msg Message) Effects
	// Clone returns a deep copy of the node; used by snapshots, and by the
	// wall-clock backends as a server's durable image: a server the fault
	// plan recovers is cloned before each of its effects' sends leaves it,
	// and a scheduled recovery restarts it from a clone of that image, so
	// state changed since its last send is lost and what any peer saw
	// survives (the crash-recovery model the quorum arguments assume). A
	// server keeps no volatile state, so a clone is all it stores.
	// Immutable payloads (message byte slices) may be shared; pooled
	// payloads (erasure shards) are shared only once retained for the copy,
	// and a copy that retains them has a Release method its holder calls
	// once when it drops the copy. The copy has an Outbox of its own.
	Clone() Node
}

// Client is a node at which operations can be invoked. A client has at most
// one outstanding operation at a time (the well-formedness condition of
// Section 3).
type Client interface {
	Node
	// Invoke starts an operation. It must not be called while Busy.
	Invoke(inv Invocation) Effects
	// Busy reports whether an operation is outstanding.
	Busy() bool
}

// StorageMeter is implemented by server nodes that report the size in bits
// of their currently stored state. This is the operational proxy for the
// paper's log2|S_i| storage cost (see DESIGN.md, substitutions table).
type StorageMeter interface {
	StorageBits() int
}

// Digester is implemented by nodes whose state can be fingerprinted
// deterministically. The adversary package uses digests to realize the
// injectivity ("one-to-one mapping from value pairs to server state
// vectors") arguments of Theorems 4.1 and B.1.
type Digester interface {
	StateDigest() string
}

// FaultPlan is a deterministic delivery filter and failure schedule consulted
// by the kernel when one is installed with System.SetFaultPlan. All methods
// must be pure functions of their arguments (plus the plan's own immutable
// configuration): the kernel calls them at deterministic points of the
// schedule, and two runs of the same seeded schedule with the same plan must
// make identical fault decisions. The internal/faults package provides the
// standard implementation.
type FaultPlan interface {
	// MessageFate decides, at send time, what happens to the message with
	// the given global send sequence number on the from->to link: dropped
	// (never enqueued) or held for delaySteps additional steps before it
	// becomes deliverable. A zero fate (false, 0) is normal delivery.
	MessageFate(from, to NodeID, seq uint64, step int) (drop bool, delaySteps int)
	// LinkBlocked reports whether the from->to link is inside an outage
	// (partition) window at the given step. Blocked messages are held, not
	// dropped, and flow again when the window closes.
	LinkBlocked(from, to NodeID, step int) bool
	// NextLinkChange returns the earliest step strictly after step at which
	// the from->to link's blocked status may change, or -1 when it never
	// changes again. The kernel uses it to fast-forward logical time across
	// outage windows when nothing else is deliverable.
	NextLinkChange(from, to NodeID, step int) int
	// NodeEvents returns the scheduled crash/recovery events, ascending by
	// Step. The kernel applies an event once the step counter reaches it.
	NodeEvents() []NodeFaultEvent
}

// NodeFaultEvent schedules a node crash or recovery at a step.
type NodeFaultEvent struct {
	Step    int
	Node    NodeID
	Recover bool
}

// FaultStats aggregates an execution's fault events.
type FaultStats struct {
	// Drops counts lost messages: discarded by the plan at send time, or,
	// on the simulator, arriving at a crashed node (System.Crash).
	Drops int
	// DelayedMessages counts messages assigned a nonzero delivery delay, and
	// DelayStepsTotal sums those delays.
	DelayedMessages int
	DelayStepsTotal int
	// Crashes and Recoveries count applied scheduled node events.
	Crashes    int
	Recoveries int
	// Checkpoints counts durable-state snapshots taken by the wall-clock
	// backends' crash-recovery machinery: one per send-bearing effect of a
	// node the plan recovers. Zero on the simulator, whose crash-recovery
	// keeps state intact in-process.
	Checkpoints int
	// FastForwards counts the times a scheduler advanced logical time
	// because every queued message was delayed or blocked.
	FastForwards int
	// TransportDropped counts messages lost below the fault plan: mailboxes
	// that stayed full past the send deadline, frames whose socket write
	// timed out before writing a byte, and frames in a write that failed
	// and retired the connection.
	// Zero on the simulator, whose channels are unbounded.
	TransportDropped int
	// TransportRequeued counts frames resent on a freshly dialed connection
	// after their original connection died before their turn to write.
	TransportRequeued int
}

// Add accumulates another execution's fault counts — the one place
// field-by-field summation lives, so aggregators (store, session) cannot
// silently drop a later-added counter.
func (s *FaultStats) Add(o FaultStats) {
	s.Drops += o.Drops
	s.DelayedMessages += o.DelayedMessages
	s.DelayStepsTotal += o.DelayStepsTotal
	s.Crashes += o.Crashes
	s.Recoveries += o.Recoveries
	s.Checkpoints += o.Checkpoints
	s.FastForwards += o.FastForwards
	s.TransportDropped += o.TransportDropped
	s.TransportRequeued += o.TransportRequeued
}

// ValueBearer marks message bodies that carry information about a written
// value (the "value-dependent messages" of Definition 6.4). The Theorem 6.5
// execution construction withholds exactly the messages with such a body.
type ValueBearer interface {
	BearsValue() bool
}

// Pooled is implemented by message bodies whose payload is drawn from a pool
// and counts its holders (erasure shards). The message is one holder:
// whoever keeps a copy of it beside the one it was handed calls Retain, and
// a holder that is done with the payload without handing the message on
// calls Release. A message nobody releases — dropped by a fault, lost at a
// crashed node, kept in a snapshot — leaves its payload to the garbage
// collector, which is always safe.
type Pooled interface {
	Retain()
	Release()
}

// BearsValue reports whether a message is value-dependent.
func BearsValue(m Message) bool {
	v, ok := m.Body.(ValueBearer)
	return ok && v.BearsValue()
}
