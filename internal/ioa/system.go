package ioa

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// ChanKey identifies a directed point-to-point channel.
type ChanKey struct {
	From, To NodeID
}

// queued is one in-flight message with its fault metadata: the global send
// sequence number (for deterministic fault decisions) and the earliest step
// at which it may be delivered (send step plus any fault-assigned delay).
// Without a fault plan readyAt equals the send step, so every queued message
// is immediately deliverable and the kernel behaves exactly as before.
type queued struct {
	msg     Message
	seq     uint64
	readyAt int
}

// channel is the kernel's per-link state: the message queue plus the
// incrementally maintained readiness metadata that lets the schedulers avoid
// rescanning every queue on every sweep.
//
// Invariants (enforced by the differential kernel tests):
//
//   - ready is the number of queued messages with readyAt <= steps; messages
//     whose delay has not elapsed are represented by a message wake in the
//     system's wake heap, and ready is incremented exactly when that wake
//     pops.
//   - deliverable mirrors CanDeliver for this channel at the current step; it
//     is recomputed (refresh) after every event that can change any of its
//     inputs: send, delivery, crash, silence, freeze, fault-plan
//     installation and link outage boundaries (via link wakes).
//   - a channel into a crashed node holds no ready message: a message that
//     arrives (its delay ends) while its target is down is lost, and Crash
//     discards what had arrived before it.
//   - idx is the channel's position in System.chans, and bit idx of
//     System.readySet is set exactly when deliverable is.
//   - from and to are the endpoints' slots, key holds their ids, and the
//     channel is the slot table's entry System.links[from*stride+to].
//   - linkWake is the step of this channel's scheduled link-change wake (0 if
//     none). At most one link wake per channel is outstanding, and while the
//     channel stays non-empty it equals the plan's NextLinkChange.
//
// Queue storage is pooled: messages are removed in place, so a channel's
// backing array is reused across its lifetime and steady-state delivery
// allocates nothing.
type channel struct {
	key         ChanKey
	from, to    int // endpoint slots
	idx         int // position in System.chans
	q           []queued
	ready       int  // queued messages with readyAt <= steps
	frozen      bool // Freeze/Unfreeze state
	linkWake    int  // scheduled link-change wake step (0 = none)
	deliverable bool // cached CanDeliver, kept current by refresh
}

// wake is one entry of the system's min-heap over future scheduling
// boundaries: either a delayed message becoming ready (link == false) or a
// link outage boundary where a channel's blocked status may flip
// (link == true).
type wake struct {
	t    int
	ch   *channel
	link bool
}

// maxNodeID bounds node ids: an id indexes the system's slot lookup
// (slotOf) directly, so ids are small non-negative integers (the cluster
// package numbers servers from 1 and clients from 101).
const maxNodeID = 1 << 20

// System is the composed automaton: nodes plus channels plus failure state,
// advanced one discrete step at a time. The zero value is not usable; create
// systems with NewSystem.
type System struct {
	// Node tables. A node's slot is its position in registration order, and
	// every per-node table is indexed by slot; slotOf[id] is id's slot plus
	// one (0 = no such node). sorted holds the ids in ascending order.
	slotOf   []int32
	ids      []NodeID
	sorted   []NodeID
	nodes    []Node
	server   []bool
	crashed  []bool
	silenced []bool
	meters   []StorageMeter // metered servers; nil elsewhere
	curBits  []int
	maxBits  []int

	steps int
	hist  *History

	// Channel index: chans is sorted by (From, To) and is the deterministic
	// iteration order of every sweep; links is the slot table
	// (links[from*stride+to]) behind point lookups and the per-node
	// refreshes of crash and silence events, its side stride doubling as
	// nodes register. readySet has bit i set exactly when chans[i] is
	// deliverable; nReady is its popcount.
	chans    []*channel
	links    []*channel
	stride   int
	readySet []uint64
	nReady   int

	// wakes is the min-heap (by t) of future readiness boundaries; sweep is
	// the schedulers' reusable deliverable-channel buffer.
	wakes []wake
	sweep []*channel

	// Fault injection (nil plan means a fault-free run).
	faults      FaultPlan
	faultEvents []NodeFaultEvent // plan's node events, sorted by Step
	faultEvIdx  int              // first not-yet-applied event
	faultStats  FaultStats
	nextSeq     uint64 // global send sequence number

	// Storage accounting totals (per-server figures are in the node tables).
	curTotalBits int
	maxTotalBits int
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{hist: NewHistory()}
}

// AddServer registers a server node. Server storage is metered when the node
// implements StorageMeter.
func (s *System) AddServer(n Node) error { return s.add(n, true) }

// AddClient registers a client node.
func (s *System) AddClient(c Client) error { return s.add(c, false) }

func (s *System) add(n Node, server bool) error {
	id := n.ID()
	if id < 0 || id >= maxNodeID {
		return fmt.Errorf("ioa: node id %d outside [0, %d)", id, maxNodeID)
	}
	if _, dup := s.slot(id); dup {
		return fmt.Errorf("ioa: duplicate node id %d", id)
	}
	if int(id) >= len(s.slotOf) {
		s.slotOf = append(s.slotOf, make([]int32, int(id)+1-len(s.slotOf))...)
	}
	slot := len(s.nodes)
	s.slotOf[id] = int32(slot + 1)
	s.ids = append(s.ids, id)
	s.nodes = append(s.nodes, n)
	s.server = append(s.server, server)
	s.crashed = append(s.crashed, false)
	s.silenced = append(s.silenced, false)
	var m StorageMeter
	if server {
		m, _ = n.(StorageMeter)
	}
	s.meters = append(s.meters, m)
	s.curBits = append(s.curBits, 0)
	s.maxBits = append(s.maxBits, 0)
	// Insert at the sorted position instead of re-sorting the whole slice.
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] > id })
	s.sorted = slices.Insert(s.sorted, i, id)
	if len(s.nodes) > s.stride {
		s.stride = max(2*s.stride, 8)
		s.links = make([]*channel, s.stride*s.stride)
		for _, ch := range s.chans {
			s.links[ch.from*s.stride+ch.to] = ch
		}
	}
	if m != nil {
		s.meter(slot)
	}
	return nil
}

// slot returns the node's slot, and false when no node has the id.
func (s *System) slot(id NodeID) (int, bool) {
	if id < 0 || int(id) >= len(s.slotOf) {
		return 0, false
	}
	v := s.slotOf[id]
	return int(v) - 1, v != 0
}

// link returns the from->to channel, or nil when it has never been used.
func (s *System) link(from, to NodeID) *channel {
	f, ok := s.slot(from)
	t, ok2 := s.slot(to)
	if !ok || !ok2 {
		return nil
	}
	return s.links[f*s.stride+t]
}

// Node returns the node with the given id.
func (s *System) Node(id NodeID) (Node, error) {
	i, ok := s.slot(id)
	if !ok {
		return nil, fmt.Errorf("ioa: no node with id %d", id)
	}
	return s.nodes[i], nil
}

// NodeIDs returns all node ids in ascending order.
func (s *System) NodeIDs() []NodeID { return slices.Clone(s.sorted) }

// ServerIDs returns the ids of server nodes in ascending order.
func (s *System) ServerIDs() []NodeID {
	out := make([]NodeID, 0, len(s.sorted))
	for _, id := range s.sorted {
		if s.isServer(id) {
			out = append(out, id)
		}
	}
	return out
}

func (s *System) isServer(id NodeID) bool {
	i, ok := s.slot(id)
	return ok && s.server[i]
}

// Steps returns the number of steps taken so far; it identifies the current
// "point" of the execution in the paper's sense.
func (s *System) Steps() int { return s.steps }

// History returns the execution's operation history (live view).
func (s *System) History() *History { return s.hist }

// ensureChan returns the from->to channel of two slots, creating it (at its
// sorted index position) on first use.
func (s *System) ensureChan(from, to int) *channel {
	if ch := s.links[from*s.stride+to]; ch != nil {
		return ch
	}
	k := ChanKey{s.ids[from], s.ids[to]}
	ch := &channel{key: k, from: from, to: to}
	i := sort.Search(len(s.chans), func(i int) bool {
		c := s.chans[i].key
		if c.From != k.From {
			return c.From > k.From
		}
		return c.To > k.To
	})
	s.chans = slices.Insert(s.chans, i, ch)
	s.links[from*s.stride+to] = ch
	// Every channel from i on moved up one place: re-index it and the ready
	// set. Channels are created once per link, so this is off the hot path.
	for j := i; j < len(s.chans); j++ {
		s.chans[j].idx = j
	}
	s.reindexReady()
	return ch
}

// reindexReady rebuilds the ready bitset from the channels' flags.
func (s *System) reindexReady() {
	s.readySet = make([]uint64, (len(s.chans)+63)/64)
	for i, ch := range s.chans {
		if ch.deliverable {
			s.readySet[i>>6] |= 1 << (i & 63)
		}
	}
}

// refresh recomputes a channel's deliverable flag from the current failure,
// silence, freeze and fault state, and maintains the channel's link wake:
// while the channel is non-empty under a fault plan, a wake is scheduled at
// the plan's next outage boundary so the flag is recomputed exactly when the
// link's blocked status may change.
func (s *System) refresh(ch *channel) {
	d := ch.ready > 0 && !ch.frozen && !s.silenced[ch.to] && !s.silenced[ch.from]
	if s.faults != nil && len(ch.q) > 0 {
		if d && s.faults.LinkBlocked(ch.key.From, ch.key.To, s.steps) {
			d = false
		}
		if ch.linkWake <= s.steps {
			if next := s.faults.NextLinkChange(ch.key.From, ch.key.To, s.steps); next > s.steps {
				ch.linkWake = next
				s.pushWake(wake{t: next, ch: ch, link: true})
			} else {
				ch.linkWake = 0
			}
		}
	}
	if d != ch.deliverable {
		ch.deliverable = d
		bit := uint64(1) << (ch.idx & 63)
		if d {
			s.nReady++
			s.readySet[ch.idx>>6] |= bit
		} else {
			s.nReady--
			s.readySet[ch.idx>>6] &^= bit
		}
	}
}

// refreshNode refreshes every channel touching the node in the given slot
// (silence changes affect both directions).
func (s *System) refreshNode(slot int) {
	for _, ch := range s.links[slot*s.stride : slot*s.stride+len(s.nodes)] {
		if ch != nil {
			s.refresh(ch)
		}
	}
	for from := range s.nodes {
		if ch := s.links[from*s.stride+slot]; ch != nil {
			s.refresh(ch)
		}
	}
}

// pushWake inserts a wake into the min-heap.
func (s *System) pushWake(w wake) {
	s.wakes = append(s.wakes, w)
	i := len(s.wakes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.wakes[parent].t <= s.wakes[i].t {
			break
		}
		s.wakes[parent], s.wakes[i] = s.wakes[i], s.wakes[parent]
		i = parent
	}
}

// popWake removes and returns the minimum wake.
func (s *System) popWake() wake {
	top := s.wakes[0]
	last := len(s.wakes) - 1
	s.wakes[0] = s.wakes[last]
	s.wakes[last] = wake{}
	s.wakes = s.wakes[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.wakes) && s.wakes[l].t < s.wakes[min].t {
			min = l
		}
		if r < len(s.wakes) && s.wakes[r].t < s.wakes[min].t {
			min = r
		}
		if min == i {
			break
		}
		s.wakes[i], s.wakes[min] = s.wakes[min], s.wakes[i]
		i = min
	}
	return top
}

// advance pops every wake whose step has been reached: a delayed message
// arrives, and is lost if its target is down; a link boundary triggers a
// refresh. It is called after every step-counter change so channel flags are
// always current.
func (s *System) advance() {
	for len(s.wakes) > 0 && s.wakes[0].t <= s.steps {
		w := s.popWake()
		switch {
		case w.link:
			w.ch.linkWake = 0
		case s.crashed[w.ch.to]:
			// The channel holds no other ready message (see channel), so
			// the first one whose delay has ended is this wake's.
			w.ch.ready++
			w.ch.removeAt(w.ch.firstReady(s.steps))
			s.faultStats.Drops++
		default:
			w.ch.ready++
		}
		s.refresh(w.ch)
	}
}

// rebuildWakes recomputes every channel's ready count, the wake heap and the
// deliverable flags from the raw queues — used after fault-plan installation
// and snapshot restoration.
func (s *System) rebuildWakes() {
	s.wakes = s.wakes[:0]
	for _, ch := range s.chans {
		ch.linkWake = 0
		ch.ready = 0
		for _, e := range ch.q {
			if e.readyAt <= s.steps {
				ch.ready++
			} else {
				s.pushWake(wake{t: e.readyAt, ch: ch})
			}
		}
		s.refresh(ch)
	}
}

// CheckReadySetInvariants recomputes every channel's readiness from the raw
// queues — the way the pre-index kernel did on every sweep — and compares it
// against the incrementally maintained state: the flags, the ready bitset
// and its count, each channel's position, and the slot tables the channels
// are looked up through. It returns an error describing the first mismatch.
// The differential kernel tests call it after every mutation; it is exported
// so engine-level tests outside this package can assert the invariants
// mid-workload too.
func (s *System) CheckReadySetInvariants() error {
	n := len(s.nodes)
	for slot, id := range s.ids {
		if got, ok := s.slot(id); !ok || got != slot {
			return fmt.Errorf("ioa: node %d in slot %d, slot table says %d (%t)", id, slot, got, ok)
		}
	}
	for _, tab := range []int{len(s.server), len(s.crashed), len(s.silenced), len(s.meters), len(s.curBits), len(s.maxBits), len(s.sorted)} {
		if tab != n {
			return fmt.Errorf("ioa: node table of length %d for %d nodes", tab, n)
		}
	}
	if s.stride < n || len(s.links) != s.stride*s.stride {
		return fmt.Errorf("ioa: channel slot table of %d entries, side %d, for %d nodes", len(s.links), s.stride, n)
	}
	linked := 0
	for i, ch := range s.links {
		if ch == nil {
			continue
		}
		linked++
		if ch.from*s.stride+ch.to != i || ch.key != (ChanKey{s.ids[ch.from], s.ids[ch.to]}) {
			return fmt.Errorf("ioa: channel %v (slots %d->%d) at slot-table entry %d", ch.key, ch.from, ch.to, i)
		}
	}
	if linked != len(s.chans) {
		return fmt.Errorf("ioa: %d channels in the slot table, %d in the index", linked, len(s.chans))
	}
	if len(s.readySet) != (len(s.chans)+63)/64 {
		return fmt.Errorf("ioa: ready bitset of %d words for %d channels", len(s.readySet), len(s.chans))
	}
	nReady, bitCount := 0, 0
	for _, w := range s.readySet {
		bitCount += bits.OnesCount64(w)
	}
	for i, ch := range s.chans {
		if i > 0 {
			prev := s.chans[i-1].key
			if prev.From > ch.key.From || (prev.From == ch.key.From && prev.To >= ch.key.To) {
				return fmt.Errorf("ioa: channel index out of order at %d: %v then %v", i, prev, ch.key)
			}
		}
		if ch.idx != i {
			return fmt.Errorf("ioa: channel %v at index %d records index %d", ch.key, i, ch.idx)
		}
		if s.link(ch.key.From, ch.key.To) != ch {
			return fmt.Errorf("ioa: channel %v is not its slot-table entry", ch.key)
		}
		ready := 0
		for _, e := range ch.q {
			if e.readyAt <= s.steps {
				ready++
			}
		}
		if ready != ch.ready {
			return fmt.Errorf("ioa: channel %v ready count %d, recomputed %d (step %d)", ch.key, ch.ready, ready, s.steps)
		}
		if ready > 0 && s.Crashed(ch.key.To) {
			return fmt.Errorf("ioa: channel %v into crashed node %d holds %d ready messages (step %d)", ch.key, ch.key.To, ready, s.steps)
		}
		want := ready > 0 && !ch.frozen && !s.Silenced(ch.key.To) && !s.Silenced(ch.key.From) &&
			!s.linkBlocked(ch.key)
		if want != ch.deliverable {
			return fmt.Errorf("ioa: channel %v deliverable flag %t, recomputed %t (step %d, q=%d ready=%d frozen=%t)",
				ch.key, ch.deliverable, want, s.steps, len(ch.q), ready, ch.frozen)
		}
		if bit := s.readySet[i>>6]>>(i&63)&1 == 1; bit != ch.deliverable {
			return fmt.Errorf("ioa: channel %v ready bit %t, deliverable flag %t", ch.key, bit, ch.deliverable)
		}
		if ch.deliverable {
			nReady++
		}
	}
	if nReady != s.nReady || bitCount != s.nReady {
		return fmt.Errorf("ioa: nReady %d, recomputed %d, ready bits %d", s.nReady, nReady, bitCount)
	}
	return nil
}

// Crash fails a node: it takes no further steps, and a message that arrives
// for it while it is down is lost (counted in FaultStats.Drops), as a failed
// server in the paper never receives one. Crash discards what has arrived;
// the rest is dropped as it arrives. In-flight messages the node sent
// earlier remain deliverable, matching the crash model of Section 3.
func (s *System) Crash(id NodeID) {
	i, ok := s.slot(id)
	if !ok {
		return
	}
	s.crashed[i] = true
	for from := range s.nodes {
		ch := s.links[from*s.stride+i]
		if ch == nil || ch.ready == 0 {
			continue
		}
		s.faultStats.Drops += ch.ready
		ch.q = slices.DeleteFunc(ch.q, func(e queued) bool { return e.readyAt <= s.steps })
		ch.ready = 0
		s.refresh(ch)
	}
}

// Crashed reports whether the node has crashed.
func (s *System) Crashed(id NodeID) bool {
	i, ok := s.slot(id)
	return ok && s.crashed[i]
}

// Recover lifts a Crash: the node resumes taking steps with its state intact,
// modeling crash-recovery rather than the paper's permanent crash. What was
// sent to it while it was down and arrived then is lost; a message still
// delayed reaches it when its delay ends.
func (s *System) Recover(id NodeID) {
	if i, ok := s.slot(id); ok {
		s.crashed[i] = false
	}
}

// SetFaultPlan installs (or, with nil, removes) a fault plan. The plan's
// decisions apply to messages sent after this call; node events scheduled at
// or before the current step are applied immediately.
func (s *System) SetFaultPlan(p FaultPlan) {
	s.faults = p
	s.faultEvents = nil
	s.faultEvIdx = 0
	if p != nil {
		s.faultEvents = append([]NodeFaultEvent(nil), p.NodeEvents()...)
		sort.SliceStable(s.faultEvents, func(i, j int) bool {
			return s.faultEvents[i].Step < s.faultEvents[j].Step
		})
	}
	s.rebuildWakes()
	if p != nil {
		s.applyNodeFaultEvents()
	}
}

// FaultStats returns the fault events accounted so far.
func (s *System) FaultStats() FaultStats { return s.faultStats }

// applyNodeFaultEvents applies every scheduled crash/recovery whose step has
// been reached. Events that would not change the node's state (crashing an
// already-crashed node), and events naming no node of the system, are
// consumed silently.
func (s *System) applyNodeFaultEvents() {
	for s.faultEvIdx < len(s.faultEvents) {
		ev := s.faultEvents[s.faultEvIdx]
		if ev.Step > s.steps {
			return
		}
		s.faultEvIdx++
		i, ok := s.slot(ev.Node)
		if !ok {
			continue
		}
		if ev.Recover {
			if s.crashed[i] {
				s.Recover(ev.Node)
				s.faultStats.Recoveries++
			}
		} else if !s.crashed[i] {
			s.Crash(ev.Node)
			s.faultStats.Crashes++
		}
	}
}

// linkBlocked reports whether the fault plan holds the link closed right now.
func (s *System) linkBlocked(k ChanKey) bool {
	return s.faults != nil && s.faults.LinkBlocked(k.From, k.To, s.steps)
}

// firstReady returns the index of the first queued message on the channel
// whose delay has elapsed. Delivering the first ready message (rather than
// the strict head) is what lets per-message delays reorder a link, matching
// the unordered asynchronous channels of the paper's model. In the common
// fault-free case every queued message is ready and the head is returned
// without scanning.
func (ch *channel) firstReady(steps int) int {
	if ch.ready == len(ch.q) {
		return 0
	}
	for i := range ch.q {
		if ch.q[i].readyAt <= steps {
			return i
		}
	}
	return -1
}

// removeAt deletes the i-th queued message in place, preserving FIFO order
// and reusing the backing array.
func (ch *channel) removeAt(i int) Message {
	msg := ch.q[i].msg
	copy(ch.q[i:], ch.q[i+1:])
	ch.q[len(ch.q)-1] = queued{} // release the message reference
	ch.q = ch.q[:len(ch.q)-1]
	ch.ready--
	return msg
}

// FaultForward advances logical time when faults have made the system
// temporarily idle: every queued message is delayed or held by a blocked,
// frozen or silenced link, but a scheduled event (delay expiry, outage
// boundary, node crash/recovery) lies ahead. It jumps the step counter to the
// earliest such point, applies due node events, and reports whether it
// advanced. Schedulers call it before declaring the system quiescent; without
// a fault plan it always reports false.
//
// The candidate set is the next scheduled node event plus the earliest valid
// wake: a link wake counts while its channel is non-empty, and a message
// wake counts only while its channel has no ready message (a channel that
// already holds a ready-but-undeliverable message — say, on a frozen link —
// contributes no boundary, exactly as the per-channel
// minimum-readyAt sweep of the pre-index kernel behaved). The heap is
// traversed as a tree with subtree pruning (children never precede their
// parent), so the search touches only the invalid prefix of the heap instead
// of every queued message.
func (s *System) FaultForward() bool {
	if s.faults == nil {
		return false
	}
	target := -1
	if s.faultEvIdx < len(s.faultEvents) {
		if t := s.faultEvents[s.faultEvIdx].Step; t > s.steps {
			target = t
		}
	}
	if t := s.earliestWake(0, target); t != -1 {
		target = t
	}
	if target == -1 {
		return false
	}
	s.steps = target
	s.faultStats.FastForwards++
	s.advance()
	s.applyNodeFaultEvents()
	return true
}

// earliestWake returns the smallest wake time below heap index i that is a
// valid fault-forward candidate and beats bound (-1 = unbounded), or -1.
// Subtrees whose root cannot beat the bound are pruned.
func (s *System) earliestWake(i, bound int) int {
	if i >= len(s.wakes) {
		return -1
	}
	w := s.wakes[i]
	if bound != -1 && w.t >= bound {
		return -1
	}
	valid := w.t > s.steps
	if valid {
		if w.link {
			valid = len(w.ch.q) > 0
		} else {
			valid = w.ch.ready == 0
		}
	}
	if valid {
		return w.t // children are no earlier; this subtree's best
	}
	best := s.earliestWake(2*i+1, bound)
	if best != -1 {
		bound = best
	}
	if r := s.earliestWake(2*i+2, bound); r != -1 {
		best = r
	}
	return best
}

// Silence delays all messages from and to the node indefinitely and stops
// the node from taking steps. This is the construction used throughout the
// paper's proofs ("after point P all the messages from and to the writer are
// delayed indefinitely").
func (s *System) Silence(id NodeID) {
	if i, ok := s.slot(id); ok {
		s.silenced[i] = true
		s.refreshNode(i)
	}
}

// Unsilence lifts a Silence.
func (s *System) Unsilence(id NodeID) {
	if i, ok := s.slot(id); ok {
		s.silenced[i] = false
		s.refreshNode(i)
	}
}

// Silenced reports whether the node is silenced.
func (s *System) Silenced(id NodeID) bool {
	i, ok := s.slot(id)
	return ok && s.silenced[i]
}

// Freeze stops deliveries on the directed channel from->to while leaving its
// queue intact. Used by the Theorem 6.5 construction to withhold
// value-dependent messages.
func (s *System) Freeze(from, to NodeID) {
	f, ok := s.slot(from)
	t, ok2 := s.slot(to)
	if !ok || !ok2 {
		return
	}
	ch := s.ensureChan(f, t)
	ch.frozen = true
	s.refresh(ch)
}

// Unfreeze lifts a Freeze.
func (s *System) Unfreeze(from, to NodeID) {
	if ch := s.link(from, to); ch != nil {
		ch.frozen = false
		s.refresh(ch)
	}
}

// QueueLen returns the number of undelivered messages on from->to.
func (s *System) QueueLen(from, to NodeID) int {
	if ch := s.link(from, to); ch != nil {
		return len(ch.q)
	}
	return 0
}

// CanDeliver reports whether some message of from->to may be delivered under
// the current failure/silence/freeze/fault state: the channel must hold a
// message whose fault delay has elapsed, and the link must not be inside an
// outage window.
func (s *System) CanDeliver(from, to NodeID) bool {
	ch := s.link(from, to)
	return ch != nil && ch.deliverable
}

// DeliverableChannels returns all channels with some currently deliverable
// message (see CanDeliver), in deterministic (From, To) order.
func (s *System) DeliverableChannels() []ChanKey {
	out := make([]ChanKey, 0, s.nReady)
	for w, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			out = append(out, s.chans[w<<6|bits.TrailingZeros64(word)].key)
		}
	}
	return out
}

// deliverables refills the schedulers' shared sweep buffer with the
// deliverable channels in (From, To) order. The buffer is only valid until
// the next deliverables call; single-threaded scheduler loops refill it at
// most once per sweep.
func (s *System) deliverables() []*channel {
	s.sweep = s.sweep[:0]
	for w, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			s.sweep = append(s.sweep, s.chans[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return s.sweep
}

// nthDeliverable returns DeliverableChannels()[n] without building the list:
// whole words of the ready set are skipped by popcount, then the n-th set
// bit of the word it falls in is selected.
func (s *System) nthDeliverable(n int) *channel {
	for w, word := range s.readySet {
		if c := bits.OnesCount64(word); n >= c {
			n -= c
			continue
		}
		for ; n > 0; n-- {
			word &= word - 1
		}
		return s.chans[w<<6|bits.TrailingZeros64(word)]
	}
	return nil
}

// DeliverRandom delivers on a uniformly random deliverable channel: it draws
// rng.Intn(n) over the n deliverable channels and delivers on the one at that
// position in (From, To) order, DeliverableChannels()[i], in time independent
// of the number of channels. It returns false, drawing nothing from rng, when
// no channel is deliverable.
func (s *System) DeliverRandom(rng *rand.Rand) (bool, error) {
	if s.nReady == 0 {
		return false, nil
	}
	return true, s.deliver(s.nthDeliverable(rng.Intn(s.nReady)))
}

// Deliver pops the first ready message of the from->to channel and delivers
// it, advancing the execution by one step. Without a fault plan every message
// is immediately ready, so this is plain FIFO delivery.
func (s *System) Deliver(from, to NodeID) error {
	ch := s.link(from, to)
	if ch == nil || !ch.deliverable {
		return fmt.Errorf("ioa: channel %d->%d has no deliverable message", from, to)
	}
	return s.deliver(ch)
}

// deliver is Deliver on a channel known to be deliverable.
func (s *System) deliver(ch *channel) error {
	msg := ch.removeAt(ch.firstReady(s.steps))
	s.refresh(ch)
	eff := s.nodes[ch.to].Deliver(ch.key.From, msg)
	return s.applyEffects(ch.to, eff)
}

// DeliverSelect delivers the first message on from->to accepted by match,
// possibly out of FIFO order. The paper's channels are asynchronous and
// unordered; the Section 6 execution constructions rely on delivering a
// writer's value-independent messages while its value-dependent ones stay in
// the channel, which FIFO delivery cannot express. It returns false when no
// queued message matches; failure/silence/freeze guards apply as in Deliver.
func (s *System) DeliverSelect(from, to NodeID, match func(Message) bool) (bool, error) {
	ch := s.link(from, to)
	if ch == nil || len(ch.q) == 0 {
		return false, nil
	}
	if ch.frozen || s.silenced[ch.to] || s.silenced[ch.from] || s.linkBlocked(ch.key) {
		return false, nil
	}
	for i := range ch.q {
		if ch.q[i].readyAt > s.steps || !match(ch.q[i].msg) {
			continue
		}
		msg := ch.removeAt(i)
		s.refresh(ch)
		eff := s.nodes[ch.to].Deliver(from, msg)
		if err := s.applyEffects(ch.to, eff); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// Invoke starts an operation at a client, advancing the execution by one
// step. It returns the history ID of the new operation.
func (s *System) Invoke(client NodeID, inv Invocation) (int, error) {
	slot, ok := s.slot(client)
	if !ok {
		return 0, fmt.Errorf("ioa: no node with id %d", client)
	}
	c, ok := s.nodes[slot].(Client)
	if !ok {
		return 0, fmt.Errorf("ioa: node %d is not a client", client)
	}
	if s.crashed[slot] {
		return 0, fmt.Errorf("ioa: cannot invoke on crashed client %d", client)
	}
	if c.Busy() {
		return 0, fmt.Errorf("ioa: client %d is busy", client)
	}
	// Stamped with the step it runs in, as a response is.
	id, err := s.hist.beginOp(client, inv, s.steps+1)
	if err != nil {
		return 0, err
	}
	eff := c.Invoke(inv)
	if err := s.applyEffects(slot, eff); err != nil {
		return 0, err
	}
	return id, nil
}

// applyEffects enqueues sends of the node in slot actor (subjecting each to
// the fault plan's drop and delay decisions, and to loss at a down target),
// records responses, bumps the step counter, applies due scheduled node
// faults and refreshes storage accounting for the acting node.
func (s *System) applyEffects(actor int, eff Effects) error {
	s.steps++
	s.advance()
	from := s.ids[actor]
	for _, send := range eff.Sends {
		to, ok := s.slot(send.To)
		if !ok {
			return fmt.Errorf("ioa: node %d sent to unknown node %d", from, send.To)
		}
		seq := s.nextSeq
		s.nextSeq++
		readyAt := s.steps
		if s.faults != nil {
			drop, delay := s.faults.MessageFate(from, send.To, seq, s.steps)
			if drop {
				// A dropped message is left to the collector, never
				// released: the count its Pooled payload carries just
				// never comes back, which is always safe.
				s.faultStats.Drops++
				continue
			}
			if delay > 0 {
				readyAt += delay
				s.faultStats.DelayedMessages++
				s.faultStats.DelayStepsTotal += delay
			}
		}
		if readyAt <= s.steps && s.crashed[to] {
			s.faultStats.Drops++
			continue
		}
		ch := s.ensureChan(actor, to)
		ch.q = append(ch.q, queued{msg: send.Msg, seq: seq, readyAt: readyAt})
		if readyAt <= s.steps {
			ch.ready++
		} else {
			s.pushWake(wake{t: readyAt, ch: ch})
		}
		s.refresh(ch)
	}
	if s.faults != nil {
		s.applyNodeFaultEvents()
	}
	if eff.Response != nil {
		if err := s.hist.endOp(from, *eff.Response, s.steps); err != nil {
			return err
		}
	}
	if s.meters[actor] != nil {
		s.meter(actor)
	}
	return nil
}

// meter refreshes the storage accounting for the metered server in a slot.
func (s *System) meter(slot int) {
	held := s.meters[slot].StorageBits()
	s.curTotalBits += held - s.curBits[slot]
	s.curBits[slot] = held
	if held > s.maxBits[slot] {
		s.maxBits[slot] = held
	}
	if s.curTotalBits > s.maxTotalBits {
		s.maxTotalBits = s.curTotalBits
	}
}

// StorageReport summarizes storage costs observed so far (running maxima, in
// bits), mirroring the paper's MaxStorage and TotalStorage definitions.
type StorageReport struct {
	// PerServerMaxBits maps each metered server to the maximum bits it held.
	PerServerMaxBits map[NodeID]int
	// MaxServerBits is the largest single-server maximum (MaxStorage).
	MaxServerBits int
	// MaxTotalBits is the maximum over time of the summed server storage
	// (TotalStorage).
	MaxTotalBits int
	// CurrentTotalBits is the summed server storage right now.
	CurrentTotalBits int
}

// Storage returns the storage report for the execution so far. A metered
// server appears in PerServerMaxBits once it has held a bit.
func (s *System) Storage() StorageReport {
	rep := StorageReport{
		PerServerMaxBits: make(map[NodeID]int),
		MaxTotalBits:     s.maxTotalBits,
		CurrentTotalBits: s.curTotalBits,
	}
	for slot, b := range s.maxBits {
		if b > 0 {
			rep.PerServerMaxBits[s.ids[slot]] = b
			rep.MaxServerBits = max(rep.MaxServerBits, b)
		}
	}
	return rep
}

// Snapshot captures a deep copy of the entire system state: node states,
// channel contents, failure flags, history and storage accounting. Restoring
// a snapshot yields an independent System that can be advanced without
// affecting the original — the forking primitive behind valency probes.
type Snapshot struct {
	sys *System
}

// Snapshot returns a snapshot of the current state.
func (s *System) Snapshot() *Snapshot {
	return &Snapshot{sys: s.cloneState()}
}

// Restore materializes an independent System from the snapshot. The snapshot
// remains valid and can be restored again.
func (sn *Snapshot) Restore() *System {
	return sn.sys.cloneState()
}

func (s *System) cloneState() *System {
	out := &System{
		slotOf:       slices.Clone(s.slotOf),
		ids:          slices.Clone(s.ids),
		sorted:       slices.Clone(s.sorted),
		nodes:        make([]Node, len(s.nodes)),
		server:       slices.Clone(s.server),
		crashed:      slices.Clone(s.crashed),
		silenced:     slices.Clone(s.silenced),
		meters:       make([]StorageMeter, len(s.meters)),
		curBits:      slices.Clone(s.curBits),
		maxBits:      slices.Clone(s.maxBits),
		steps:        s.steps,
		hist:         s.hist.clone(),
		chans:        make([]*channel, len(s.chans)),
		links:        make([]*channel, len(s.links)),
		stride:       s.stride,
		readySet:     make([]uint64, len(s.readySet)),
		faults:       s.faults, // plans are immutable, safe to share
		faultEvents:  s.faultEvents,
		faultEvIdx:   s.faultEvIdx,
		faultStats:   s.faultStats,
		nextSeq:      s.nextSeq,
		curTotalBits: s.curTotalBits,
		maxTotalBits: s.maxTotalBits,
	}
	for i, n := range s.nodes {
		out.nodes[i] = n.Clone()
		if s.meters[i] != nil {
			out.meters[i], _ = out.nodes[i].(StorageMeter)
		}
	}
	for i, ch := range s.chans {
		nc := &channel{key: ch.key, from: ch.from, to: ch.to, idx: i, frozen: ch.frozen}
		if len(ch.q) > 0 {
			nc.q = append([]queued(nil), ch.q...)
			for _, m := range nc.q {
				if p, ok := m.msg.Body.(Pooled); ok {
					p.Retain() // both systems' queues hold the message now
				}
			}
		}
		out.chans[i] = nc
		out.links[ch.from*s.stride+ch.to] = nc
	}
	out.rebuildWakes()
	return out
}
