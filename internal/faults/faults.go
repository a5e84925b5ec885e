// Package faults builds deterministic, seeded fault plans for the simulation
// kernel: message drops, bounded per-message delays (which reorder links),
// link outages/partitions between node sets, and scheduled server crashes
// with optional recovery. A Plan implements ioa.FaultPlan and is installed on
// a system with System.SetFaultPlan; every decision it makes is a pure
// function of (plan seed, message sequence number, step), so the same seeded
// schedule under the same plan replays byte-identically — the determinism
// contract the sharded store's fingerprints rely on (DESIGN.md section 6).
//
// The paper's lower bounds (Theorems 4.1, 5.1, 6.5) are driven by exactly
// these behaviors: servers must store enough because messages may be delayed
// indefinitely or never arrive, and algorithms must survive f crashed
// servers. A fault plan turns those adversarial possibilities into concrete,
// replayable scenarios that stress the f-tolerance claims of ABD and
// CAS/CASGC.
package faults

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ioa"
)

// ErrUnsupported marks a fault-plan feature the selected execution backend
// genuinely cannot execute — today, scheduled recovery of a client, whose
// pending operation dies with the crash. Backends wrap it so
// callers branch with errors.Is(err, faults.ErrUnsupported) instead of
// matching message text. (The wall-clock backends used to reject every
// outage and crash schedule as "step-indexed and simulator-only"; those now
// run everywhere — see internal/faults/wallclock.go and MIGRATION.md.)
var ErrUnsupported = errors.New("faults: plan unsupported on this backend")

// NodeSet selects nodes for a rule or outage. A nil NodeSet matches every
// node; otherwise the set matches exactly the listed ids.
type NodeSet []ioa.NodeID

// Has reports whether the set matches the node.
func (s NodeSet) Has(id ioa.NodeID) bool {
	if s == nil {
		return true
	}
	for _, n := range s {
		if n == id {
			return true
		}
	}
	return false
}

// Rule applies message drops and delays on the links it matches. Every
// matching rule contributes to a message's fate: the message is dropped if
// any matching rule's draw says drop, and otherwise accumulates the delay of
// every matching rule — so composed scenarios (a lossy network that is also
// slow) overlay rather than shadow each other.
type Rule struct {
	// From and To select the links the rule governs (nil = any node).
	From, To NodeSet
	// DropProb is the probability a matched message is dropped at send time.
	DropProb float64
	// DelayMin and DelayMax bound the uniform per-message delivery delay in
	// steps for messages that are not dropped. Unequal delays reorder the
	// link, modeling the paper's unordered asynchronous channels.
	DelayMin, DelayMax int
}

// Outage blocks delivery on matched links during [Start, End). Messages are
// held in the channel, not dropped, and flow again when the window closes —
// the "partition then heal" behavior.
type Outage struct {
	From, To NodeSet
	// Start and End delimit the outage window in kernel steps.
	Start, End int
	// Symmetric also blocks the reverse direction (To -> From).
	Symmetric bool
}

func (o Outage) active(step int) bool { return step >= o.Start && step < o.End }

func (o Outage) covers(from, to ioa.NodeID) bool {
	if o.From.Has(from) && o.To.Has(to) {
		return true
	}
	return o.Symmetric && o.From.Has(to) && o.To.Has(from)
}

// Crash schedules a node crash at Step, with an optional recovery.
type Crash struct {
	Node ioa.NodeID
	Step int
	// RecoverStep, when positive, revives the node at that step with its
	// state intact (crash-recovery). Zero means the node stays down, the
	// paper's permanent-crash model.
	RecoverStep int
}

// Plan is a deterministic fault schedule. Plans are immutable once installed
// on a system; Build-ing scenario values is the usual way to obtain one.
type Plan struct {
	// Seed drives every probabilistic decision (drops, delay draws).
	Seed int64
	// Rules all overlay per sent message (any drop wins, delays add).
	Rules []Rule
	// Outages are link blackout windows; any active matching outage blocks
	// the link.
	Outages []Outage
	// Crashes is the node crash/recovery schedule.
	Crashes []Crash
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if r.DropProb < 0 || r.DropProb > 1 {
			return fmt.Errorf("faults: rule %d drop probability %v outside [0,1]", i, r.DropProb)
		}
		if r.DelayMin < 0 || r.DelayMax < r.DelayMin {
			return fmt.Errorf("faults: rule %d delay range [%d,%d] invalid", i, r.DelayMin, r.DelayMax)
		}
	}
	for i, o := range p.Outages {
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("faults: outage %d window [%d,%d) invalid", i, o.Start, o.End)
		}
	}
	for i, c := range p.Crashes {
		if c.Step < 0 {
			return fmt.Errorf("faults: crash %d at negative step %d", i, c.Step)
		}
		if c.RecoverStep != 0 && c.RecoverStep <= c.Step {
			return fmt.Errorf("faults: crash %d recovery step %d not after crash step %d", i, c.RecoverStep, c.Step)
		}
	}
	return nil
}

// Merge returns a plan combining p's and q's rules, outages and crashes;
// all of them overlay (see Rule). The merged plan keeps p's seed.
func (p *Plan) Merge(q *Plan) *Plan {
	if q == nil {
		return p
	}
	return &Plan{
		Seed:    p.Seed,
		Rules:   append(append([]Rule(nil), p.Rules...), q.Rules...),
		Outages: append(append([]Outage(nil), p.Outages...), q.Outages...),
		Crashes: append(append([]Crash(nil), p.Crashes...), q.Crashes...),
	}
}

// MessageFate implements ioa.FaultPlan: every matching rule contributes —
// the message is dropped if any matching rule's draw says so, and otherwise
// its delays accumulate. Each decision hashes (seed, seq, rule index) so it
// is independent of wall time, worker count and map order.
func (p *Plan) MessageFate(from, to ioa.NodeID, seq uint64, step int) (bool, int) {
	delay := 0
	for i := range p.Rules {
		r := &p.Rules[i]
		if !r.From.Has(from) || !r.To.Has(to) {
			continue
		}
		h := mix64(mix64(uint64(p.Seed), seq), uint64(i))
		if r.DropProb > 0 && unitFloat(h) < r.DropProb {
			return true, 0
		}
		if r.DelayMax > 0 {
			span := uint64(r.DelayMax - r.DelayMin + 1)
			delay += r.DelayMin + int(mix64(h, 0xd1b54a32d192ed03)%span)
		}
	}
	return false, delay
}

// LinkBlocked implements ioa.FaultPlan.
func (p *Plan) LinkBlocked(from, to ioa.NodeID, step int) bool {
	for i := range p.Outages {
		if p.Outages[i].active(step) && p.Outages[i].covers(from, to) {
			return true
		}
	}
	return false
}

// NextLinkChange implements ioa.FaultPlan: the earliest future boundary
// (start or end) of any outage covering the link, or -1.
func (p *Plan) NextLinkChange(from, to ioa.NodeID, step int) int {
	next := -1
	consider := func(t int) {
		if t > step && (next == -1 || t < next) {
			next = t
		}
	}
	for i := range p.Outages {
		o := &p.Outages[i]
		if !o.covers(from, to) {
			continue
		}
		consider(o.Start)
		consider(o.End)
	}
	return next
}

// RecoveredNodes returns the nodes the plan schedules a recovery for,
// deduplicated, in schedule order. Wall-clock backends use it to verify
// every such node is a server, and to give each a durable image, before the
// run starts.
func (p *Plan) RecoveredNodes() []ioa.NodeID {
	var out []ioa.NodeID
	seen := make(map[ioa.NodeID]bool)
	for _, c := range p.Crashes {
		if c.RecoverStep > 0 && !seen[c.Node] {
			seen[c.Node] = true
			out = append(out, c.Node)
		}
	}
	return out
}

// NodeEvents implements ioa.FaultPlan.
func (p *Plan) NodeEvents() []ioa.NodeFaultEvent {
	events := make([]ioa.NodeFaultEvent, 0, 2*len(p.Crashes))
	for _, c := range p.Crashes {
		events = append(events, ioa.NodeFaultEvent{Step: c.Step, Node: c.Node})
		if c.RecoverStep > 0 {
			events = append(events, ioa.NodeFaultEvent{Step: c.RecoverStep, Node: c.Node, Recover: true})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	return events
}

// mix64 is a splitmix64-style finalizer combining two words into a
// well-distributed hash; it is the source of every seeded fault decision.
func mix64(a, b uint64) uint64 {
	z := a ^ (b+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }
