package ioa

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- naive reference implementations -------------------------------------
//
// These recompute scheduling decisions from the raw queues on every call,
// exactly as the pre-index kernel did. The differential tests drive the
// incremental kernel and this reference through identical schedules and
// assert identical decisions.

// naiveChan finds a channel by scanning the index for its key, bypassing the
// slot tables the kernel looks channels up through.
func naiveChan(s *System, from, to NodeID) *channel {
	for _, ch := range s.chans {
		if ch.key == (ChanKey{from, to}) {
			return ch
		}
	}
	return nil
}

// naiveCanDeliver mirrors the original CanDeliver: full queue scan for a
// ready message plus failure/silence/freeze/outage guards.
func naiveCanDeliver(s *System, from, to NodeID) bool {
	ch := naiveChan(s, from, to)
	if ch == nil || len(ch.q) == 0 || ch.frozen {
		return false
	}
	if s.Crashed(to) || s.Silenced(to) || s.Silenced(from) {
		return false
	}
	if s.linkBlocked(ch.key) {
		return false
	}
	for _, e := range ch.q {
		if e.readyAt <= s.steps {
			return true
		}
	}
	return false
}

// naiveDeliverables mirrors the original DeliverableChannels: scan every
// channel, filter by naiveCanDeliver, and sort (the index is kept sorted, so
// scanning it in order suffices for the reference too — the sortedness
// itself is asserted by CheckReadySetInvariants).
func naiveDeliverables(s *System) []ChanKey {
	var keys []ChanKey
	for _, ch := range s.chans {
		if naiveCanDeliver(s, ch.key.From, ch.key.To) {
			keys = append(keys, ch.key)
		}
	}
	return keys
}

// naiveFaultForwardTarget mirrors the original FaultForward candidate sweep:
// the earliest future node event, per-channel minimum readyAt, or next link
// change of a non-empty channel. It returns -1 when no candidate exists.
func naiveFaultForwardTarget(s *System) int {
	if s.faults == nil {
		return -1
	}
	target := -1
	consider := func(t int) {
		if t > s.steps && (target == -1 || t < target) {
			target = t
		}
	}
	for i := s.faultEvIdx; i < len(s.faultEvents); i++ {
		consider(s.faultEvents[i].Step)
	}
	for _, ch := range s.chans {
		if len(ch.q) == 0 {
			continue
		}
		minReady := ch.q[0].readyAt
		for _, e := range ch.q[1:] {
			if e.readyAt < minReady {
				minReady = e.readyAt
			}
		}
		consider(minReady)
		if t := s.faults.NextLinkChange(ch.key.From, ch.key.To, s.steps); t > 0 {
			consider(t)
		}
	}
	return target
}

// diffPlan is a deterministic in-package fault plan: seeded drops and
// delays, a periodic outage square wave on links into one node, and a
// crash/recover schedule. (The real plan library lives in internal/faults,
// which depends on this package.)
type diffPlan struct {
	seed        uint64
	dropMod     uint64 // drop when hash%dropMod == 0 (0 = never)
	delayMod    uint64 // delay hash%16 steps when hash%delayMod == 0
	outageTo    NodeID // links into this node suffer outages (0 = none)
	outageFrom  int    // outage window start
	outagePerio int    // window repeats every outagePerio steps, open half
	events      []NodeFaultEvent
}

func (p *diffPlan) hash(seq uint64, salt uint64) uint64 {
	z := p.seed ^ (seq+1)*0x9e3779b97f4a7c15 ^ salt*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *diffPlan) MessageFate(from, to NodeID, seq uint64, step int) (bool, int) {
	if p.dropMod > 0 && p.hash(seq, 1)%p.dropMod == 0 {
		return true, 0
	}
	if p.delayMod > 0 && p.hash(seq, 2)%p.delayMod == 0 {
		return false, int(p.hash(seq, 3)%16) + 1
	}
	return false, 0
}

func (p *diffPlan) inOutage(step int) bool {
	if p.outageTo == 0 || step < p.outageFrom {
		return false
	}
	return (step-p.outageFrom)/p.outagePerio%2 == 0
}

func (p *diffPlan) LinkBlocked(from, to NodeID, step int) bool {
	return to == p.outageTo && p.inOutage(step)
}

func (p *diffPlan) NextLinkChange(from, to NodeID, step int) int {
	if p.outageTo == 0 || to != p.outageTo {
		return -1
	}
	if step < p.outageFrom {
		return p.outageFrom
	}
	// Next square-wave boundary strictly after step.
	return p.outageFrom + ((step-p.outageFrom)/p.outagePerio+1)*p.outagePerio
}

func (p *diffPlan) NodeEvents() []NodeFaultEvent { return p.events }

// --- differential drivers -------------------------------------------------

// diffCheck asserts the incremental state matches the naive recomputation:
// the ready-set invariants, the deliverable list, the channel a random pick
// of each position selects, and the fault-forward target.
func diffCheck(t *testing.T, s *System, ctx string) {
	t.Helper()
	if err := s.CheckReadySetInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	naive := naiveDeliverables(s)
	fast := s.DeliverableChannels()
	if fmt.Sprint(naive) != fmt.Sprint(fast) {
		t.Fatalf("%s: deliverables mismatch\n naive: %v\n index: %v", ctx, naive, fast)
	}
	for n, k := range naive {
		if got := s.nthDeliverable(n); got == nil || got.key != k {
			t.Fatalf("%s: random pick %d selects %v, DeliverableChannels()[%d] = %v", ctx, n, got, n, k)
		}
	}
	if s.nthDeliverable(len(naive)) != nil {
		t.Fatalf("%s: random pick past the %d deliverable channels selects a channel", ctx, len(naive))
	}
	if len(fast) == 0 {
		// FaultForward is only invoked on idle systems; compare targets by
		// running the real one on a snapshot so the main system's step
		// counter is untouched.
		want := naiveFaultForwardTarget(s)
		probe := s.Snapshot().Restore()
		moved := probe.FaultForward()
		if want == -1 && moved {
			t.Fatalf("%s: FaultForward advanced to %d, naive sweep found no candidate", ctx, probe.Steps())
		}
		if want != -1 && (!moved || probe.Steps() != want) {
			t.Fatalf("%s: FaultForward moved=%t to step %d, naive target %d", ctx, moved, probe.Steps(), want)
		}
	}
}

// TestKernelDifferentialRandomSchedules drives mixed
// send/deliver/crash/recover/freeze/silence/fault schedules and, after every
// mutation, compares the incrementally maintained scheduler state against
// the naive full-rescan reference, including the delivery order actually
// chosen.
func TestKernelDifferentialRandomSchedules(t *testing.T) {
	plans := []FaultPlan{
		nil,
		&diffPlan{seed: 7, dropMod: 11, delayMod: 3},
		&diffPlan{
			seed: 9, delayMod: 2, outageTo: 2, outageFrom: 20, outagePerio: 60,
			events: []NodeFaultEvent{
				{Step: 25, Node: 3},
				{Step: 90, Node: 3, Recover: true},
			},
		},
	}
	for pi, plan := range plans {
		plan := plan
		t.Run(fmt.Sprintf("plan=%d", pi), func(t *testing.T) {
			const nServers, nClients = 4, 3
			sys := NewSystem()
			var servers []NodeID
			for i := 1; i <= nServers; i++ {
				id := NodeID(i)
				servers = append(servers, id)
				if err := sys.AddServer(&echoServer{id: id}); err != nil {
					t.Fatal(err)
				}
			}
			var clients []NodeID
			for i := 0; i < nClients; i++ {
				id := NodeID(100 + i)
				clients = append(clients, id)
				if err := sys.AddClient(&quorumClient{id: id, servers: servers, quorum: nServers}); err != nil {
					t.Fatal(err)
				}
			}
			sys.SetFaultPlan(plan)
			diffCheck(t, sys, "after SetFaultPlan")

			rng := rand.New(rand.NewSource(int64(41 + pi)))
			// DeliverRandom draws from pick; shadow replays the same draws
			// against the naive deliverable list.
			pick := rand.New(rand.NewSource(int64(7 + pi)))
			shadow := rand.New(rand.NewSource(int64(7 + pi)))
			var order []ChanKey // delivery order actually taken
			for it := 0; it < 1500; it++ {
				ctx := fmt.Sprintf("iter %d", it)
				switch r := rng.Intn(20); {
				case r == 0:
					id := clients[rng.Intn(len(clients))]
					if n, _ := sys.Node(id); !n.(Client).Busy() && !sys.Crashed(id) {
						if _, err := sys.Invoke(id, Invocation{Kind: OpWrite}); err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
					}
				case r == 1:
					id := servers[rng.Intn(len(servers))]
					if sys.Crashed(id) {
						sys.Recover(id)
					} else {
						sys.Crash(id)
					}
				case r == 2:
					from := servers[rng.Intn(len(servers))]
					to := clients[rng.Intn(len(clients))]
					if rng.Intn(2) == 0 {
						sys.Freeze(from, to)
					} else {
						sys.Unfreeze(from, to)
					}
				case r == 3:
					id := servers[rng.Intn(len(servers))]
					if sys.Silenced(id) {
						sys.Unsilence(id)
					} else {
						sys.Silence(id)
					}
				default:
					keys := sys.DeliverableChannels()
					if len(keys) == 0 {
						if !sys.FaultForward() {
							// Quiescent: unfreeze/unsilence/recover everything
							// so the run can keep exercising the kernel.
							for _, id := range servers {
								sys.Recover(id)
								sys.Unsilence(id)
							}
							for _, c := range clients {
								for _, sv := range servers {
									sys.Unfreeze(sv, c)
								}
							}
						}
						diffCheck(t, sys, ctx+" (idle)")
						continue
					}
					// A delivery sends nothing back on its own channel, so
					// the picked channel is the one whose queue shrinks.
					k := naiveDeliverables(sys)[shadow.Intn(len(keys))]
					before := sys.QueueLen(k.From, k.To)
					if ok, err := sys.DeliverRandom(pick); err != nil || !ok {
						t.Fatalf("%s: DeliverRandom = %t, %v", ctx, ok, err)
					}
					if after := sys.QueueLen(k.From, k.To); after != before-1 {
						t.Fatalf("%s: DeliverRandom left %v at %d messages (was %d), want the naive pick delivered", ctx, k, after, before)
					}
					order = append(order, k)
				}
				diffCheck(t, sys, ctx)
			}
			if len(order) == 0 {
				t.Fatal("differential run delivered nothing")
			}
		})
	}
}

// TestKernelDifferentialFairRunOrder replays a fair run against a snapshot
// driven purely by the naive reference and asserts the two kernels deliver
// the same messages in the same order.
func TestKernelDifferentialFairRunOrder(t *testing.T) {
	build := func() *System {
		sys := NewSystem()
		var servers []NodeID
		for i := 1; i <= 5; i++ {
			id := NodeID(i)
			servers = append(servers, id)
			if err := sys.AddServer(&echoServer{id: id}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			id := NodeID(100 + i)
			if err := sys.AddClient(&quorumClient{id: id, servers: servers, quorum: 3}); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Invoke(id, Invocation{Kind: OpWrite}); err != nil {
				t.Fatal(err)
			}
		}
		sys.SetFaultPlan(&diffPlan{
			seed: 3, delayMod: 2, outageTo: 1, outageFrom: 10, outagePerio: 25,
			events: []NodeFaultEvent{{Step: 12, Node: 4}, {Step: 40, Node: 4, Recover: true}},
		})
		return sys
	}

	fast := build()
	ref := build()
	const budget = 400
	var fastOrder, refOrder []ChanKey

	// Fast kernel: FairRun's own sweep logic, recording deliveries.
	for len(fastOrder) < budget {
		keys := fast.DeliverableChannels()
		if len(keys) == 0 {
			if fast.FaultForward() {
				continue
			}
			break
		}
		for _, k := range keys {
			if !fast.CanDeliver(k.From, k.To) {
				continue
			}
			if err := fast.Deliver(k.From, k.To); err != nil {
				t.Fatal(err)
			}
			fastOrder = append(fastOrder, k)
			if len(fastOrder) >= budget {
				break
			}
		}
	}
	// Reference kernel: identical loop shape, every decision recomputed
	// naively from the raw queues.
	for len(refOrder) < budget {
		keys := naiveDeliverables(ref)
		if len(keys) == 0 {
			target := naiveFaultForwardTarget(ref)
			if target == -1 {
				break
			}
			if !ref.FaultForward() || ref.Steps() != target {
				t.Fatalf("reference FaultForward disagrees with naive target %d (steps %d)", target, ref.Steps())
			}
			continue
		}
		for _, k := range keys {
			if !naiveCanDeliver(ref, k.From, k.To) {
				continue
			}
			if err := ref.Deliver(k.From, k.To); err != nil {
				t.Fatal(err)
			}
			refOrder = append(refOrder, k)
			if len(refOrder) >= budget {
				break
			}
		}
	}

	if len(fastOrder) != len(refOrder) {
		t.Fatalf("delivery counts differ: fast %d, reference %d", len(fastOrder), len(refOrder))
	}
	for i := range fastOrder {
		if fastOrder[i] != refOrder[i] {
			t.Fatalf("delivery %d differs: fast %v, reference %v", i, fastOrder[i], refOrder[i])
		}
	}
	if len(fastOrder) == 0 {
		t.Fatal("differential fair run delivered nothing")
	}
}

// deliveryLog is the order in which a system's nodes received messages; the
// logged toy nodes append to it, so a test reads the exact schedule a
// scheduler chose.
type deliveryLog []ChanKey

type loggedServer struct {
	*echoServer
	log *deliveryLog
}

func (s loggedServer) Deliver(from NodeID, msg Message) Effects {
	*s.log = append(*s.log, ChanKey{from, s.id})
	return s.echoServer.Deliver(from, msg)
}

func (s loggedServer) Clone() Node { return loggedServer{s.echoServer.Clone().(*echoServer), s.log} }

type loggedClient struct {
	*quorumClient
	log *deliveryLog
}

func (c loggedClient) Deliver(from NodeID, msg Message) Effects {
	*c.log = append(*c.log, ChanKey{from, c.id})
	return c.quorumClient.Deliver(from, msg)
}

func (c loggedClient) Clone() Node {
	return loggedClient{c.quorumClient.Clone().(*quorumClient), c.log}
}

// TestKernelSweepOrder runs FairRun, Stepper and DrainMatching and, on a
// twin system, the same schedule recomputed from naive rescans, and requires
// the identical delivery sequence: the ready bitset must sweep in (From, To)
// order exactly as the flag scan did.
func TestKernelSweepOrder(t *testing.T) {
	build := func(log *deliveryLog) *System {
		sys := NewSystem()
		var servers []NodeID
		for i := 1; i <= 5; i++ {
			id := NodeID(i)
			servers = append(servers, id)
			if err := sys.AddServer(loggedServer{&echoServer{id: id}, log}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			id := NodeID(100 + i)
			if err := sys.AddClient(loggedClient{&quorumClient{id: id, servers: servers, quorum: 3}, log}); err != nil {
				t.Fatal(err)
			}
		}
		sys.SetFaultPlan(&diffPlan{
			seed: 5, delayMod: 3, outageTo: 2, outageFrom: 8, outagePerio: 30,
			events: []NodeFaultEvent{{Step: 15, Node: 4}, {Step: 70, Node: 4, Recover: true}},
		})
		return sys
	}
	// invokeIdle starts a write at every idle client, so the runs keep going.
	invokeIdle := func(sys *System) {
		for i := 0; i < 3; i++ {
			id := NodeID(100 + i)
			if n, _ := sys.Node(id); !n.(Client).Busy() {
				if _, err := sys.Invoke(id, Invocation{Kind: OpWrite}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	toServers := func(from, to NodeID) bool { return to < 100 }
	const rounds, budget = 6, 40
	schedulers := []struct {
		name      string
		fast, ref func(sys *System, st *Stepper) error
	}{
		{
			name: "FairRun",
			fast: func(sys *System, _ *Stepper) error {
				if err := sys.FairRun(budget, nil); err != ErrStepLimit && err != ErrQuiescent {
					return err
				}
				return nil
			},
			ref: func(sys *System, _ *Stepper) error {
				for delivered := 0; delivered < budget; {
					keys := naiveDeliverables(sys)
					if len(keys) == 0 {
						if !sys.FaultForward() {
							return nil
						}
						continue
					}
					for _, k := range keys {
						if !naiveCanDeliver(sys, k.From, k.To) {
							continue
						}
						if err := sys.Deliver(k.From, k.To); err != nil {
							return err
						}
						if delivered++; delivered >= budget {
							break
						}
					}
				}
				return nil
			},
		},
		{
			name: "Stepper",
			fast: func(_ *System, st *Stepper) error {
				for i := 0; i < budget; i++ {
					if ok, err := st.Step(); !ok || err != nil {
						return err
					}
				}
				return nil
			},
			ref: func(sys *System, st *Stepper) error {
				for i := 0; i < budget; i++ {
					keys := naiveDeliverables(sys)
					for len(keys) == 0 {
						if !sys.FaultForward() {
							return nil
						}
						keys = naiveDeliverables(sys)
					}
					pick := keys[0]
					if st.init {
						for _, k := range keys {
							if k.From > st.last.From || (k.From == st.last.From && k.To > st.last.To) {
								pick = k
								break
							}
						}
					}
					st.init, st.last = true, pick
					if err := sys.Deliver(pick.From, pick.To); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name: "DrainMatching",
			fast: func(sys *System, _ *Stepper) error {
				if _, err := sys.DrainMatching(budget, toServers); err != nil && err != ErrStepLimit {
					return err
				}
				return nil
			},
			ref: func(sys *System, _ *Stepper) error {
				for delivered := 0; ; {
					progressed := false
					for _, k := range naiveDeliverables(sys) {
						if !toServers(k.From, k.To) || !naiveCanDeliver(sys, k.From, k.To) {
							continue
						}
						if err := sys.Deliver(k.From, k.To); err != nil {
							return err
						}
						progressed = true
						if delivered++; delivered >= budget {
							return nil
						}
					}
					if !progressed && !sys.FaultForward() {
						return nil
					}
				}
			},
		},
	}
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			var fastLog, refLog deliveryLog
			fast, ref := build(&fastLog), build(&refLog)
			fastSt, refSt := NewStepper(fast), NewStepper(ref)
			for r := 0; r < rounds; r++ {
				invokeIdle(fast)
				invokeIdle(ref)
				if err := sc.fast(fast, fastSt); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if err := sc.ref(ref, refSt); err != nil {
					t.Fatalf("round %d, reference: %v", r, err)
				}
				if err := fast.CheckReadySetInvariants(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
			if len(fastLog) == 0 || fmt.Sprint(fastLog) != fmt.Sprint(refLog) {
				t.Fatalf("delivery order differs (%d vs %d deliveries):\n fast %v\n  ref %v", len(fastLog), len(refLog), fastLog, refLog)
			}
		})
	}
}
