package coded

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/register"
)

func TestConfigValidate(t *testing.T) {
	mk := func(n int) []ioa.NodeID {
		out := make([]ioa.NodeID, n)
		for i := range out {
			out[i] = ioa.NodeID(i + 1)
		}
		return out
	}
	if err := (Config{Servers: mk(5), F: 2}).Validate(); err != nil {
		t.Errorf("N=5 f=2 should be valid: %v", err)
	}
	if err := (Config{Servers: mk(4), F: 2}).Validate(); err == nil {
		t.Error("N=4 f=2 leaves k=0, should fail")
	}
	if err := (Config{Servers: nil, F: 0}).Validate(); err == nil {
		t.Error("empty server set should fail")
	}
	if err := (SoloConfig{Servers: mk(3), F: 3}).Validate(); err == nil {
		t.Error("solo with f=N should fail")
	}
}

func TestTwoVersionWriteRead(t *testing.T) {
	c, err := Deploy(Options{Servers: 7, F: 2, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := register.MakeValue(128, 1)
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
		t.Fatal(err)
	}
	op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, v) {
		t.Fatalf("read %q, want %q", op.Output, v)
	}
}

func TestTwoVersionInitialRead(t *testing.T) {
	c, err := Deploy(Options{Servers: 5, F: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if op.Output != nil {
		t.Fatalf("read %q, want nil (initial)", op.Output)
	}
}

func TestTwoVersionLivenessUnderCrashes(t *testing.T) {
	c, err := Deploy(Options{Servers: 7, F: 2, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Sys.Crash(c.Servers[0])
	c.Sys.Crash(c.Servers[4])
	var last []byte
	for i := 0; i < 3; i++ {
		last = register.MakeValue(96, uint64(i+1))
		if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: last}, 100000); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, last) {
		t.Fatalf("read %q, want %q", op.Output, last)
	}
}

// TestTwoVersionReadWithSilencedWriter reproduces the valency-probe
// scenario of the Theorem 4.1 proof: mid-write, the writer is silenced and a
// read must still terminate, returning the old or the new value.
func TestTwoVersionReadWithSilencedWriter(t *testing.T) {
	for cut := 1; cut < 40; cut += 3 {
		c, err := Deploy(Options{Servers: 5, F: 1, Readers: 1})
		if err != nil {
			t.Fatal(err)
		}
		v1 := register.MakeValue(64, 1)
		v2 := register.MakeValue(64, 2)
		if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v1}, 100000); err != nil {
			t.Fatal(err)
		}
		// Start the second write and advance exactly `cut` deliveries.
		id2, err := c.Sys.Invoke(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v2})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Sys.FairRun(cut, ioa.OpDone(id2))
		if err != nil && !errors.Is(err, ioa.ErrStepLimit) {
			t.Fatal(err)
		}
		c.Sys.Silence(c.Writers[0])
		op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
		if err != nil {
			t.Fatalf("cut=%d: read must terminate with silenced writer: %v", cut, err)
		}
		if !bytes.Equal(op.Output, v1) && !bytes.Equal(op.Output, v2) {
			t.Fatalf("cut=%d: read %q, want v1 or v2", cut, op.Output)
		}
	}
}

func TestTwoVersionRegularUnderRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c, err := Deploy(Options{Servers: 5, F: 2, Readers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sys := c.Sys
		rng := rand.New(rand.NewSource(seed))
		crashBudget := 2
		nextVal := uint64(0)
		for step := 0; step < 2500; step++ {
			if rng.Intn(10) == 0 {
				id := c.Writers[0]
				if rng.Intn(2) == 0 {
					id = c.Readers[0]
				}
				n, err := sys.Node(id)
				if err != nil {
					t.Fatal(err)
				}
				cl := n.(ioa.Client)
				if !cl.Busy() && !sys.Crashed(id) {
					inv := ioa.Invocation{Kind: ioa.OpRead}
					if id == c.Writers[0] {
						nextVal++
						inv = ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(32, nextVal)}
					}
					if _, err := sys.Invoke(id, inv); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if crashBudget > 0 && rng.Intn(600) == 0 {
				sys.Crash(c.Servers[rng.Intn(len(c.Servers))])
				crashBudget--
				continue
			}
			keys := sys.DeliverableChannels()
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			if err := sys.Deliver(k.From, k.To); err != nil {
				t.Fatal(err)
			}
		}
		_ = sys.FairRun(200000, ioa.AllOpsDone)
		if err := consistency.CheckRegular(sys.History(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTwoVersionStorageBound checks the headline property: total storage is
// ~2N/(N-2f)·log2|V| bits, independent of how many writes are performed.
func TestTwoVersionStorageBound(t *testing.T) {
	n, f := 9, 2
	k := n - 2*f // 5
	c, err := Deploy(Options{Servers: n, F: f, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	valBytes := 1 << 12
	for i := 0; i < 6; i++ {
		v := register.MakeValue(valBytes, uint64(i+1))
		if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 1000000); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.Sys.Storage()
	valueBits := 8 * valBytes
	want := 2 * n * valueBits / k
	slack := n * 512 // tags + shard padding
	if rep.MaxTotalBits > want+slack {
		t.Errorf("total storage %d bits exceeds 2N/(N-2f)·log|V| = %d (+%d slack)", rep.MaxTotalBits, want, slack)
	}
	if rep.MaxTotalBits < want/2 {
		t.Errorf("total storage %d bits implausibly small (want ~%d)", rep.MaxTotalBits, want)
	}
}

func TestTwoVersionProfile(t *testing.T) {
	cfg := Config{Servers: []ioa.NodeID{1, 2, 3, 4, 5}, F: 2}
	p := Profile(cfg)
	if err := p.Theorem65Applies(); err != nil {
		t.Errorf("two-version register should satisfy Assumptions 1-3: %v", err)
	}
	if p.ValueDependentPhases() != 1 {
		t.Errorf("want exactly 1 value-dependent phase")
	}
}

// --- Solo register (Theorem B.1 tightness) ---

func TestSoloMeetsSingletonBound(t *testing.T) {
	// In a failure-free solo execution the Solo register's steady-state
	// storage is N/(N-f)·log2|V| + metadata: the Theorem B.1 bound is tight.
	n, f := 8, 2
	c, err := DeploySolo(Options{Servers: n, F: f, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	valBytes := 1 << 12
	v := register.MakeValue(valBytes, 1)
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
		t.Fatal(err)
	}
	op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, v) {
		t.Fatalf("read %q, want %q", op.Output, v)
	}
	rep := c.Sys.Storage()
	valueBits := 8 * valBytes
	singleton := n * valueBits / (n - f)
	slack := n * 256
	if rep.CurrentTotalBits > singleton+slack {
		t.Errorf("solo storage %d bits, want ~Singleton bound %d", rep.CurrentTotalBits, singleton)
	}
	if rep.CurrentTotalBits < singleton {
		t.Errorf("solo storage %d bits below the Singleton bound %d: impossible", rep.CurrentTotalBits, singleton)
	}
}

func TestSoloSurvivesInitialFailures(t *testing.T) {
	// The Theorem B.1 execution family: f servers fail at the beginning,
	// then a write and a read happen. The Solo register handles exactly
	// this.
	n, f := 8, 2
	c, err := DeploySolo(Options{Servers: n, F: f, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Sys.Crash(c.Servers[0])
	c.Sys.Crash(c.Servers[5])
	v := register.MakeValue(64, 7)
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
		t.Fatal(err)
	}
	op, err := c.Sys.RunOp(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, v) {
		t.Fatalf("read %q, want %q", op.Output, v)
	}
}

func TestSoloDiesOnLateFailure(t *testing.T) {
	// The flip side: k = N-f cannot tolerate asynchrony plus a failure
	// AFTER the write. Delay the write's coded elements to two servers
	// indefinitely (legal in an asynchronous network), so the write
	// completes with exactly k = N-f shards placed; then crash one holder.
	// Only k-1 shards remain reachable and the read retries forever. This
	// is why the Singleton bound is unattainable by a fault-tolerant
	// emulation and why the paper's stronger bounds exist.
	n, f := 8, 2
	c, err := DeploySolo(Options{Servers: n, F: f, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Sys.Freeze(c.Writers[0], c.Servers[6])
	c.Sys.Freeze(c.Writers[0], c.Servers[7])
	v := register.MakeValue(64, 7)
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
		t.Fatal(err)
	}
	c.Sys.Crash(c.Servers[0]) // holds one of the exactly-k placed shards
	id, err := c.Sys.Invoke(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Sys.FairRun(20000, ioa.OpDone(id))
	if err == nil {
		t.Fatal("read should not terminate: only k-1 shards are reachable")
	}
}

func TestSoloReadReturnsHighestTag(t *testing.T) {
	// N=5, f=1, k=4. Write v2 completes on servers 1-4 while its element to
	// server 5 is still in flight. A read answered by servers 2-5 finds v2
	// on three elements and v1 on four (three previous slots plus server
	// 5's current one); returning v1 would be stale, since v2 completed
	// before the read began. The read must wait for v2 instead.
	c, err := DeploySolo(Options{Servers: 5, F: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := register.MakeValue(64, 1), register.MakeValue(64, 2)
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v1}, 100000); err != nil {
		t.Fatal(err)
	}
	c.Sys.Freeze(c.Writers[0], c.Servers[4])
	if _, err := c.Sys.RunOp(c.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v2}, 100000); err != nil {
		t.Fatal(err)
	}
	c.Sys.Freeze(c.Readers[0], c.Servers[0])
	id, err := c.Sys.Invoke(c.Readers[0], ioa.Invocation{Kind: ioa.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds answered by servers 2-5 alone; then v2 reaches server 5.
	if err := c.Sys.FairRun(200, ioa.OpDone(id)); err != nil && !errors.Is(err, ioa.ErrStepLimit) {
		t.Fatal(err)
	}
	c.Sys.Unfreeze(c.Writers[0], c.Servers[4])
	if err := c.Sys.FairRun(100000, ioa.OpDone(id)); err != nil {
		t.Fatal(err)
	}
	op, err := c.Sys.History().OpByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, v2) {
		t.Fatalf("read did not return v2 (returned v1: %v)", bytes.Equal(op.Output, v1))
	}
}

func TestSoloProfileSinglePhase(t *testing.T) {
	cfg := SoloConfig{Servers: []ioa.NodeID{1, 2, 3}, F: 1}
	p := SoloProfile(cfg)
	if err := p.Theorem65Applies(); err != nil {
		t.Errorf("solo register should satisfy Assumptions 1-3: %v", err)
	}
	if len(p.Phases) != 1 {
		t.Errorf("solo register should have exactly one phase")
	}
}

func TestServerDigests(t *testing.T) {
	s := NewServer(1)
	d0 := s.StateDigest()
	s.Deliver(100, &ioa.Msg{Kind: kindW1, RID: 1, Tag: register.Tag{Seq: 1, Writer: 100}, Body: register.WriteElement{Shard: shardOf(t, []byte("x"))}})
	d1 := s.StateDigest()
	if d0 == d1 {
		t.Error("digest must change after W1")
	}
	s.Deliver(100, &ioa.Msg{Kind: kindW2, RID: 2, Tag: register.Tag{Seq: 1, Writer: 100}})
	d2 := s.StateDigest()
	if d1 == d2 {
		t.Error("digest must change after W2 promotion")
	}
	solo := NewSoloServer(2)
	e0 := solo.StateDigest()
	solo.Deliver(100, &ioa.Msg{Kind: kindW1, RID: 1, Tag: register.Tag{Seq: 1, Writer: 100}, Body: register.WriteElement{Shard: shardOf(t, []byte("y"))}})
	if solo.StateDigest() == e0 {
		t.Error("solo digest must change after W1")
	}
}

func shardOf(t *testing.T, v []byte) erasure.Shard {
	t.Helper()
	return erasure.Shard{Index: 0, Data: v}
}

// TestStepAllocs bounds what a steady-state step allocates: an outbox carves
// its messages from a slab, one allocation per 16 messages that
// AllocsPerRun's whole-number mean reads as 0, so a server's W1 and W2 acks
// and a gossip server's finalization notes, headers alone, allocate nothing,
// and neither does the writer's W2 broadcast: a write allocates only its W1
// bodies and their coded elements.
func TestStepAllocs(t *testing.T) {
	cfg := Config{Servers: []ioa.NodeID{1, 2, 3, 4, 5}, F: 1}
	tag := register.Tag{Seq: 1, Writer: 100}
	w1 := &ioa.Msg{Kind: kindW1, RID: ridBase, Tag: tag, Body: register.WriteElement{Shard: shardOf(t, []byte("x"))}}
	w2 := &ioa.Msg{Kind: kindW2, RID: ridBase + 1, Tag: tag}
	for _, s := range []ioa.Node{NewServer(1), NewSoloServer(1), NewGossipServer(1, []ioa.NodeID{2, 3, 4, 5})} {
		for _, m := range []ioa.Message{w1, w2} {
			deliver(s, 100, m) // the outbox grows once
			if got := testing.AllocsPerRun(100, func() { deliver(s, 100, m) }); got != 0 {
				t.Errorf("%T.Deliver(kind 0x%02x) allocates %.0f times, want 0", s, m.Kind, got)
			}
		}
	}

	w, err := NewWriter(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := register.MakeValue(1024, 1)
	n := len(cfg.Servers)
	encode := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i++ {
			w.code.EncodeOne(v, i)
		}
	})
	// Each call's acks are built beforehand, so the measurement holds only
	// the writer's own allocations.
	const runs = 100
	w.rid = ridBase
	acks := make([]ioa.Message, runs+1) // AllocsPerRun calls once more to warm up
	for i := range acks {
		acks[i] = &ioa.Msg{Kind: kindW1Ack, RID: ridBase + int64(2*i+1)} // Invoke's W1 id; W2 takes the next
	}
	call := 0
	got := testing.AllocsPerRun(runs, func() {
		invoke(w, ioa.Invocation{Kind: ioa.OpWrite, Value: v})
		for j := 0; j < cfg.Quorum(); j++ {
			deliver(w, cfg.Servers[j], acks[call])
		}
		call++
	})
	if w.phase != phaseW2 {
		t.Fatalf("the quorum's acks left the writer in phase %d, want W2", w.phase)
	}
	if want := float64(n) + encode; got > want {
		t.Errorf("a W1 and a W2 phase start allocate %.0f times, want at most %.0f: %d W1 bodies and their elements (%.0f allocations)",
			got, want, n, encode)
	}
}

// ridBase starts the request ids a test measures past 255: Go boxes an
// integer-sized value below 256 without allocating, so a small id would
// hide what boxing a message costs.
const ridBase = 1 << 20

// deliver and invoke step a node through its interface, as the kernel does:
// out of line, so the compiler cannot keep a step's sends on the test's
// stack.
//
//go:noinline
func deliver(n ioa.Node, from ioa.NodeID, m ioa.Message) ioa.Effects { return n.Deliver(from, m) }

//go:noinline
func invoke(c ioa.Client, inv ioa.Invocation) ioa.Effects { return c.Invoke(inv) }
