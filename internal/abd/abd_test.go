package abd

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ioa"
	"repro/internal/register"
)

func deploy(t *testing.T, opts Options) *clusterT {
	t.Helper()
	c, err := Deploy(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &clusterT{c.Sys, c.Servers, c.Writers, c.Readers}
}

type clusterT struct {
	sys     *ioa.System
	servers []ioa.NodeID
	writers []ioa.NodeID
	readers []ioa.NodeID
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		n, f   int
		wantOK bool
	}{
		{5, 2, true},
		{3, 1, true},
		{1, 0, true},
		{4, 2, false}, // need N >= 2f+1
		{0, 0, false},
		{5, -1, false},
	}
	for _, tt := range tests {
		cfg := Config{Servers: make([]ioa.NodeID, tt.n), F: tt.f}
		err := cfg.Validate()
		if (err == nil) != tt.wantOK {
			t.Errorf("N=%d f=%d: err=%v wantOK=%v", tt.n, tt.f, err, tt.wantOK)
		}
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(Options{Servers: 3, F: 1, Writers: 0, Readers: 1}); err == nil {
		t.Error("zero writers should fail")
	}
	if _, err := Deploy(Options{Servers: 3, F: 1, Writers: 2, Readers: 1, MultiWriter: false}); err == nil {
		t.Error("SWMR with two writers should fail")
	}
	if _, err := Deploy(Options{Servers: 4, F: 2, Writers: 1, Readers: 1}); err == nil {
		t.Error("N < 2f+1 should fail")
	}
}

func TestWriteThenRead(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 2, Writers: 1, Readers: 1})
	v := []byte("value-1")
	if _, err := c.sys.RunOp(c.writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 10000); err != nil {
		t.Fatal(err)
	}
	op, err := c.sys.RunOp(c.readers[0], ioa.Invocation{Kind: ioa.OpRead}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(op.Output, v) {
		t.Fatalf("read %q, want %q", op.Output, v)
	}
}

func TestReadInitialValue(t *testing.T) {
	c := deploy(t, Options{Servers: 3, F: 1, Writers: 1, Readers: 1})
	op, err := c.sys.RunOp(c.readers[0], ioa.Invocation{Kind: ioa.OpRead}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if op.Output != nil {
		t.Fatalf("read %q, want initial nil", op.Output)
	}
}

func TestLivenessUnderFFailures(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 2, Writers: 1, Readers: 1})
	c.sys.Crash(c.servers[0])
	c.sys.Crash(c.servers[3])
	v := []byte("survives")
	if _, err := c.sys.RunOp(c.writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 10000); err != nil {
		t.Fatalf("write should terminate with f crashes: %v", err)
	}
	op, err := c.sys.RunOp(c.readers[0], ioa.Invocation{Kind: ioa.OpRead}, 10000)
	if err != nil {
		t.Fatalf("read should terminate with f crashes: %v", err)
	}
	if !bytes.Equal(op.Output, v) {
		t.Fatalf("read %q, want %q", op.Output, v)
	}
}

func TestMWMRTagOrdering(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 2, Writers: 3, Readers: 1, MultiWriter: true})
	for i, w := range c.writers {
		v := register.MakeValue(16, uint64(i+1))
		if _, err := c.sys.RunOp(w, ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 10000); err != nil {
			t.Fatal(err)
		}
	}
	// The last write must win.
	op, err := c.sys.RunOp(c.readers[0], ioa.Invocation{Kind: ioa.OpRead}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want := register.MakeValue(16, uint64(len(c.writers)))
	if !bytes.Equal(op.Output, want) {
		t.Fatalf("read %q, want value of last writer %q", op.Output, want)
	}
}

func TestSequentialHistoryAtomic(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 2, Writers: 1, Readers: 2})
	for i := 0; i < 5; i++ {
		v := register.MakeValue(16, uint64(i+1))
		if _, err := c.sys.RunOp(c.writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 10000); err != nil {
			t.Fatal(err)
		}
		r := c.readers[i%2]
		if _, err := c.sys.RunOp(r, ioa.Invocation{Kind: ioa.OpRead}, 10000); err != nil {
			t.Fatal(err)
		}
	}
	if err := consistency.CheckAtomic(c.sys.History(), nil); err != nil {
		t.Fatal(err)
	}
	if err := consistency.CheckRegular(c.sys.History(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRandomScheduleAtomic drives concurrent reads and writes
// under random schedules with crashes and checks atomicity of every
// resulting history.
func TestConcurrentRandomScheduleAtomic(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		c := deploy(t, Options{Servers: 5, F: 2, Writers: 2, Readers: 2, MultiWriter: true})
		rng := rand.New(rand.NewSource(seed))
		crashBudget := 2
		nextVal := uint64(0)
		// Interleave invocations and random deliveries.
		for step := 0; step < 2500; step++ {
			if rng.Intn(12) == 0 {
				// Try to invoke on a random idle client.
				all := append(append([]ioa.NodeID(nil), c.writers...), c.readers...)
				id := all[rng.Intn(len(all))]
				n, err := c.sys.Node(id)
				if err != nil {
					t.Fatal(err)
				}
				cl, ok := n.(ioa.Client)
				if !ok {
					t.Fatal("client expected")
				}
				if !cl.Busy() && !c.sys.Crashed(id) {
					inv := ioa.Invocation{Kind: ioa.OpRead}
					if id >= 101 && id < 200 {
						nextVal++
						inv = ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(16, nextVal)}
					}
					if _, err := c.sys.Invoke(id, inv); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if crashBudget > 0 && rng.Intn(400) == 0 {
				c.sys.Crash(c.servers[rng.Intn(len(c.servers))])
				crashBudget--
				continue
			}
			keys := c.sys.DeliverableChannels()
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			if err := c.sys.Deliver(k.From, k.To); err != nil {
				t.Fatal(err)
			}
		}
		// Let everything settle fairly; pending ops may remain if their
		// clients cannot reach a quorum (we crashed up to 2 of 5 servers,
		// so ops should finish).
		_ = c.sys.FairRun(100000, ioa.AllOpsDone)
		if err := consistency.CheckAtomic(c.sys.History(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStorageIsOneValuePlusTag(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 2, Writers: 1, Readers: 1})
	valueBytes := 128
	for i := 0; i < 6; i++ {
		v := register.MakeValue(valueBytes, uint64(i+1))
		if _, err := c.sys.RunOp(c.writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 10000); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.sys.Storage()
	wantPerServer := 8*valueBytes + (register.Tag{}).Bits()
	for id, bits := range rep.PerServerMaxBits {
		if bits != wantPerServer {
			t.Errorf("server %d: %d bits, want %d (one value + one tag, regardless of write count)", id, bits, wantPerServer)
		}
	}
	if rep.MaxTotalBits != 5*wantPerServer {
		t.Errorf("total %d bits, want %d", rep.MaxTotalBits, 5*wantPerServer)
	}
}

func TestWritePhaseIntrospection(t *testing.T) {
	c := deploy(t, Options{Servers: 3, F: 1, Writers: 1, Readers: 1, MultiWriter: true})
	n, err := c.sys.Node(c.writers[0])
	if err != nil {
		t.Fatal(err)
	}
	w, ok := n.(*Client)
	if !ok {
		t.Fatal("writer node is not *Client")
	}
	if ph, _ := w.WritePhase(); ph != 0 {
		t.Errorf("idle phase = %d, want 0", ph)
	}
	if _, err := c.sys.Invoke(c.writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	ph, vd := w.WritePhase()
	if ph != 1 || vd {
		t.Errorf("query phase = (%d,%v), want (1,false)", ph, vd)
	}
	// Deliver the queries, then exactly a quorum (N-f = 2) of acks so the
	// writer advances to — and stays in — the put phase.
	for _, s := range c.servers {
		if err := c.sys.Deliver(c.writers[0], s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.servers[:2] {
		if err := c.sys.Deliver(s, c.writers[0]); err != nil {
			t.Fatal(err)
		}
	}
	ph, vd = w.WritePhase()
	if ph != 2 || !vd {
		t.Errorf("put phase = (%d,%v), want (2,true)", ph, vd)
	}
}

func TestProfileSatisfiesTheorem65(t *testing.T) {
	for _, mw := range []bool{false, true} {
		cfg := Config{Servers: cluster5(), F: 2, MultiWriter: mw}
		p := Profile(cfg)
		if err := p.Theorem65Applies(); err != nil {
			t.Errorf("multiWriter=%v: ABD should satisfy Assumptions 1-3: %v", mw, err)
		}
		if got := p.ValueDependentPhases(); got != 1 {
			t.Errorf("multiWriter=%v: %d value-dependent phases, want 1", mw, got)
		}
	}
}

func cluster5() []ioa.NodeID {
	return []ioa.NodeID{1, 2, 3, 4, 5}
}

func TestServerDigestDistinguishesStates(t *testing.T) {
	s := NewServer(1)
	d0 := s.StateDigest()
	s.Deliver(100, &ioa.Msg{Kind: kindPut, RID: 1, Tag: register.Tag{Seq: 1, Writer: 100}, Body: register.WriteValue("a")})
	d1 := s.StateDigest()
	if d0 == d1 {
		t.Error("digest must change when state changes")
	}
	cl, ok := s.Clone().(*Server)
	if !ok {
		t.Fatal("clone type")
	}
	if cl.StateDigest() != d1 {
		t.Error("clone must preserve digest")
	}
}

func TestStaleAcksIgnored(t *testing.T) {
	// A client must ignore acks from a previous phase/request id.
	cfg := Config{Servers: cluster5(), F: 2}
	cl, err := NewClient(300, RoleReader, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Invoke(ioa.Invocation{Kind: ioa.OpRead})
	// Deliver a stale queryAck with wrong rid: no effect.
	eff := cl.Deliver(1, &ioa.Msg{Kind: kindQueryAck, RID: 999, Tag: register.Tag{Seq: 9, Writer: 1}, Body: register.Value("x")})
	if eff.Response != nil || len(eff.Sends) != 0 {
		t.Error("stale ack must have no effect")
	}
	if cl.bestTag.Seq != 0 {
		t.Error("stale ack must not update bestTag")
	}
	// putAck during query phase: ignored.
	eff = cl.Deliver(1, &ioa.Msg{Kind: kindPutAck, RID: cl.rid})
	if eff.Response != nil {
		t.Error("wrong-phase ack must be ignored")
	}
}

// TestStepAllocs bounds what a steady-state step allocates: every node
// reuses one outbox, which carves its messages from a slab, one allocation
// per 16 messages that AllocsPerRun's whole-number mean reads as 0, so a
// step allocates only the body it boxes. A server's put ack and a client's
// query broadcast are headers alone and allocate nothing; a query ack boxes
// the server's value, and a put phase its value once for all five servers.
func TestStepAllocs(t *testing.T) {
	s := NewServer(1)
	v := register.MakeValue(64, 1)
	for _, c := range []struct {
		m    ioa.Message
		want float64
	}{
		{&ioa.Msg{Kind: kindPut, RID: ridBase, Tag: register.Tag{Seq: 1, Writer: 300}, Body: register.WriteValue(v)}, 0},
		{&ioa.Msg{Kind: kindQuery, RID: ridBase + 1}, 1},
	} {
		deliver(s, 300, c.m) // the outbox grows once
		if got := testing.AllocsPerRun(100, func() { deliver(s, 300, c.m) }); got > c.want {
			t.Errorf("server Deliver(kind 0x%02x) allocates %.0f times, want at most %.0f", c.m.Kind, got, c.want)
		}
	}

	// A read starts with its query phase at Invoke: a header-only broadcast.
	cfg := Config{Servers: cluster5(), F: 2, MultiWriter: true}
	r, err := NewClient(301, RoleReader, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.rid = ridBase
	invoke(r, ioa.Invocation{Kind: ioa.OpRead}) // the outbox grows once
	if got := testing.AllocsPerRun(100, func() { invoke(r, ioa.Invocation{Kind: ioa.OpRead}) }); got != 0 {
		t.Errorf("a query phase start allocates %.0f times, want 0", got)
	}

	// An MWMR write starts its query phase at Invoke and its put phase at
	// the quorum's last ack: two phase starts per call. Each call's acks are
	// boxed beforehand, so the measurement holds only the client's own
	// allocations.
	c, err := NewClient(300, RoleWriter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	c.rid = ridBase
	acks := make([][]ioa.Message, runs+1) // AllocsPerRun calls once more to warm up
	for i := range acks {
		rid := ridBase + int64(2*i+1) // Invoke's query id; the put phase takes the next
		for j := 0; j < cfg.Quorum(); j++ {
			acks[i] = append(acks[i], &ioa.Msg{Kind: kindQueryAck, RID: rid, Tag: register.Tag{Seq: int64(i), Writer: 1}, Body: register.Value(v)})
		}
	}
	call := 0
	got := testing.AllocsPerRun(runs, func() {
		invoke(c, ioa.Invocation{Kind: ioa.OpWrite, Value: v})
		for j, a := range acks[call] {
			deliver(c, cfg.Servers[j], a)
		}
		call++
	})
	if c.phase != phasePut {
		t.Fatalf("the quorum's acks left the client in phase %d, want the put phase", c.phase)
	}
	if got > 1 {
		t.Errorf("a query and a put phase start allocate %.0f times, want only the put's value boxed", got)
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
