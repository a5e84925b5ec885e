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

	// A quorum of agreeing acks ends the read in one round trip. The
	// quorum's late members, and replies carrying the next op's id, find
	// the client idle and change nothing.
	tag := register.Tag{Seq: 1, Writer: 101}
	ack := func(rid int64) *ioa.Msg {
		return &ioa.Msg{Kind: kindQueryAck, RID: rid, Tag: tag, Body: register.Value("v1")}
	}
	rid := cl.rid
	for i, s := range cfg.Servers[:cfg.Quorum()] {
		eff = cl.Deliver(s, ack(rid))
		if last := i == cfg.Quorum()-1; (eff.Response != nil) != last {
			t.Fatalf("query ack %d: response %v, want one at the quorum's last ack only", i+1, eff.Response)
		}
	}
	for _, m := range []*ioa.Msg{
		ack(rid), // the 4th and 5th query acks of the finished read
		ack(rid),
		ack(rid + 1), // replies no request of the next op has asked for yet
		{Kind: kindPutAck, RID: rid + 1},
		{Kind: kindQueryAck, RID: rid + 1, Tag: tag.Next(102), Body: register.Value("v2")},
	} {
		if eff := cl.Deliver(5, m); eff.Response != nil || len(eff.Sends) != 0 {
			t.Errorf("reply kind 0x%02x rid %d after a one-round read: %+v, want no effect", m.Kind, m.RID, eff)
		}
	}
	if cl.Busy() || cl.rid != rid || !cl.bestTag.Equal(tag) || string(cl.bestVal) != "v1" {
		t.Errorf("late replies changed the idle client: busy=%v rid=%d (want %d) best=%s/%q",
			cl.Busy(), cl.rid, rid, cl.bestTag, cl.bestVal)
	}
	// The next read starts clean: the old read's late ack is stale for it.
	if eff := cl.Invoke(ioa.Invocation{Kind: ioa.OpRead}); len(eff.Sends) != len(cfg.Servers) {
		t.Fatalf("next read sends %d queries, want %d", len(eff.Sends), len(cfg.Servers))
	}
	if eff := cl.Deliver(4, ack(rid)); eff.Response != nil || len(eff.Sends) != 0 || cl.acks != 0 || cl.agree != 0 {
		t.Errorf("the previous read's ack counted toward the next read: acks=%d agree=%d", cl.acks, cl.agree)
	}
}

// TestOneRoundReadBoundary pins where a read's one-round path starts and
// stops (N=5, f=2, quorum 3): a quorum of acks all carrying one tag ends
// the read at the quorum's last ack, five sends for the whole read, whether
// that tag is the initial one or a written one; a single disagreeing ack,
// whether the maximum tag came first or last, makes the read write the
// maximum back to every server.
func TestOneRoundReadBoundary(t *testing.T) {
	cfg := Config{Servers: cluster5(), F: 2}
	old := register.Tag{Seq: 1, Writer: 101}
	newer := register.Tag{Seq: 2, Writer: 101}
	for _, c := range []struct {
		name      string
		tags      []register.Tag // the quorum's acks, in arrival order
		writeBack bool
	}{
		{"agree", []register.Tag{newer, newer, newer}, false},
		{"agree on the initial tag", []register.Tag{{}, {}, {}}, false},
		{"maximum first", []register.Tag{newer, old, old}, true},
		{"maximum last", []register.Tag{old, old, newer}, true},
		{"maximum in the middle", []register.Tag{newer, old, newer}, true},
		{"initial beside written", []register.Tag{{}, newer, newer}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, err := NewClient(201, RoleReader, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sends := len(cl.Invoke(ioa.Invocation{Kind: ioa.OpRead}).Sends)
			val := func(tag register.Tag) register.Value {
				if tag.IsZero() {
					return nil
				}
				return register.MakeValue(8, uint64(tag.Seq))
			}
			var eff ioa.Effects
			for i, tag := range c.tags {
				eff = cl.Deliver(cfg.Servers[i], &ioa.Msg{Kind: kindQueryAck, RID: cl.rid, Tag: tag, Body: val(tag)})
				sends += len(eff.Sends)
				if i < len(c.tags)-1 && (eff.Response != nil || len(eff.Sends) != 0) {
					t.Fatalf("ack %d of %d acted before the quorum: %+v", i+1, len(c.tags), eff)
				}
			}
			want := c.tags[0]
			for _, tag := range c.tags {
				if want.Less(tag) {
					want = tag
				}
			}
			if !c.writeBack {
				if eff.Response == nil || !bytes.Equal(eff.Response.Value, val(want)) {
					t.Fatalf("an agreeing quorum's last ack: response %+v, want the value of %s", eff.Response, want)
				}
				if sends != len(cfg.Servers) {
					t.Errorf("one-round read sent %d messages, want %d (its queries alone)", sends, len(cfg.Servers))
				}
				return
			}
			if eff.Response != nil || cl.phase != phasePut || len(eff.Sends) != len(cfg.Servers) {
				t.Fatalf("disagreeing quorum: response %v, phase %d, %d sends; want a write-back to all %d servers",
					eff.Response, cl.phase, len(eff.Sends), len(cfg.Servers))
			}
			for _, snd := range eff.Sends {
				if m := snd.Msg; m.Kind != kindPut || !m.Tag.Equal(want) || !bytes.Equal(m.Body.(register.WriteValue), val(want)) {
					t.Fatalf("write-back %+v, want a put of %s", m, want)
				}
			}
		})
	}
}

// TestNewOldInversionSchedule drives the read that must write back (N=5,
// f=1, quorum 4) through one fixed simulator schedule: a write's put reaches
// server 1 only, reader R1's query quorum {1,2,3,4} sees the new tag beside
// old ones, and reader R2's quorum {2,3,4,5} leaves server 1 out. R1 must
// leave a quorum holding the new tag before it returns it, or R2, which
// starts after R1 returns, reads the old value: the new/old inversion
// CheckAtomic rejects. A reader that skipped its write-back whenever it
// could not prove it redundant would fail here.
func TestNewOldInversionSchedule(t *testing.T) {
	c := deploy(t, Options{Servers: 5, F: 1, Writers: 1, Readers: 2})
	w, r1, r2 := c.writers[0], c.readers[0], c.readers[1]
	v := []byte("new")
	if _, err := c.sys.Invoke(w, ioa.Invocation{Kind: ioa.OpWrite, Value: v}); err != nil {
		t.Fatal(err)
	}
	if err := c.sys.Deliver(w, c.servers[0]); err != nil { // the put reaches server 1 alone
		t.Fatal(err)
	}
	read := func(r ioa.NodeID, quorum []ioa.NodeID) ioa.Op {
		t.Helper()
		id, err := c.sys.Invoke(r, ioa.Invocation{Kind: ioa.OpRead})
		if err != nil {
			t.Fatal(err)
		}
		exchange(t, c.sys, r, quorum)
		op := c.sys.History().Ops[id]
		if op.Pending() {
			t.Fatalf("read at %d did not finish against servers %v", r, quorum)
		}
		return op
	}
	read1 := read(r1, c.servers[:4])
	// One step between the reads: the kernel stamps a response and the
	// next step's invocation with one step number, so back-to-back reads
	// would overlap in the history. Server 1's put ack reaching the writer
	// is that step; the write stays pending.
	if err := c.sys.Deliver(c.servers[0], w); err != nil {
		t.Fatal(err)
	}
	read2 := read(r2, c.servers[1:])
	if !read1.PrecedesOp(read2) {
		t.Fatalf("R1 %v does not precede R2 %v", read1, read2)
	}
	if !bytes.Equal(read1.Output, v) || !bytes.Equal(read2.Output, v) {
		t.Errorf("R1 read %q, R2 read %q; want both %q", read1.Output, read2.Output, v)
	}
	if err := consistency.CheckAtomic(c.sys.History(), nil); err != nil {
		t.Fatal(err)
	}
}

// exchange delivers every message between client and the given servers,
// both ways, until none is left: the client's phases run against those
// servers alone, and whatever it sends anyone else stays in the channel.
func exchange(t *testing.T, sys *ioa.System, client ioa.NodeID, servers []ioa.NodeID) {
	t.Helper()
	all := func(ioa.Message) bool { return true }
	for moved := true; moved; {
		moved = false
		for _, s := range servers {
			for _, k := range []ioa.ChanKey{{From: client, To: s}, {From: s, To: client}} {
				ok, err := sys.DeliverSelect(k.From, k.To, all)
				if err != nil {
					t.Fatal(err)
				}
				moved = moved || ok
			}
		}
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
