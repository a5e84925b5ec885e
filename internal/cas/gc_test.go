package cas

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/register"
)

// recount recomputes a server's running totals from scratch over its
// records, and checks the records are strictly ascending by tag.
func recount(t *testing.T, s *Server) (bits, fins int) {
	t.Helper()
	for i := range s.recs {
		r := &s.recs[i]
		if i > 0 && !s.recs[i-1].Tag.Less(r.Tag) {
			t.Fatalf("records out of order at %d: %s then %s", i, s.recs[i-1].Tag, r.Tag)
		}
		bits += r.Tag.Bits() + 1
		if r.HasShard {
			bits += 8 * len(r.Shard.Data)
		}
		if r.Fin {
			fins++
		}
	}
	return bits, fins
}

// setRecords replaces a server's records with recs, sorted, and sets its
// totals by recount.
func setRecords(t *testing.T, s *Server, recs map[register.Tag]record) {
	t.Helper()
	s.recs = s.recs[:0]
	for _, r := range recs {
		s.recs = append(s.recs, r)
	}
	sort.Slice(s.recs, func(i, j int) bool { return s.recs[i].Tag.Less(s.recs[j].Tag) })
	s.bits, s.fins = recount(t, s)
}

// gcSorted is the reference collector, kept as the oracle: copy the
// finalized tags out, sort them descending, keep the records at or above the
// (δ+1)-th and recount.
func gcSorted(t *testing.T, s *Server, depth int) {
	t.Helper()
	var fins []register.Tag
	for _, r := range s.recs {
		if r.Fin {
			fins = append(fins, r.Tag)
		}
	}
	if len(fins) <= depth {
		return
	}
	sort.Slice(fins, func(i, j int) bool { return fins[j].Less(fins[i]) })
	threshold := fins[depth]
	s.recs = slices.DeleteFunc(s.recs, func(r record) bool { return r.Tag.Less(threshold) })
	s.bits, s.fins = recount(t, s)
}

// TestGCMatchesSortOracle drives a CASGC server and a never-collecting twin
// through the same seeded deliveries — pre-writes, finalizes and read-fins of
// tags in no particular order, so records are finalized before, after and
// without ever being pre-written — and collects the twin with the sort-based
// oracle after each one. The two states must agree after every delivery. The
// sorted collector is idempotent, so running it after every delivery equals
// running it where Deliver runs gc.
func TestGCMatchesSortOracle(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 4} {
		collected := 0
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewServer(1, depth), NewServer(1, -1)
			for step := 0; step < 120; step++ {
				// Tags drift upwards so old ones fall below the threshold.
				tag := register.Tag{Seq: int64(1 + step/8 + rng.Intn(6)), Writer: ioa.NodeID(1 + rng.Intn(3))}
				var msg ioa.Message
				switch rng.Intn(3) {
				case 0:
					msg = &ioa.Msg{Kind: kindPreWrite, Tag: tag, Body: register.WriteElement{Shard: erasure.Shard{Index: 0, Data: []byte{byte(step)}}}}
				case 1:
					msg = &ioa.Msg{Kind: kindFinalize, Tag: tag}
				default:
					msg = &ioa.Msg{Kind: kindReadFin, Tag: tag}
				}
				got.Deliver(9, msg)
				want.Deliver(9, msg)
				before := len(want.recs)
				gcSorted(t, want, depth)
				collected += before - len(want.recs)
				// gcDepth is configuration, not state: the digests are comparable.
				if g, w := got.StateDigest(), want.StateDigest(); g != w {
					t.Fatalf("δ=%d seed %d step %d after %T%+v:\n got %s\nwant %s", depth, seed, step, msg, msg, g, w)
				}
				if g, w := got.StorageBits(), want.StorageBits(); g != w {
					t.Fatalf("δ=%d seed %d step %d: StorageBits %d, oracle %d", depth, seed, step, g, w)
				}
			}
		}
		if collected < 1000 {
			t.Fatalf("δ=%d: the oracle collected only %d records; the sequences do not exercise gc", depth, collected)
		}
	}
}

// TestGCFromArbitraryState: a state with any number of finalized records (a
// restored image from elsewhere, say) is collected exactly as the oracle
// collects it.
func TestGCFromArbitraryState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		depth := rng.Intn(6)
		recs := make(map[register.Tag]record)
		for n := rng.Intn(20); n > 0; n-- {
			tag := register.Tag{Seq: int64(rng.Intn(10)), Writer: ioa.NodeID(rng.Intn(3))}
			recs[tag] = record{Tag: tag, HasShard: rng.Intn(2) == 0, Fin: rng.Intn(3) > 0}
		}
		got, want := NewServer(1, depth), NewServer(1, -1)
		setRecords(t, got, recs)
		setRecords(t, want, recs)
		got.gc()
		gcSorted(t, want, depth)
		if g, w := got.StateDigest(), want.StateDigest(); g != w {
			t.Fatalf("case %d δ=%d:\n got %s\nwant %s", i, depth, g, w)
		}
		if got.bits != want.bits || got.fins != want.fins {
			t.Fatalf("case %d δ=%d: totals bits=%d fins=%d, recount bits=%d fins=%d", i, depth, got.bits, got.fins, want.bits, want.fins)
		}
	}
}

// TestRunningCountersMatchRecount is the property behind the O(1)
// StorageBits: after every delivery of a random sequence — pre-writes of
// pooled elements of varied sizes, duplicates among them, finalizes and
// read-fins, at every collection depth — and across a Clone set aside and
// a restart from a clone of it, as a recovering server's image is used, the
// running bit and finalized counts equal a recount from scratch.
func TestRunningCountersMatchRecount(t *testing.T) {
	for _, depth := range []int{-1, 0, 1, 3} {
		for seed := int64(1); seed <= 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewServer(1, depth)
			var aside *Server
			for step := 0; step < 150; step++ {
				tag := register.Tag{Seq: int64(1 + step/10 + rng.Intn(5)), Writer: ioa.NodeID(1 + rng.Intn(2))}
				switch rng.Intn(8) {
				case 0, 1, 2:
					shard := erasure.NewShard(rng.Intn(5), 1+rng.Intn(300))
					s.Deliver(9, &ioa.Msg{Kind: kindPreWrite, Tag: tag, Body: register.WriteElement{Shard: shard}})
				case 3, 4:
					s.Deliver(9, &ioa.Msg{Kind: kindFinalize, Tag: tag})
				case 5:
					ack, _ := s.Deliver(9, &ioa.Msg{Kind: kindReadFin, Tag: tag}).Sends[0].Msg.Body.(register.Element)
					ack.Release()
				case 6:
					if aside != nil {
						aside.Release()
					}
					aside = s.Clone().(*Server)
				default:
					if aside != nil {
						s.Release()
						s = aside.Clone().(*Server)
					}
				}
				bits, fins := recount(t, s)
				if s.bits != bits || s.fins != fins {
					t.Fatalf("δ=%d seed %d step %d: running bits=%d fins=%d, recount bits=%d fins=%d", depth, seed, step, s.bits, s.fins, bits, fins)
				}
				if got, want := s.StorageBits(), s.maxFin.Bits()+bits; got != want {
					t.Fatalf("δ=%d seed %d step %d: StorageBits %d, recount %d", depth, seed, step, got, want)
				}
			}
		}
	}
}

// steadyServer is a CASGC server in the state every pre-write finds it in
// once δ+1 writes have finalized: δ+1 finalized versions plus the incoming
// write's element.
func steadyServer(depth int) *Server {
	s := NewServer(1, depth)
	for seq := int64(1); seq <= int64(depth)+2; seq++ {
		tag := register.Tag{Seq: seq, Writer: 100}
		s.Deliver(9, &ioa.Msg{Kind: kindPreWrite, Tag: tag, Body: register.WriteElement{Shard: erasure.Shard{Data: make([]byte, 64)}}})
		if seq <= int64(depth)+1 {
			s.Deliver(9, &ioa.Msg{Kind: kindFinalize, Tag: tag})
		}
	}
	return s
}

func TestGCDoesNotAllocate(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 4} {
		s := steadyServer(depth)
		if got := len(s.recs); got != depth+2 {
			t.Fatalf("δ=%d: steady state holds %d versions, want %d", depth, got, depth+2)
		}
		if allocs := testing.AllocsPerRun(100, s.gc); allocs != 0 {
			t.Fatalf("δ=%d: a steady-state gc() allocates %.0f times, want 0", depth, allocs)
		}
	}
}

// BenchmarkServerGC is one collector run in the steady state, the call every
// pre-write and finalize makes (ten per write on five servers).
func BenchmarkServerGC(b *testing.B) {
	for _, depth := range []int{0, 2} {
		b.Run(fmt.Sprintf("delta=%d", depth), func(b *testing.B) {
			s := steadyServer(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.gc()
			}
		})
	}
}

// TestClientReleasesValueAndShards: between operations a client holds neither
// the value it last wrote nor the coded elements it last decoded, and a clone
// taken mid-read still carries the elements collected so far.
func TestClientReleasesValueAndShards(t *testing.T) {
	cl, err := Deploy(Options{Servers: 5, F: 1, GCDepth: 1, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := func(id ioa.NodeID) *Client {
		n, err := cl.Sys.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		return n.(*Client)
	}
	v := register.MakeValue(4096, 1)
	if _, err := cl.Sys.RunOp(cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
		t.Fatal(err)
	}
	if w := client(cl.Writers[0]); w.writeVal != nil {
		t.Fatalf("idle writer still holds its %d-byte value", len(w.writeVal))
	}

	// Drive a reader by hand so it can be cloned with elements in hand.
	r := client(cl.Readers[0]).Clone().(*Client)
	r.Invoke(ioa.Invocation{Kind: ioa.OpRead})
	tag := register.Tag{Seq: 1, Writer: cl.Writers[0]}
	for i := 0; i < r.q; i++ {
		r.Deliver(cl.Servers[i], &ioa.Msg{Kind: kindQueryFinAck, RID: r.rid, Tag: tag})
	}
	var mid *Client
	var resp *ioa.Response
	for i := 0; i < r.q; i++ {
		shard, err := r.code.EncodeOne(v, i)
		if err != nil {
			t.Fatal(err)
		}
		if i == r.q-1 {
			mid = r.Clone().(*Client)
		}
		resp = r.Deliver(cl.Servers[i], &ioa.Msg{Kind: kindReadFinAck, RID: r.rid, Body: register.Element{Shard: shard}}).Response
	}
	if resp == nil || string(resp.Value) != string(v) {
		t.Fatal("the hand-driven read did not return the written value")
	}
	if r.shards != nil {
		t.Fatalf("idle reader still holds %d coded elements", len(r.shards))
	}
	if len(mid.shards) != r.q-1 {
		t.Fatalf("mid-read clone carries %d coded elements, want %d", len(mid.shards), r.q-1)
	}
}

// TestMidReadCloneIndependence is the clone guard for a reader holding
// pooled elements: a copy taken mid-read finishes its read, lets its
// elements go and reads again, and the original still decodes the value it
// was collecting.
func TestMidReadCloneIndependence(t *testing.T) {
	cl, err := Deploy(Options{Servers: 5, F: 1, GCDepth: 0, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := cl.Sys.Node(cl.Readers[0])
	if err != nil {
		t.Fatal(err)
	}
	orig := n.Clone().(*Client)
	// start takes a reader through the query phase of a read of the write
	// with sequence number seq.
	start := func(c *Client, seq int64) {
		c.Invoke(ioa.Invocation{Kind: ioa.OpRead})
		for i := 0; i < c.q; i++ {
			c.Deliver(cl.Servers[i], &ioa.Msg{Kind: kindQueryFinAck, RID: c.rid, Tag: register.Tag{Seq: seq, Writer: cl.Writers[0]}})
		}
	}
	v, w := register.MakeValue(2048, 1), register.MakeValue(2048, 2)
	start(orig, 1)
	finish(t, orig, v, 0, orig.q-1)
	cp := orig.Clone().(*Client)
	if resp := finish(t, cp, v, cp.q-1, cp.q); resp == nil || !bytes.Equal(resp.Value, v) {
		t.Fatal("the copy did not decode the value")
	}
	cp.Deliver(cl.Servers[4], &ioa.Msg{Kind: kindReadFinAck, RID: cp.rid, Body: register.Element{Shard: encode(t, cp, v, 4)}}) // late
	start(cp, 2)
	if resp := finish(t, cp, w, 0, cp.q); resp == nil || !bytes.Equal(resp.Value, w) {
		t.Fatal("the copy's second read did not decode")
	}
	if resp := finish(t, orig, v, orig.q-1, orig.q); resp == nil || !bytes.Equal(resp.Value, v) {
		t.Fatal("the original's read changed under its copy")
	}
}

func encode(t *testing.T, c *Client, v []byte, i int) erasure.Shard {
	t.Helper()
	s, err := c.code.EncodeOne(v, i)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// finish delivers elements from..to-1 of v to a reader in its read-fin
// phase and returns the last delivery's response.
func finish(t *testing.T, c *Client, v []byte, from, to int) *ioa.Response {
	t.Helper()
	var resp *ioa.Response
	for i := from; i < to; i++ {
		resp = c.Deliver(c.servers[i], &ioa.Msg{Kind: kindReadFinAck, RID: c.rid, Body: register.Element{Shard: encode(t, c, v, i)}}).Response
	}
	return resp
}
