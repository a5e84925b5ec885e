package cas

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/register"
)

// gcSorted is the collector gc() replaced, kept as the oracle: copy the
// finalized tags out, sort them descending, delete below the (δ+1)-th.
func gcSorted(s *Server, depth int) {
	fins := make([]register.Tag, 0, len(s.recs))
	for t, rec := range s.recs {
		if rec.Fin {
			fins = append(fins, t)
		}
	}
	if len(fins) <= depth {
		return
	}
	sort.Slice(fins, func(i, j int) bool { return fins[j].Less(fins[i]) })
	threshold := fins[depth]
	for t := range s.recs {
		if t.Less(threshold) {
			delete(s.recs, t)
		}
	}
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
					msg = preWriteMsg{Tag: tag, Shard: erasure.Shard{Index: 0, Data: []byte{byte(step)}}}
				case 1:
					msg = finalizeMsg{Tag: tag}
				default:
					msg = readFinMsg{Tag: tag}
				}
				got.Deliver(9, msg)
				want.Deliver(9, msg)
				before := want.VersionsStored()
				gcSorted(want, depth)
				collected += before - want.VersionsStored()
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

// TestGCFromArbitraryState: gc's two-round bound rests on every finalization
// being followed by a collection; its result must not. A state with any
// number of finalized records (a restored image from elsewhere, say) is
// collected exactly as the oracle collects it.
func TestGCFromArbitraryState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		depth := rng.Intn(6)
		got, want := NewServer(1, depth), NewServer(1, -1)
		for n := rng.Intn(20); n > 0; n-- {
			tag := register.Tag{Seq: int64(rng.Intn(10)), Writer: ioa.NodeID(rng.Intn(3))}
			rec := recordState{HasShard: rng.Intn(2) == 0, Fin: rng.Intn(3) > 0}
			got.recs[tag], want.recs[tag] = rec, rec
		}
		got.gc()
		gcSorted(want, depth)
		if g, w := got.StateDigest(), want.StateDigest(); g != w {
			t.Fatalf("case %d δ=%d:\n got %s\nwant %s", i, depth, g, w)
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
		s.Deliver(9, preWriteMsg{Tag: tag, Shard: erasure.Shard{Data: make([]byte, 64)}})
		if seq <= int64(depth)+1 {
			s.Deliver(9, finalizeMsg{Tag: tag})
		}
	}
	return s
}

func TestGCDoesNotAllocate(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 4} {
		s := steadyServer(depth)
		if got := s.VersionsStored(); got != depth+2 {
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
		r.Deliver(cl.Servers[i], queryFinAck{RID: r.rid, Tag: tag})
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
		resp = r.Deliver(cl.Servers[i], readFinAck{RID: r.rid, HasShard: true, Shard: shard}).Response
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
