package store

import (
	"bytes"
	"testing"

	"repro/internal/ioa"
	"repro/internal/register"
)

// TestCloneIndependence is the clone guard at unit scale for every coded
// server: cas.Server (CAS, CASGC), coded.Server (twoversion),
// coded.GossipServer and coded.SoloServer. After a few writes, each server
// is copied — by Clone, or, in the snapshot mode, by a clone of the image
// a recovering server keeps (itself a Clone, set aside) — and the copies,
// with clones of the clients, are driven through more writes (past CASGC's
// collection depth), reads and collection in a system of their own. The
// originals' digests must not move, and the original system must still
// read the value it held: a copy that shares a pooled element without
// retaining it would release it back to the pool under the original, and a
// test binary poisons what the pool takes back. An image holds its
// elements for good: cloned again after the original has collected them
// away, it still reads the value it held.
//
// The outbox subtests cover all seven algorithms: every node a write and a
// read step through is copied, the copy is cloned, and the two receive the
// same message; their sends must not share a backing array, or one node's
// next step would overwrite what the other handed out.
func TestCloneIndependence(t *testing.T) {
	for _, alg := range []string{AlgABD, AlgABDMW, AlgCAS, AlgCASGC, AlgTwoVersion, AlgTwoVersionGossip, AlgSolo} {
		t.Run(alg+"/outbox", func(t *testing.T) { testOutboxNotShared(t, alg) })
	}
	for _, alg := range []string{AlgCAS, AlgCASGC, AlgTwoVersion, AlgTwoVersionGossip, AlgSolo} {
		for _, mode := range []string{"clone", "snapshot"} {
			t.Run(alg+"/"+mode, func(t *testing.T) {
				orig, _, err := DeployShard(alg, 5, 1, 1, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				node := func(sys *ioa.System, id ioa.NodeID) ioa.Node {
					n, err := sys.Node(id)
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
				// assemble builds a system of its own from a copy of every
				// server of orig and a clone of every client.
				assemble := func(copyOf func(id ioa.NodeID, n ioa.Node) ioa.Node) *ioa.System {
					sys := ioa.NewSystem()
					for _, id := range orig.Servers {
						if err := sys.AddServer(copyOf(id, node(orig.Sys, id))); err != nil {
							t.Fatal(err)
						}
					}
					for _, id := range append(append([]ioa.NodeID(nil), orig.Writers...), orig.Readers...) {
						if err := sys.AddClient(node(orig.Sys, id).Clone().(ioa.Client)); err != nil {
							t.Fatal(err)
						}
					}
					return sys
				}
				write := func(sys *ioa.System, seed uint64) []byte {
					v := register.MakeValue(1024, seed)
					if _, err := sys.RunOp(orig.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
						t.Fatal(err)
					}
					return v
				}
				read := func(sys *ioa.System, want []byte, what string) {
					op, err := sys.RunOp(orig.Readers[0], ioa.Invocation{Kind: ioa.OpRead}, 100000)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(op.Output, want) {
						t.Fatalf("%s read a %d-byte value other than the %d bytes written", what, len(op.Output), len(want))
					}
				}
				write(orig.Sys, 1)
				held := write(orig.Sys, 2)
				digests := map[ioa.NodeID]string{}
				images := map[ioa.NodeID]ioa.Node{}
				for _, id := range orig.Servers {
					n := node(orig.Sys, id)
					digests[id] = n.(ioa.Digester).StateDigest()
					images[id] = n.Clone()
				}
				restore := func(id ioa.NodeID, _ ioa.Node) ioa.Node { return images[id].Clone() }
				copyOf := func(_ ioa.NodeID, n ioa.Node) ioa.Node { return n.Clone() }
				if mode == "snapshot" {
					copyOf = restore
				}
				copies := assemble(copyOf)

				read(copies, held, "the copy")
				for seed := uint64(10); seed < 14; seed++ {
					read(copies, write(copies, seed), "the copy")
				}
				for id, want := range digests {
					if got := node(orig.Sys, id).(ioa.Digester).StateDigest(); got != want {
						t.Fatalf("server %d's digest moved while its copy ran", id)
					}
				}
				read(orig.Sys, held, "the original")
				if mode == "snapshot" {
					for seed := uint64(20); seed < 24; seed++ {
						write(orig.Sys, seed)
					}
					read(assemble(restore), held, "a late restore")
				}
			})
		}
	}
}

// testOutboxNotShared steps a write and a read of alg by hand, one FIFO
// delivery at a time. Before each delivery, the receiving node is copied and
// the copy, its outbox used by one delivery of the message, is cloned; then
// copy and clone both receive the message. The message is retained once per
// extra delivery, so pooled elements keep their counts right.
func testOutboxNotShared(t *testing.T, alg string) {
	cl, _, err := DeployShard(alg, 5, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := cl.Sys
	checked := 0
	for _, op := range []struct {
		client ioa.NodeID
		inv    ioa.Invocation
	}{
		{cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(1024, 1)}},
		{cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead}},
	} {
		id, err := sys.Invoke(op.client, op.inv)
		if err != nil {
			t.Fatal(err)
		}
		for steps := 0; !ioa.OpDone(id)(sys); steps++ {
			ready := sys.DeliverableChannels()
			if len(ready) == 0 || steps > 10000 {
				t.Fatalf("%s op %d did not complete", op.inv.Kind, id)
			}
			k := ready[0]
			var msg ioa.Message
			sys.DeliverSelect(k.From, k.To, func(m ioa.Message) bool {
				if msg == nil {
					msg = m
				}
				return false
			})
			n, err := sys.Node(k.To)
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := msg.Body.(ioa.Pooled); ok {
				p.Retain()
				p.Retain()
				p.Retain()
			}
			orig := n.Clone()
			orig.Deliver(k.From, msg)
			cp := orig.Clone()
			a, b := orig.Deliver(k.From, msg), cp.Deliver(k.From, msg)
			if len(a.Sends) > 0 && len(b.Sends) > 0 {
				checked++
				if &a.Sends[0] == &b.Sends[0] {
					t.Fatalf("node %d (%T) and its clone share one outbox: %d->%d %T", k.To, n, k.From, k.To, msg)
				}
			}
			if err := sys.Deliver(k.From, k.To); err != nil {
				t.Fatal(err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no delivery made both a node and its clone send")
	}
}
