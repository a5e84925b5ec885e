package ioa

import (
	"math/rand"
	"testing"
)

func newBenchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// chatterClient floods the kernel: on Invoke it pings every peer, and every
// peer (a chatterServer) pings it right back, so all client<->server channels
// stay continuously deliverable and FairRun sweeps at its steady-state cost.
type chatterClient struct {
	id    NodeID
	peers []NodeID
	busy  bool
	out   Outbox
}

func (c *chatterClient) ID() NodeID { return c.id }
func (c *chatterClient) Busy() bool { return c.busy }

func (c *chatterClient) Invoke(inv Invocation) Effects {
	c.busy = true
	return c.out.All(c.peers, ping(1))
}

func (c *chatterClient) Deliver(from NodeID, msg Message) Effects {
	return c.out.Reply(from, ping(1))
}

func (c *chatterClient) Clone() Node { cp := *c; cp.out = Outbox{}; return &cp }

type chatterServer struct {
	id  NodeID
	out Outbox
}

func (s *chatterServer) ID() NodeID { return s.id }

func (s *chatterServer) Deliver(from NodeID, msg Message) Effects {
	return s.out.Reply(from, ping(1))
}

func (s *chatterServer) Clone() Node { cp := *s; cp.out = Outbox{}; return &cp }

// buildChatter wires nClients x nServers channels of perpetual traffic.
func buildChatter(b *testing.B, nClients, nServers int) *System {
	b.Helper()
	sys := NewSystem()
	servers := make([]NodeID, nServers)
	for i := range servers {
		servers[i] = NodeID(i + 1)
		if err := sys.AddServer(&chatterServer{id: servers[i]}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nClients; i++ {
		id := NodeID(100 + i)
		if err := sys.AddClient(&chatterClient{id: id, peers: servers}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Invoke(id, Invocation{Kind: OpWrite}); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// BenchmarkFairRunSweep measures per-delivery cost of the fair scheduler on a
// system with 6x6=72 continuously busy directed channels — the hot loop under
// every experiment in the repository.
func BenchmarkFairRunSweep(b *testing.B) {
	sys := buildChatter(b, 6, 6)
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.FairRun(b.N, nil); err != ErrStepLimit {
		b.Fatalf("FairRun: %v", err)
	}
}

// BenchmarkRandomRunSweep measures the seeded-random scheduler, which pays
// the DeliverableChannels cost on every single delivery.
func BenchmarkRandomRunSweep(b *testing.B) {
	sys := buildChatter(b, 6, 6)
	rng := newBenchRand(17)
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.RandomRun(rng, b.N, nil); err != ErrStepLimit {
		b.Fatalf("RandomRun: %v", err)
	}
}
