package coded

import (
	"repro/internal/cluster"
	"repro/internal/ioa"
)

// GossipServer is a two-version coded server that additionally gossips
// finalization notes to its peers: "tag T is finalized" (kindFinNote), on
// which a server whose pending slot holds T promotes it without waiting for
// the writer's W2. Functionally it converges faster when the writer's W2
// messages are delayed; architecturally it moves the register
// out of the "no server gossip" class of Theorem 4.1 and into the universal
// class of Theorem 5.1, whose valency probes must first drain the
// server-to-server channels (Definition 5.3). The adversary package runs
// exactly those probes against it.
type GossipServer struct {
	inner Server
	peers []ioa.NodeID
}

var (
	_ ioa.Node         = (*GossipServer)(nil)
	_ ioa.StorageMeter = (*GossipServer)(nil)
	_ ioa.Digester     = (*GossipServer)(nil)
)

// NewGossipServer returns a gossiping two-version server. peers must list
// the other servers.
func NewGossipServer(id ioa.NodeID, peers []ioa.NodeID) *GossipServer {
	return &GossipServer{inner: Server{id: id}, peers: append([]ioa.NodeID(nil), peers...)}
}

// ID implements ioa.Node.
func (g *GossipServer) ID() ioa.NodeID { return g.inner.id }

// Deliver implements ioa.Node.
func (g *GossipServer) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch msg.Kind {
	case kindW2:
		// Ack the writer, then spread the finalization to peers.
		g.inner.promote(msg.Tag)
		out := &g.inner.out
		out.Add(from, ioa.Msg{Kind: kindW2Ack, RID: msg.RID})
		for _, p := range g.peers {
			out.Add(p, ioa.Msg{Kind: kindFinNote, Tag: msg.Tag})
		}
		return out.Effects()
	case kindFinNote:
		g.inner.promote(msg.Tag)
		return ioa.Effects{}
	default:
		return g.inner.Deliver(from, msg)
	}
}

// StorageBits implements ioa.StorageMeter.
func (g *GossipServer) StorageBits() int { return g.inner.StorageBits() }

// StateDigest implements ioa.Digester.
func (g *GossipServer) StateDigest() string { return "g" + g.inner.StateDigest() }

// Clone implements ioa.Node. The peer list is configuration, fixed at
// construction and never written, so the copy shares it.
func (g *GossipServer) Clone() ioa.Node {
	return &GossipServer{inner: *(g.inner.Clone().(*Server)), peers: g.peers}
}

// DeployGossip builds a gossiping two-version SWSR cluster. The client
// protocols are identical to the plain two-version register; only the
// servers differ.
func DeployGossip(opts Options) (*cluster.Cluster, error) {
	cfg := Config{Servers: cluster.ServerIDs(opts.Servers), F: opts.F}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	profile := Profile(cfg)
	profile.Algorithm = "coded-two-version-gossip"
	return cluster.Deploy(profile, opts.Servers, opts.F, 1, opts.Readers, cluster.Roles{
		Server: func(id ioa.NodeID, servers []ioa.NodeID) ioa.Node {
			peers := make([]ioa.NodeID, 0, len(servers)-1)
			for _, p := range servers {
				if p != id {
					peers = append(peers, p)
				}
			}
			return NewGossipServer(id, peers)
		},
		Writer: func(id ioa.NodeID) (ioa.Client, error) { return NewWriter(id, cfg) },
		Reader: func(id ioa.NodeID) (ioa.Client, error) { return NewReader(id, cfg) },
	})
}
