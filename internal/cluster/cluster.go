// Package cluster defines the common shape of a deployed register emulation:
// a simulated system plus the roles of its nodes. Deploy assembles one from an
// algorithm's server and client constructors (abd, cas, coded supply them);
// the workload driver and the adversary machinery consume Clusters uniformly.
package cluster

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/quorum"
)

// Conventional node-id ranges. Servers, writers and readers share the ioa
// namespace; these offsets keep them disjoint and recognizable in traces.
const (
	ServerBase = 1
	WriterBase = 101
	ReaderBase = 201
)

// Cluster is a deployed register emulation.
type Cluster struct {
	// Sys is the simulated system containing all nodes.
	Sys *ioa.System
	// Servers, Writers, Readers list node ids by role, ascending.
	Servers []ioa.NodeID
	Writers []ioa.NodeID
	Readers []ioa.NodeID
	// F is the number of crash failures the deployment tolerates.
	F int
	// Profile classifies the write protocol per Section 6.1.
	Profile quorum.WriteProfile
}

// Builder constructs a fresh, deterministic deployment. The adversary
// machinery rebuilds clusters repeatedly to construct execution families
// (one execution per value pair).
type Builder func() (*Cluster, error)

// ServerIDs returns the conventional server ids 1..n.
func ServerIDs(n int) []ioa.NodeID {
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(ServerBase + i)
	}
	return out
}

// WriterIDs returns the conventional writer ids.
func WriterIDs(n int) []ioa.NodeID {
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(WriterBase + i)
	}
	return out
}

// ReaderIDsAfter returns n reader ids placed after a deployment with the
// given writer count. The fixed WriterBase..ReaderBase gap fits 100 writers;
// a larger deployment shifts the reader range up past the writers instead of
// colliding with them ("duplicate node id"). Deployments that fit the fixed
// ranges keep their historical ids, so simulator fingerprints are unchanged.
func ReaderIDsAfter(writers, n int) []ioa.NodeID {
	base := ReaderBase
	if WriterBase+writers > base {
		base = WriterBase + writers
	}
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(base + i)
	}
	return out
}

// Roles holds an algorithm's automaton constructors: Server builds the
// server with the given id among all servers, Writer and Reader the client
// of that role.
type Roles struct {
	Server func(id ioa.NodeID, servers []ioa.NodeID) ioa.Node
	Writer func(id ioa.NodeID) (ioa.Client, error)
	Reader func(id ioa.NodeID) (ioa.Client, error)
}

// Deploy assembles a deployment of n servers tolerating f crashes, with the
// given writer and reader counts, from an algorithm's constructors: the
// conventional id layout (ServerIDs, WriterIDs, ReaderIDsAfter), registered
// servers first, then writers, then readers. Every simulator schedule and
// fingerprint depends on that order.
func Deploy(profile quorum.WriteProfile, n, f, writers, readers int, r Roles) (*Cluster, error) {
	if writers < 1 || readers < 0 {
		return nil, fmt.Errorf("%s: need at least one writer and no negative reader count (writers=%d readers=%d)",
			profile.Algorithm, writers, readers)
	}
	c := &Cluster{
		Sys:     ioa.NewSystem(),
		Servers: ServerIDs(n),
		Writers: WriterIDs(writers),
		Readers: ReaderIDsAfter(writers, readers),
		F:       f,
		Profile: profile,
	}
	for _, id := range c.Servers {
		if err := c.Sys.AddServer(r.Server(id, c.Servers)); err != nil {
			return nil, err
		}
	}
	for _, role := range []struct {
		ids []ioa.NodeID
		mk  func(ioa.NodeID) (ioa.Client, error)
	}{{c.Writers, r.Writer}, {c.Readers, r.Reader}} {
		for _, id := range role.ids {
			cl, err := role.mk(id)
			if err != nil {
				return nil, err
			}
			if err := c.Sys.AddClient(cl); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Automaton returns the node automaton registered under id. Execution
// backends other than the simulator (see internal/runtime) pull the automata
// out of the deployment through this: the System is only the registry, and
// the backend drives each automaton itself.
func (c *Cluster) Automaton(id ioa.NodeID) (ioa.Node, error) {
	return c.Sys.Node(id)
}

// ClientAutomaton returns the client automaton registered under id.
func (c *Cluster) ClientAutomaton(id ioa.NodeID) (ioa.Client, error) {
	n, err := c.Sys.Node(id)
	if err != nil {
		return nil, err
	}
	cl, ok := n.(ioa.Client)
	if !ok {
		return nil, fmt.Errorf("cluster: node %d is not a client", id)
	}
	return cl, nil
}

// Validate performs basic shape checks.
func (c *Cluster) Validate() error {
	if c.Sys == nil {
		return fmt.Errorf("cluster: nil system")
	}
	if len(c.Servers) == 0 {
		return fmt.Errorf("cluster: no servers")
	}
	if len(c.Writers) == 0 {
		return fmt.Errorf("cluster: no writers")
	}
	if c.F < 0 || c.F >= len(c.Servers) {
		return fmt.Errorf("cluster: f=%d out of range for %d servers", c.F, len(c.Servers))
	}
	return nil
}

// WithSystem returns a shallow copy of the cluster bound to a different
// system instance (e.g. one restored from a snapshot).
func (c *Cluster) WithSystem(sys *ioa.System) *Cluster {
	cp := *c
	cp.Sys = sys
	return &cp
}
