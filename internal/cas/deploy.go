package cas

import (
	"repro/internal/cluster"
	"repro/internal/ioa"
)

// Options configures a CAS deployment with the maximum code dimension
// k = N-2f.
type Options struct {
	Servers int
	F       int
	GCDepth int // -1 = plain CAS (no GC), δ >= 0 = CASGC
	Writers int
	Readers int
}

// Deploy builds a CAS register cluster with the conventional node-id layout.
func Deploy(opts Options) (*cluster.Cluster, error) {
	cfg := Config{Servers: cluster.ServerIDs(opts.Servers), F: opts.F, GCDepth: opts.GCDepth}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	client := func(role Role) func(ioa.NodeID) (ioa.Client, error) {
		return func(id ioa.NodeID) (ioa.Client, error) { return NewClient(id, role, cfg) }
	}
	return cluster.Deploy(Profile(cfg), opts.Servers, opts.F, opts.Writers, opts.Readers, cluster.Roles{
		Server: func(id ioa.NodeID, _ []ioa.NodeID) ioa.Node { return NewServer(id, opts.GCDepth) },
		Writer: client(RoleWriter),
		Reader: client(RoleReader),
	})
}
