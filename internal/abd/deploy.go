package abd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ioa"
)

// Options configures an ABD deployment.
type Options struct {
	Servers     int
	F           int
	Writers     int
	Readers     int
	MultiWriter bool
}

// Deploy builds an ABD register cluster with the conventional node-id
// layout.
func Deploy(opts Options) (*cluster.Cluster, error) {
	if !opts.MultiWriter && opts.Writers > 1 {
		return nil, fmt.Errorf("abd: SWMR mode admits exactly one writer, got %d", opts.Writers)
	}
	cfg := Config{Servers: cluster.ServerIDs(opts.Servers), F: opts.F, MultiWriter: opts.MultiWriter}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	client := func(role Role) func(ioa.NodeID) (ioa.Client, error) {
		return func(id ioa.NodeID) (ioa.Client, error) { return NewClient(id, role, cfg) }
	}
	return cluster.Deploy(Profile(cfg), opts.Servers, opts.F, opts.Writers, opts.Readers, cluster.Roles{
		Server: func(id ioa.NodeID, _ []ioa.NodeID) ioa.Node { return NewServer(id) },
		Writer: client(RoleWriter),
		Reader: client(RoleReader),
	})
}
