// Package store maps a multi-key keyspace onto many independent register
// deployments — one cluster.Cluster per shard, each running its own
// ioa.System — and drives them in parallel through a partitioned
// workload.MultiSpec while aggregating per-shard storage reports, histories
// and consistency verdicts into one store-level result whose normalized
// total storage is directly comparable to the paper's Figure 1 bounds.
package store

import (
	"fmt"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/coded"
)

// Algorithm names accepted by DeployShard and Config.Algorithms.
const (
	AlgABD              = "abd"
	AlgABDMW            = "abd-mwmr"
	AlgCAS              = "cas"
	AlgCASGC            = "casgc"
	AlgTwoVersion       = "twoversion"
	AlgTwoVersionGossip = "twoversion-gossip"
	AlgSolo             = "solo"
)

// Algorithms lists every deployable algorithm name.
func Algorithms() []string {
	return []string{AlgABD, AlgABDMW, AlgCAS, AlgCASGC, AlgTwoVersion, AlgTwoVersionGossip, AlgSolo}
}

// DeployAlgorithmSized builds a cluster for the named algorithm with
// explicit writer and reader client counts — the live runtime's load
// generator scales clients this way, where DeployShard's per-algorithm
// shapes would cap concurrency. Single-writer algorithms (abd, twoversion,
// twoversion-gossip, solo) reject writers != 1.
func DeployAlgorithmSized(alg string, n, f, writers, readers int) (*cluster.Cluster, string, error) {
	switch alg {
	case AlgABD, AlgTwoVersion, AlgTwoVersionGossip, AlgSolo:
		if writers != 1 {
			return nil, "", fmt.Errorf("store: %s is single-writer; got writers=%d", alg, writers)
		}
	}
	switch alg {
	case AlgABD:
		cl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: readers, MultiWriter: false})
		return cl, "atomic", err
	case AlgABDMW:
		cl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: writers, Readers: readers, MultiWriter: true})
		return cl, "atomic", err
	case AlgCAS:
		cl, err := cas.Deploy(cas.Options{Servers: n, F: f, GCDepth: -1, Writers: writers, Readers: readers})
		return cl, "atomic", err
	case AlgCASGC:
		cl, err := cas.Deploy(cas.Options{Servers: n, F: f, GCDepth: 0, Writers: writers, Readers: readers})
		return cl, "atomic", err
	case AlgTwoVersion:
		cl, err := coded.Deploy(coded.Options{Servers: n, F: f, Readers: readers})
		return cl, "regular", err
	case AlgTwoVersionGossip:
		cl, err := coded.DeployGossip(coded.Options{Servers: n, F: f, Readers: readers})
		return cl, "regular", err
	case AlgSolo:
		cl, err := coded.DeploySolo(coded.Options{Servers: n, F: f, Readers: readers})
		return cl, "regular", err
	default:
		return nil, "", fmt.Errorf("store: unknown algorithm %q (known: %v)", alg, Algorithms())
	}
}
