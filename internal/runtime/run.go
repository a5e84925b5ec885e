package runtime

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RunConfig executes the workload on the runtime behind the named backend
// (BackendLive or BackendNet): min(TargetNu, writers) writer goroutines and
// every reader goroutine issue operations from shared budgets until the
// spec's counts are exhausted, Config.Pipeline operations in flight per
// client. It returns the shared workload.Result shape — Latencies carries
// the per-operation wall times the store layer aggregates into percentiles;
// MaxTotalBits is the sum of the per-server maxima, an upper estimate of the
// simulator's step-accurate total high-water mark, since no global snapshot
// exists in a concurrent run. Fault plans run in full — drop/delay rules,
// outage windows and scheduled crash/recovery, the step-indexed ones mapped
// onto wall time by the runtime's faults.WallClock. The spec's random
// Crashes budget remains genuinely unsupported (it draws crash points from
// the simulator's schedule, which does not exist here) and is rejected with
// faults.ErrUnsupported.
//
// sink, when non-nil, receives the run's history as it happens: every
// operation is registered with an ioa.OpFeed at invocation and the feed
// releases it into the sink, in invocation order, once it settles.
// Result.History then carries only the pending tail (the sink has absorbed
// everything else). With no sink the same feed fills an ioa.History of the
// run's own and Result.History is all of it. A sink that is an online
// checker (it reports its retirement window, as consistency.OnlineChecker
// does) also sets the drivers' sync period: every window's worth of issued
// operations they drain and meet at a barrier, so each window is guaranteed
// a clean cut to retire at. tel, when it carries a registry, receives the
// run's metrics (see startTelemetry).
func RunConfig(backend string, cl *cluster.Cluster, spec workload.Spec, cfg Config, sink ioa.HistorySink, tel *telemetry.RunTelemetry) (*workload.Result, error) {
	mkLink, err := newLink(backend)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(cl); err != nil {
		return nil, err
	}
	if spec.Crashes != 0 {
		return nil, fmt.Errorf("runtime: %w: the random crash budget draws crash points from the simulator's schedule; schedule crashes via the fault plan instead (got Crashes=%d)",
			faults.ErrUnsupported, spec.Crashes)
	}
	if spec.Reads > 0 && len(cl.Readers) == 0 {
		return nil, fmt.Errorf("runtime: %d reads requested but the cluster has no readers", spec.Reads)
	}
	rt, err := newRuntime(cl, spec.FaultPlan, cfg, tel, mkLink)
	if err != nil {
		return nil, err
	}
	// One history path: the feed stamps and orders every op into the
	// caller's sink, or into a history of the run's own when there is none.
	var own *ioa.History
	if sink != nil {
		rt.feed = ioa.NewOpFeed(sink)
	} else {
		own = ioa.NewHistory()
		rt.feed = ioa.NewOpFeed(own)
	}
	chk, _ := sink.(checker)
	rt.startTelemetry(cl, spec, chk)
	rt.start()
	lats, peakWrites := rt.runFlights(cl, spec, chk)
	// Snapshot before tearing down: stop closes the link under whatever
	// residual traffic is still in flight (late acks past a quorum), and
	// messages that teardown strands are not faults of the run.
	stats := rt.faultStats()
	rt.stop()

	res := &workload.Result{
		PeakActiveWrites: peakWrites,
		Log2V:            float64(8 * spec.ValueBytes),
		Faults:           stats,
		Latencies:        lats,
	}

	// The sink has already absorbed every settled op in invocation order;
	// Flush settles the still-open ones as abandoned, emits them too and
	// reports them. The run's own history now holds everything; a caller's
	// sink keeps what it absorbed and Result.History carries just the pending
	// ops, so the pending/quiescent accounting below is the same either way
	// while run memory stays bounded by the sink, not the run.
	pend, err := rt.feed.Flush()
	if err != nil {
		return nil, fmt.Errorf("runtime: history sink: %w", err)
	}
	res.History = own
	if own == nil {
		if res.History, err = ioa.HistoryFromOps(pend); err != nil {
			return nil, err
		}
	}
	if pending := len(res.History.PendingOps()); pending > 0 {
		if spec.FaultPlan == nil {
			return nil, fmt.Errorf("runtime: %d operations timed out with no fault plan installed", pending)
		}
		res.Quiescent = true
	}
	res.Storage = rt.storageReport()
	res.NormalizedTotal = float64(res.Storage.MaxTotalBits) / res.Log2V
	return res, nil
}

// storageReport sums the per-server maxima observed by the node goroutines.
// It keys on the construction-time metered flag, not ns.meter: the meter is
// rewritten by crash recovery on the scheduler goroutine, while the bit
// counts live in atomics that any goroutine may read mid-run.
func (rt *runtime) storageReport() ioa.StorageReport {
	rep := ioa.StorageReport{PerServerMaxBits: make(map[ioa.NodeID]int, len(rt.servers))}
	for _, id := range rt.servers {
		ns := rt.node(id)
		if ns == nil || !ns.metered {
			continue
		}
		maxBits := int(ns.maxBits.Load())
		rep.PerServerMaxBits[id] = maxBits
		rep.MaxTotalBits += maxBits
		rep.CurrentTotalBits += int(ns.curBits.Load())
		if maxBits > rep.MaxServerBits {
			rep.MaxServerBits = maxBits
		}
	}
	return rep
}
