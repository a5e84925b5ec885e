package runtime

import (
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// checker is the slice of an online checker the runtime reads from a batch
// run's sink: its retirement window sets the drivers' sync period, and the
// storage sampler publishes its progress. consistency.OnlineChecker
// satisfies it. Structural, so the runtime keeps not importing the checker.
type checker interface {
	WindowOps() int
	WindowLag() int
	OpsObserved() int64
	OpsVerified() int64
}

// startTelemetry publishes the paper bounds for this run's shape and starts
// the sampling goroutine: every tick it reads each server node's storage
// meter (the same curBits/maxBits watermark path storageReport folds at
// shutdown — gauges can never exceed that watermark), the measured-vs-bound
// slack, the link's own counters and the online checker's lag (chk; nil when
// the run feeds none). rt.stop joins the sampler after one final sample, so
// the end-of-run watermark is always published. A no-op when telemetry is
// off.
func (rt *runtime) startTelemetry(cl *cluster.Cluster, spec workload.Spec, chk checker) {
	tel := rt.tel
	if !tel.Active() {
		return
	}
	reg := tel.Registry
	sl := telemetry.L("shard", tel.ShardLabel())

	// The bounds are constants of the run's shape (N, f, log2|V|): publish
	// once, and let every storage sample carry slack against them. An
	// interactive session has no fixed value size (spec is zero), so the
	// bound comparison is skipped there and only the raw gauges publish.
	var slack41, slack51 telemetry.Gauge
	var b41, b51 float64
	hasBounds := spec.ValueBytes > 0
	if hasBounds {
		p := core.Params{N: len(cl.Servers), F: cl.F}
		log2V := float64(8 * spec.ValueBytes)
		b41 = core.Theorem41MaxBits(p, log2V)
		b51 = core.Theorem51MaxBits(p, log2V)
		reg.Gauge(telemetry.MetricStorageBoundBits,
			"paper lower bound on per-node storage bits for this run's shape",
			sl, telemetry.L("theorem", "4.1")).Set(b41)
		reg.Gauge(telemetry.MetricStorageBoundBits,
			"paper lower bound on per-node storage bits for this run's shape",
			sl, telemetry.L("theorem", "5.1")).Set(b51)
		slack41 = reg.Gauge(telemetry.MetricStorageSlackBits,
			"measured max per-node storage minus the paper bound (negative would refute the bound)",
			sl, telemetry.L("theorem", "4.1"))
		slack51 = reg.Gauge(telemetry.MetricStorageSlackBits,
			"measured max per-node storage minus the paper bound (negative would refute the bound)",
			sl, telemetry.L("theorem", "5.1"))
	}

	type nodeGauges struct {
		ns       *nodeState
		cur, max telemetry.Gauge
	}
	var gs []nodeGauges
	for _, id := range cl.Servers {
		ns := rt.node(id)
		if ns == nil || !ns.metered {
			continue
		}
		nl := telemetry.L("node", strconv.Itoa(int(id)))
		gs = append(gs, nodeGauges{
			ns:  ns,
			cur: reg.Gauge(telemetry.MetricStorageBits, "current per-node storage bits (sampled)", sl, nl),
			max: reg.Gauge(telemetry.MetricStorageMaxBits, "per-node storage-bit watermark (sampled)", sl, nl),
		})
	}

	sampleLink := rt.link.sampler(reg, sl)

	var lagG, retainedG telemetry.Gauge
	var observedC, verifiedC telemetry.Counter
	if chk != nil {
		lagG = reg.Gauge(telemetry.MetricCheckerLag, "online checker window lag (ops observed beyond the verified prefix)", sl)
		retainedG = reg.Gauge(telemetry.MetricCheckerRetained, "ops the online checker currently retains", sl)
		observedC = reg.Counter(telemetry.MetricCheckerObserved, "ops the online checker has observed", sl)
		verifiedC = reg.Counter(telemetry.MetricCheckerVerified, "ops the online checker has verified", sl)
	}

	sample := func() {
		maxSeen := int64(0)
		for _, g := range gs {
			g.cur.Set(float64(g.ns.curBits.Load()))
			m := g.ns.maxBits.Load()
			g.max.Set(float64(m))
			if m > maxSeen {
				maxSeen = m
			}
		}
		if hasBounds && len(gs) > 0 {
			slack41.Set(float64(maxSeen) - b41)
			slack51.Set(float64(maxSeen) - b51)
		}
		sampleLink()
		if chk != nil {
			obs, ver := chk.OpsObserved(), chk.OpsVerified()
			lagG.Set(float64(chk.WindowLag()))
			retainedG.Set(float64(obs - ver))
			observedC.Raise(uint64(obs))
			verifiedC.Raise(uint64(ver))
		}
	}

	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(telemetry.DefaultInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample() // final: publish the end-of-run watermark
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	rt.stopTelemetry = func() {
		close(done)
		<-finished
	}
}
