package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	shmem "repro"
	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/gf"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// traceProfile says which layers a workload crosses and how the walk drives
// them. Sim has no walk of automata: its layers are the kernel, the store
// pool and the offline checker.
type traceProfile struct {
	backend string
	// openLoop: the rate is fixed and the schedule is the whole run.
	openLoop bool
	walk     walkSpec
	algs     []string // algorithm mix, for the storage sims
	shards   int
}

var traceProfiles = map[string]traceProfile{
	"live-abd-64b-pipe": {backend: "live", shards: 1, algs: []string{"abd-mwmr"},
		walk: walkSpec{alg: "abd-mwmr", valueBytes: 64, writers: 2, readers: 2, ops: 1000, readShare: 0.3}},
	"net-abd-64b-pipe": {backend: "net", shards: 1, algs: []string{"abd-mwmr"},
		walk: walkSpec{alg: "abd-mwmr", net: true, valueBytes: 64, writers: 2, readers: 2, ops: 1000, readShare: 0.3}},
	"live-casgc-64k": {backend: "live", shards: 1, algs: []string{"casgc"},
		walk: walkSpec{alg: "casgc", valueBytes: closedValueBytes, writers: 2, readers: 2, ops: 500, alternate: true}},
	"net-casgc-16k-faults": {backend: "net", openLoop: true, shards: 1, algs: []string{"casgc"},
		walk: walkSpec{alg: "casgc", net: true, valueBytes: openValueBytes, writers: 2, readers: 2, ops: 500, readShare: 0.5}},
	"sim-faultgrid-1k": {backend: "sim", shards: len(simFaults), algs: simAlgorithms},
}

// runTraced is the traced run of one workload. It (1) repeats one segment
// with telemetry off and one with a registry on, and reads the program's own
// counters and tracer, (2) walks the workload's operation mix through the
// layers' public functions with a span around every call, and (3) measures
// single layers in isolation. Every per-layer metric in BENCHMARK.json is
// reported; one whose layer this workload does not cross is 0.
func runTraced(w io.Writer, spec *benchSpec, name string, p params) (*result, error) {
	prof := traceProfiles[name]
	m := map[string]float64{}
	for _, ms := range spec.PerLayer {
		m[ms.Name] = 0
	}
	p.single = true
	if prof.openLoop {
		// The open loop's schedule is the whole run; the traced one is
		// shorter, with the faults at the same shares of it.
		p.seconds /= 2
	}

	if p.smoke {
		prof.walk.ops /= 10
	}

	// (1) Segments with telemetry off and on, alternating, each on a fresh
	// store: the medians of the two sides give the tracing overhead, the
	// last traced one the program's counters. The simulator is not
	// instrumented and the open loop's rate is fixed, so neither can show
	// what telemetry costs and they run the traced side once.
	pairs := 3
	comparePlain := prof.backend != "sim" && !prof.openLoop
	if !comparePlain || p.smoke {
		pairs = 1
	}
	var plainRate, tracedRate []float64
	var traced segment
	var slices []segment
	var d driver
	var reg *shmem.Telemetry
	var before, after runtime.MemStats
	var err error
	for i := 0; i < pairs; i++ {
		if comparePlain {
			plain, _, _, err := oneSegment(name, p)
			if err != nil {
				return nil, fmt.Errorf("untraced segment: %w", err)
			}
			plainRate = append(plainRate, float64(plain.ops)/plain.wall.Seconds())
		}
		reg = shmem.NewTelemetry()
		pt := p
		pt.tel = reg
		runtime.ReadMemStats(&before)
		if traced, slices, d, err = oneSegment(name, pt); err != nil {
			return nil, fmt.Errorf("traced segment: %w", err)
		}
		runtime.ReadMemStats(&after)
		tracedRate = append(tracedRate, float64(traced.ops)/traced.wall.Seconds())
	}
	ops := float64(traced.ops)
	lats := sortDurations(traced.lats)
	opP50 := micros(percentile(lats, 0.5))
	if m["session.open_ms"], err = openTime(name, p); err != nil {
		return nil, err
	}
	// Allocation counts cover the whole traced run of the workload, the
	// generator's own values included (one value-sized allocation per write).
	m["session.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["session.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	if traced.inside > 0 {
		m["store.runmulti_overhead_ms"] = (traced.wall - traced.inside).Seconds() * 1000
	}
	if comparePlain {
		m["telemetry.overhead_share"] = 1 - median(tracedRate)/median(plainRate)
	}
	for k, v := range kindLatency(slices) {
		m[k] = v
	}
	for k, v := range unsteady(slices) {
		m[k] = v.Value
	}
	m["consistency.verified_share"] = float64(traced.verified) / ops
	m["consistency.max_window_lag"] = float64(traced.windowLag)
	m["faults.crashes_fired"] = float64(traced.faults.Crashes)
	m["faults.recoveries_fired"] = float64(traced.faults.Recoveries)
	m["faults.held_msgs"] = float64(traced.faults.DelayedMessages)
	m["faults.checkpoints"] = float64(traced.faults.Checkpoints)
	if od, ok := d.(*openDriver); ok {
		m["netrun.heal_to_first_op_ms"] = od.firstAfterHeal.Seconds() * 1000
		m["netrun.recover_to_first_op_ms"] = od.firstAfterRecover.Seconds() * 1000
	}
	queueWait, service := tracerStages(reg)
	if prof.backend == "net" {
		sent := counterSum(reg, telemetry.MetricTransportFramesSent)
		if batches := counterSum(reg, telemetry.MetricTransportBatchesSent); batches > 0 {
			m["transport.frames_per_batch"] = sent / batches
		}
		m["transport.bytes_per_op"] = counterSum(reg, telemetry.MetricTransportBytesSent) / ops
		m["transport.dropped_frames"] = counterSum(reg, telemetry.MetricTransportDroppedFull) + counterSum(reg, telemetry.MetricTransportDroppedDead)
		m["transport.requeued_frames"] = counterSum(reg, telemetry.MetricTransportRequeued)
	}

	// (2) The layer walk and the budget it yields.
	var rec *recorder
	if prof.backend == "sim" {
		if rec, err = simLayers(w, m, p, traced); err != nil {
			return nil, err
		}
	} else {
		wk, err := layerWalk(prof.walk, p.seed)
		if err != nil {
			return nil, err
		}
		rec = wk.rec
		critical := walkMetrics(w, m, wk, opP50, queueWait, service)
		rt := map[string]string{"live": "live", "net": "netrun"}[prof.backend]
		m[rt+".queue_wait_us"] = queueWait
		m[rt+".service_us"] = service
		m[rt+".residual_us"] = opP50 - queueWait - critical
		m[rt+".residual_share"] = m[rt+".residual_us"] / opP50
		// (3) Single layers in isolation, at this workload's sizes.
		if prof.walk.alg == "casgc" {
			if err := erasureMicro(m, prof.walk.valueBytes); err != nil {
				return nil, err
			}
		}
		if prof.walk.net {
			if err := wireAllocs(m, wk); err != nil {
				return nil, err
			}
			if err := transportMicro(m, wk.wireBytes/wk.frames); err != nil {
				return nil, err
			}
		}
	}
	path, err := rec.write(outDir, "trace-"+name+".json")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(rec.spans), path)

	if err := storageSims(m, p.seed, prof, traced); err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: p.seed, Trace: true, Metrics: map[string]stat{}}
	res.Attempted, res.Failed = attempts([]segment{traced})
	for k, v := range m {
		res.Metrics[k] = stat{Value: v, Q1: v, Q3: v, N: 1}
	}
	return res, setUnits(spec, res, spec.PerLayer)
}

// oneSegment sets the workload up, warms it and measures a single segment,
// checks the outputs and closes the store. The open loop's one run comes
// back both as its slices and folded into one segment.
func oneSegment(name string, p params) (seg segment, segs []segment, d driver, err error) {
	if d, _, err = setUp(name, p); err != nil {
		return seg, nil, nil, err
	}
	defer d.close()
	if segs, err = d.measure(); err != nil {
		return seg, nil, nil, err
	}
	if err := d.verify(); err != nil {
		return seg, nil, nil, fmt.Errorf("outputs incorrect: %w", err)
	}
	if _, failed := attempts(segs); failed != 0 {
		return seg, nil, nil, fmt.Errorf("%d operations failed", failed)
	}
	if len(segs) == 1 {
		return segs[0], segs, d, nil
	}
	// The open loop's slices: fold them back into the one run they are.
	for _, s := range segs {
		seg.ops += s.ops
		seg.failed += s.failed
		seg.wall += s.wall
		seg.lats = append(seg.lats, s.lats...)
	}
	last := segs[len(segs)-1]
	seg.totalBitsNorm, seg.maxServerBitsNorm = last.totalBitsNorm, last.maxServerBitsNorm
	seg.faults, seg.verified, seg.windowLag = last.faults, last.verified, last.windowLag
	return seg, segs, d, nil
}

// openTime is the median over 41 repetitions of Open to the first completed
// operation, in milliseconds: the part of set-up that is not warm-up.
func openTime(name string, p params) (float64, error) {
	var ms []float64
	for i := 0; i < 41; i++ {
		d := drivers[name](p)
		t0 := time.Now()
		err := d.open()
		ms = append(ms, time.Since(t0).Seconds()*1000)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		d.close()
	}
	return median(ms), nil
}

// counterSum adds a counter family's series over nodes and shards.
func counterSum(reg *shmem.Telemetry, name string) float64 {
	total := 0.0
	for _, s := range reg.Gather() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// tracerStages reads the program's sampled op tracer: the median time a
// sampled operation waited in the client's queue before its node started it,
// and from start to the response taking effect.
func tracerStages(reg *shmem.Telemetry) (queueWaitUs, serviceUs float64) {
	var wait, service []float64
	for _, r := range reg.Tracer().Records() {
		q, s, e := r.StageNs[telemetry.StageQueue], r.StageNs[telemetry.StageStart], r.StageNs[telemetry.StageEffect]
		if q >= 0 && s >= q {
			wait = append(wait, float64(s-q)/1e3)
		}
		if s >= 0 && e >= s {
			service = append(service, float64(e-s)/1e3)
		}
	}
	if len(wait) == 0 || len(service) == 0 {
		return 0, 0
	}
	return median(wait), median(service)
}

// walkMetrics turns the walk's spans into the per-layer metrics, prints the
// budget table and returns the critical path in microseconds per operation.
func walkMetrics(w io.Writer, m map[string]float64, wk *walked, opP50, queueWait, service float64) float64 {
	rows := budgetOf(wk.rec.spans, wk.clientLayer)
	ops := float64(wk.ops)
	perCall := func(layer string) float64 {
		if r := rows[layer]; r != nil && r.calls > 0 {
			return float64(r.selfNs) / float64(r.calls)
		}
		return 0
	}
	m[wk.proto+".client_step_ns"] = perCall(wk.clientLayer)
	m[wk.proto+".server_deliver_ns"] = perCall(wk.srvLayer)
	if wk.proto == "abd" {
		m["abd.msgs_per_op"] = float64(wk.msgsWrite+wk.msgsRead) / ops
	} else {
		m["cas.msgs_per_write"] = float64(wk.msgsWrite) / float64(wk.writes)
		m["cas.msgs_per_read"] = float64(wk.msgsRead) / float64(wk.reads)
		m["erasure.encode_us_per_write"] = float64(wk.encodeNs) / 1e3 / float64(wk.writes)
		m["erasure.decode_us_per_read"] = float64(wk.decodeNs) / 1e3 / float64(wk.reads)
	}
	m["consistency.observe_ns_per_op"] = perCall(layerObserve)
	if wk.frames > 0 {
		m["wire.encode_ns_per_msg"] = perCall(layerEncode)
		m["wire.decode_ns_per_msg"] = perCall(layerDecode)
		m["wire.bytes_per_op"] = float64(wk.wireBytes) / ops
	}

	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "layer budget from a single-goroutine walk of %d operations (times per operation):\n", wk.ops)
	fmt.Fprintf(w, "  %-24s %9s %11s %13s %10s\n", "layer", "calls/op", "self us/op", "on path us/op", "of op_p50")
	critical := 0.0
	for _, name := range names {
		r := rows[name]
		onPath := float64(r.criticalNs) / 1e3 / ops
		if name != layerOp {
			critical += onPath
		}
		fmt.Fprintf(w, "  %-24s %9.2f %11.3f %13.3f %9.1f%%\n", name, float64(r.calls)/ops, float64(r.selfNs)/1e3/ops, onPath, 100*onPath/opP50)
	}
	for _, absent := range []string{layerErasure, layerEncode, layerDecode, layerHop} {
		if rows[absent] == nil {
			fmt.Fprintf(w, "  %-24s %9.2f %11.3f %13.3f %9.1f%%\n", absent, 0.0, 0.0, 0.0, 0.0)
		}
	}
	fmt.Fprintf(w, "  %-24s %9s %11s %13.3f %9.1f%%\n", "critical path", "", "", critical, 100*critical/opP50)
	fmt.Fprintf(w, "  %-24s %9s %11s %13.3f %9.1f%%  (tracer: queued behind the client's earlier operations)\n", "queue wait p50", "", "", queueWait, 100*queueWait/opP50)
	fmt.Fprintf(w, "  %-24s %9s %11s %13.3f %9.1f%%  (mailbox hops, wake-ups, metering, checkpoints: not timeable from outside)\n", "residual", "", "", opP50-queueWait-critical, 100*(opP50-queueWait-critical)/opP50)
	fmt.Fprintf(w, "  %-24s %9s %11s %13.3f %9s   (traced segment)\n", "op_p50_us", "", "", opP50, "")
	fmt.Fprintf(w, "  %-24s %9s %11s %13.3f %9s   (tracer: from the node starting the operation to its response)\n", "service p50", "", "", service, "")
	return critical
}

// simLayers walks the simulator workload's layers and measures what only the
// simulator has: exact step counts, kernel speed, shard scaling.
func simLayers(w io.Writer, m map[string]float64, p params, traced segment) (*recorder, error) {
	rec, ops, steps, err := simWalk(simSpec(p.seed, traced.ops), simAlgorithms)
	if err != nil {
		return nil, err
	}
	self := selfTimes(rec.spans)
	byLayer := map[string]int64{}
	for _, s := range rec.spans {
		byLayer[s.Layer] += self[s.ID]
	}
	m["ioa.steps_per_op"] = float64(steps) / float64(ops)
	m["ioa.step_ns"] = float64(byLayer[layerSimRun]) / float64(steps)
	m["consistency.offline_check_ms"] = float64(byLayer[layerSimChk]) / 1e6
	fmt.Fprintf(w, "layer budget from a single-goroutine walk of the segment's %d shards, %d operations (times per operation):\n", len(simFaults), ops)
	fmt.Fprintf(w, "  %-28s %11s %10s\n", "layer", "self us/op", "share")
	total := 0.0
	for _, layer := range []string{layerDeploy, layerSimRun, layerSimChk, layerOp} {
		total += float64(byLayer[layer])
	}
	for _, layer := range []string{layerDeploy, layerSimRun, layerSimChk, layerOp} {
		fmt.Fprintf(w, "  %-28s %11.3f %9.1f%%\n", layer, float64(byLayer[layer])/1e3/float64(ops), 100*float64(byLayer[layer])/total)
	}
	fmt.Fprintf(w, "  serial walk %.0f ms; RunMulti on %d workers %.0f ms, of which %.1f ms outside the engine's own clock\n",
		total/1e6, runtime.NumCPU(), traced.wall.Seconds()*1000, m["store.runmulti_overhead_ms"])

	// Shard scaling at equal per-shard load: one shard with a quarter of the
	// operations against the four-shard segment.
	one, err := openSim(p.seed, 1)
	if err != nil {
		return nil, err
	}
	defer one.Close()
	s1, err := runMultiSegment(one, simSpec(p.seed, traced.ops/len(simFaults)))
	if err != nil {
		return nil, fmt.Errorf("one-shard run: %w", err)
	}
	m["store.shard_speedup"] = (float64(traced.ops) / traced.wall.Seconds()) / (float64(s1.ops) / s1.wall.Seconds())
	return rec, nil
}

// timeFor repeats f for about the duration and returns the time per call.
func timeFor(d time.Duration, f func()) time.Duration {
	f() // warm
	n, start := 0, time.Now()
	for time.Since(start) < d {
		f()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// erasureMicro measures the coding layer alone at the workload's n, k and
// value size.
func erasureMicro(m map[string]float64, valueBytes int) error {
	code, err := erasure.New(servers, servers-2*faulty)
	if err != nil {
		return err
	}
	value := shmem.MakeValue(valueBytes, 1)
	shards, err := code.Encode(value)
	if err != nil {
		return err
	}
	mbPerS := func(per time.Duration) float64 { return float64(valueBytes) / 1e6 / per.Seconds() }
	const each = 150 * time.Millisecond
	m["erasure.encode_mb_s"] = mbPerS(timeFor(each, func() { code.Encode(value) }))
	// Without shard 0 the decoder has to invert through a parity shard.
	m["erasure.decode_mb_s"] = mbPerS(timeFor(each, func() { code.Decode(shards[1:]) }))
	m["erasure.decode_fast_mb_s"] = mbPerS(timeFor(each, func() { code.Decode(shards[:code.K()]) }))
	src, dst := shards[0].Data, make([]byte, len(shards[0].Data))
	field := gf.Default()
	per := timeFor(each, func() { field.MulSlice(0x57, src, dst) })
	m["gf.mulslice_mb_s"] = float64(len(src)) / 1e6 / per.Seconds()
	return nil
}

// wireAllocs counts the codec's allocations over the walk's message mix.
func wireAllocs(m map[string]float64, wk *walked) error {
	var failure error
	n := mallocs(func() {
		for _, s := range wk.messages {
			frame, err := wire.Append(nil, s.Msg)
			if err == nil {
				_, err = wire.Decode(frame)
			}
			if err != nil {
				failure = err
			}
		}
	})
	m["wire.allocs_per_msg"] = float64(n) / float64(len(wk.messages))
	return failure
}

// transportMicro measures the transport alone: round trips of the workload's
// mean frame size between two endpoints on loopback, and a one-way stream of
// 16 KiB frames.
func transportMicro(m map[string]float64, frameBytes int) error {
	hops, err := newHopPair()
	if err != nil {
		return err
	}
	defer hops.close()
	frame := make([]byte, frameBytes)
	var rtts []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		f, err := hops.send(false, frame)
		if err == nil {
			_, err = hops.send(true, f)
		}
		if err != nil {
			return err
		}
		rtts = append(rtts, micros(time.Since(t0)))
	}
	m["transport.frame_rtt_us"] = median(rtts)

	// One way: keep the link full and count what the far handler receives.
	const streamFrame, streamFrames = 16 << 10, 4000
	big := make([]byte, streamFrame)
	t0 := time.Now()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < streamFrames; i++ {
			select {
			case <-hops.atB:
			case <-time.After(5 * time.Second):
				done <- fmt.Errorf("stream stalled after %d frames", i)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < streamFrames; i++ {
		if err := hops.a.Send(hops.b.Addr(), big); err != nil {
			return err
		}
	}
	if err := <-done; err != nil {
		return err
	}
	m["transport.stream_mb_s"] = float64(streamFrame*streamFrames) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// storageSims fills the core.* metrics from small exact simulator runs: the
// storage cost of casgc at write concurrency 1, 2 and 4 and of abd, and the
// workload's own measured storage against the paper's bound for its shape.
func storageSims(m map[string]float64, seed int64, prof traceProfile, traced segment) error {
	sim := func(alg string, nu int) (norm float64, peak int, err error) {
		st, err := shmem.Open(shmem.Config{Algorithms: []string{alg}, Servers: servers, F: faulty, Backend: "sim", Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		res, err := st.RunMulti(shmem.MultiWorkloadSpec{Seed: seed, Keys: 1, Ops: 400, ReadFraction: 0.3, TargetNu: nu, ValueBytes: 1024})
		if err != nil {
			return 0, 0, err
		}
		return res.NormalizedTotal, res.PeakActiveWrites, nil
	}
	for _, nu := range []int{1, 2, 4} {
		norm, _, err := sim("casgc", nu)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("core.casgc_bits_norm_nu%d", nu)] = norm
	}
	norm, _, err := sim("abd-mwmr", 2)
	if err != nil {
		return err
	}
	m["core.abd_bits_norm"] = norm
	// Every workload runs two writers per shard: the write concurrency the
	// simulator measures for that shape is the nu the bound is evaluated at.
	_, peak, err := sim(prof.algs[0], 2)
	if err != nil {
		return err
	}
	m["core.measured_nu"] = float64(peak)
	bound := core.NormalizedTheorem65(core.Params{N: servers, F: faulty}, peak)
	m["core.bound_ratio"] = traced.totalBitsNorm / float64(prof.shards) / bound
	return nil
}
