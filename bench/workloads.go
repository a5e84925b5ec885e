package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	shmem "repro"
)

// Every workload runs N=5 servers tolerating f=1 crash.
const (
	servers = 5
	faulty  = 1
)

// params is what one run of one workload is given. The seed is the only
// source of workload randomness: keys, read/write draws and value headers all
// derive from it.
type params struct {
	seed    int64
	seconds float64
	// smoke shrinks every op count about a hundredfold so the whole harness
	// runs in a few seconds under go test.
	smoke bool
	// tel is set for the traced run only; end-to-end metrics are measured
	// with telemetry off.
	tel *shmem.Telemetry
	// single makes a run one segment long, for the traced run.
	single bool
}

func (p params) scale(n int) int {
	if p.smoke {
		n /= 100
		if n < 40 {
			n = 40
		}
	}
	return n
}

func (p params) budget() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// segment is one timed slice of a run: a fixed number of operations (so
// counts repeat run to run), measured from outside the program.
type segment struct {
	ops    int // completed operations
	failed int // errored, timed out or still pending
	wall   time.Duration
	cpu    time.Duration // getrusage user+sys spent during the segment
	// Per-operation latencies: all pooled, and split by kind where the
	// workload issues operations itself (interactive workloads).
	lats, wlats, rlats []time.Duration
	// Storage high-water marks over log2|V|.
	totalBitsNorm, maxServerBitsNorm float64

	// Raw material for the per-layer metrics.
	inside      time.Duration // Result.Elapsed of a RunMulti call
	verified    int64
	windowLag   int
	faults      shmem.FaultStats
	fingerprint string
	due, late   int // open loop: operations due in the slice, and those over the limit
	genLate     []time.Duration
}

// driver is one workload's load generator. Set-up time is open plus warm:
// everything a run does before it measures.
type driver interface {
	// open deploys the store and completes one operation on it: Open, deploy,
	// listen and dial.
	open() error
	// warm runs a tenth of a segment, untimed.
	warm() error
	// measure runs timed segments for about p.seconds and returns them.
	measure() ([]segment, error)
	// verify checks the outputs the run accumulated; a violation is an error.
	verify() error
	close()
	// notes are printed with the result: what the run injected, what is
	// expected and not a failure.
	notes() []string
}

// drivers maps every workload name in BENCHMARK.json to its generator.
var drivers = map[string]func(p params) driver{
	"live-abd-64b-pipe": func(p params) driver {
		return &batchDriver{p: p, backend: "live", opsPerSeg: p.scale(80000)}
	},
	"net-abd-64b-pipe": func(p params) driver {
		return &batchDriver{p: p, backend: "net", opsPerSeg: p.scale(10000)}
	},
	"live-casgc-64k": func(p params) driver {
		return &closedDriver{p: p, opsPerSeg: p.scale(6000)}
	},
	"net-casgc-16k-faults": func(p params) driver { return &openDriver{p: p} },
	"sim-faultgrid-1k": func(p params) driver {
		return &simDriver{p: p, opsPerSeg: p.scale(60000), interactive: p.scale(4000)}
	},
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// valueSource hands out write values that are distinct across the whole run
// and cheap to build: one seeded pseudo-random body per source, copied, with
// a unique 8-byte header (seed, source, counter). The program keeps
// references to written values, so every value is a fresh allocation.
type valueSource struct {
	body   []byte
	prefix uint64
	issued atomic.Uint64
}

func newValueSource(size int, seed int64, source int) *valueSource {
	prefix := uint64(seed)<<40 | uint64(source&0xff)<<32
	return &valueSource{body: shmem.MakeValue(size, prefix), prefix: prefix}
}

func (s *valueSource) next() []byte {
	v := make([]byte, len(s.body))
	copy(v, s.body)
	binary.BigEndian.PutUint64(v, s.prefix|s.issued.Add(1))
	return v
}

// wrote reports whether v is a value this source has handed out.
func (s *valueSource) wrote(v []byte) bool {
	if len(v) != len(s.body) {
		return false
	}
	h := binary.BigEndian.Uint64(v)
	n := h &^ s.prefix
	return h&^0xffffffff == s.prefix && n >= 1 && n <= s.issued.Load() && bytes.Equal(v[8:], s.body[8:])
}

// valueSources are the clients writing to one register.
type valueSources []*valueSource

// check takes a read's results and fails unless the read succeeded and
// returned the initial (empty) value or a value one of the sources wrote.
func (vs valueSources) check(v []byte, err error) error {
	if err != nil || len(v) == 0 {
		return err
	}
	for _, s := range vs {
		if s.wrote(v) {
			return nil
		}
	}
	return fmt.Errorf("a read returned %d bytes that no client wrote", len(v))
}

// options adds the traced run's telemetry registry to a workload's options.
func (p params) options(opts ...shmem.Option) []shmem.Option {
	if p.tel != nil {
		opts = append(opts, shmem.WithTelemetry(p.tel))
	}
	return opts
}

func storageNorm(m shmem.Metrics, valueBytes int) (total, maxServer float64) {
	log2V := float64(8 * valueBytes)
	return float64(m.AggregateMaxTotalBits) / log2V, float64(m.MaxServerBits) / log2V
}

// timeSegments calls one until the budget is spent: a run always has at
// least three segments (one when p.single), and stops when the next one
// would overrun.
func (p params) timeSegments(one func(i int) (segment, error)) ([]segment, error) {
	var segs []segment
	start := time.Now()
	for i := 0; ; i++ {
		// Every segment starts from a collected heap, so that how much
		// garbage the previous one left does not decide this one's pauses.
		runtime.GC()
		s, err := one(i)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		segs = append(segs, s)
		if spent := time.Since(start); p.single || (len(segs) >= 3 && spent+spent/time.Duration(len(segs)) > p.budget()) {
			return segs, nil
		}
	}
}

// batchDriver is the closed loop through Store.RunMulti: abd-mwmr, 2 writers
// + 2 readers, pipeline 8, 64-byte values, 30% reads, online-checked.
type batchDriver struct {
	p         params
	backend   string
	opsPerSeg int
	st        *shmem.Store
}

func (d *batchDriver) open() error {
	st, err := shmem.Open(shmem.Config{
		Algorithms: []string{"abd-mwmr"}, Servers: servers, F: faulty, Backend: d.backend, Seed: d.p.seed,
	}, d.p.options(shmem.WithClients(2, 2), shmem.WithPipeline(8), shmem.WithOnlineCheck())...)
	if err != nil {
		return err
	}
	d.st = st
	return st.Put(context.Background(), 0, newValueSource(64, d.p.seed, 0xff).next())
}

func (d *batchDriver) spec(i int) shmem.MultiWorkloadSpec {
	return shmem.MultiWorkloadSpec{
		Seed: d.p.seed*1000 + int64(i), Keys: 64, Ops: d.opsPerSeg,
		ReadFraction: 0.3, TargetNu: 2, ValueBytes: 64,
	}
}

func (d *batchDriver) warm() error {
	spec := d.spec(-1)
	spec.Ops /= 10
	_, err := d.st.RunMulti(spec)
	return err
}

func (d *batchDriver) measure() ([]segment, error) {
	return d.p.timeSegments(func(i int) (segment, error) { return runMultiSegment(d.st, d.spec(i)) })
}

// runMultiSegment times one RunMulti call from outside. RunMulti returns an
// error on any consistency violation, so a result is a checked result.
func runMultiSegment(st *shmem.Store, spec shmem.MultiWorkloadSpec) (segment, error) {
	cpu0, t0 := cpuTime(), time.Now()
	res, err := st.RunMulti(spec)
	s := segment{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if err != nil {
		return s, err
	}
	s.inside = res.Elapsed
	for _, sh := range res.PerShard {
		s.failed += sh.PendingOps
		s.lats = append(s.lats, sh.Latencies...)
	}
	s.ops = res.TotalOps - s.failed
	s.totalBitsNorm = res.NormalizedTotal
	s.maxServerBitsNorm = float64(res.MaxServerBits) / res.Log2V
	s.verified, s.windowLag = res.OpsVerified, res.MaxWindowLag
	s.faults = res.Faults
	s.fingerprint = res.Fingerprint()
	return s, nil
}

func (d *batchDriver) verify() error { return d.st.CheckConsistency() }
func (d *batchDriver) close()        { d.st.Close() }
func (d *batchDriver) notes() []string {
	return []string{"no faults, delay or loss injected; messages cross " + map[string]string{
		"live": "in-process mailboxes", "net": "loopback TCP"}[d.backend]}
}

// closedDriver is the interactive closed loop: casgc (k=3) on live, two
// client goroutines alternating write and read of 64 KiB on one key.
type closedDriver struct {
	p         params
	opsPerSeg int
	st        *shmem.Store
	sources   valueSources
}

const (
	closedValueBytes = 64 << 10
	// closedSyncOps is how many operations each client issues between
	// barriers. With both clients saturated there is otherwise never an
	// instant with nothing in flight, the online checker never finds a clean
	// cut to retire its window at, and memory grows with the run (5 GB after
	// 54k operations): the barrier is the interactive analogue of the
	// SyncOps quiescence point RunMulti installs under WithOnlineCheck.
	closedSyncOps = 128
)

// barrier is a reusable rendezvous for n goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

func (d *closedDriver) open() error {
	st, err := shmem.Open(shmem.Config{
		Algorithms: []string{"casgc"}, Servers: servers, F: faulty, Backend: "live", Seed: d.p.seed,
	}, d.p.options(shmem.WithClients(2, 2), shmem.WithOnlineCheck())...)
	if err != nil {
		return err
	}
	d.st = st
	if d.sources == nil {
		d.sources = valueSources{newValueSource(closedValueBytes, d.p.seed, 0), newValueSource(closedValueBytes, d.p.seed, 1)}
	}
	return st.PutAs(context.Background(), 0, 0, d.sources[0].next())
}

// reopen replaces the store with a fresh one after checking the old one's
// outputs. The live runtime's per-client operation log keeps every value an
// interactive session ever wrote or read (64 KiB per operation here, 4 GB
// over a 20 s run), and throughput falls as that grows; a store per segment
// keeps segments alike while peak_rss_mb still shows what one segment's
// worth of operations retains.
func (d *closedDriver) reopen() error {
	if err := verifyStore(d.st); err != nil {
		return err
	}
	d.st.Close()
	return d.open()
}

func (d *closedDriver) segment(ops int) (segment, error) {
	ctx := context.Background()
	samples := make([][]opSample, len(d.sources))
	var wg sync.WaitGroup
	sync := newBarrier(len(d.sources))
	cpu0, t0 := cpuTime(), time.Now()
	for c := range d.sources {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops/len(d.sources); i++ {
				if i%closedSyncOps == 0 {
					sync.wait()
				}
				var s opSample
				if s.write = i%2 == 0; s.write {
					v := d.sources[c].next()
					t := time.Now()
					s.err = d.st.PutAs(ctx, c, 0, v)
					s.lat = time.Since(t)
				} else {
					t := time.Now()
					v, err := d.st.GetAs(ctx, c, 0)
					s.lat = time.Since(t)
					s.err = d.sources.check(v, err)
				}
				samples[c] = append(samples[c], s)
			}
		}(c)
	}
	wg.Wait()
	s := segment{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if err := s.addSamples(samples, 0); err != nil {
		return s, err
	}
	s.totalBitsNorm, s.maxServerBitsNorm = storageNorm(d.st.Metrics(), closedValueBytes)
	return s, nil
}

// addSamples folds interactive operations into the segment. Any failed
// operation fails the run: the workloads are chosen so that none does.
func (s *segment) addSamples(samples [][]opSample, limit time.Duration) error {
	for _, cl := range samples {
		for _, o := range cl {
			if o.err != nil {
				return o.err
			}
			s.ops++
			s.lats = append(s.lats, o.lat)
			if o.write {
				s.wlats = append(s.wlats, o.lat)
			} else {
				s.rlats = append(s.rlats, o.lat)
			}
			if limit > 0 {
				s.due++
				if o.lat > limit {
					s.late++
				}
				s.genLate = append(s.genLate, o.genLate)
			}
		}
	}
	return nil
}

func (d *closedDriver) warm() error {
	_, err := d.segment(d.opsPerSeg / 10)
	return err
}

func (d *closedDriver) measure() ([]segment, error) {
	return d.p.timeSegments(func(int) (segment, error) {
		if err := d.reopen(); err != nil {
			return segment{}, err
		}
		return d.segment(d.opsPerSeg)
	})
}

func (d *closedDriver) verify() error { return verifyStore(d.st) }
func (d *closedDriver) close()        { d.st.Close() }
func (d *closedDriver) notes() []string {
	return []string{"no faults, delay or loss injected; messages cross in-process mailboxes"}
}

// verifyStore reads off the interactive verdict: the online checker's
// standing result plus the residual window, and nothing left pending.
func verifyStore(st *shmem.Store) error {
	if err := st.CheckConsistency(); err != nil {
		return err
	}
	if m := st.Metrics(); m.PendingOps != 0 {
		return fmt.Errorf("%d operations still pending at the end of the run", m.PendingOps)
	}
	return nil
}

// openDriver is the open loop: casgc on net, 2 clients x 500 ops/s, 16 KiB,
// 50% reads, latency from the due time against a 10 ms limit, while one
// server crashes and recovers and a quorum-killing partition heals.
type openDriver struct {
	p       params
	st      *shmem.Store
	sources valueSources
	sched   faultSchedule
	opened  time.Time
	// How long after the partition healed, and after the crashed server
	// recovered, the first operation completed.
	firstAfterHeal, firstAfterRecover time.Duration
}

const (
	openValueBytes = 16 << 10
	openRate       = 500 // operations per second per client
	openLimit      = 10 * time.Millisecond
	openStepDur    = 100 * time.Microsecond
	openSlices     = 10
)

// faultSchedule places the faults at fixed shares of the run: one server
// (crash-f) down from 10% to 30%, and the f+1 highest servers cut off from
// everyone for 300 ms at 50%. No delay or loss is injected.
type faultSchedule struct {
	crash, recover, cut, heal time.Duration
}

func newFaultSchedule(run time.Duration) faultSchedule {
	return faultSchedule{crash: run / 10, recover: run * 3 / 10, cut: run / 2, heal: run/2 + 300*time.Millisecond}
}

func (f faultSchedule) spec() string {
	step := func(d time.Duration) int { return int(d / openStepDur) }
	return fmt.Sprintf("crash-f@%d:%d+partition@%d:%d", step(f.crash), step(f.recover), step(f.cut), step(f.heal))
}

func (d *openDriver) open() error {
	d.sched = newFaultSchedule(d.p.budget())
	d.opened = time.Now()
	st, err := shmem.Open(shmem.Config{
		Algorithms: []string{"casgc"}, Servers: servers, F: faulty, Backend: "net", Seed: d.p.seed,
		Net: shmem.NetConfig{StepDur: openStepDur},
	}, d.p.options(shmem.WithClients(2, 2), shmem.WithOnlineCheck(), shmem.WithFaults(d.sched.spec()))...)
	if err != nil {
		return err
	}
	d.st = st
	d.sources = valueSources{newValueSource(openValueBytes, d.p.seed, 0), newValueSource(openValueBytes, d.p.seed, 1)}
	return st.PutAs(context.Background(), 0, 0, d.sources[0].next())
}

// warm dials every connection and fills the pools with a short closed loop
// before the schedule starts; the fault clock is already running, and the
// first fault is a tenth of the run away.
func (d *openDriver) warm() error {
	ctx := context.Background()
	for i := 0; i < d.p.scale(200)/2; i++ {
		for c := range d.sources {
			if err := d.st.PutAs(ctx, c, 0, d.sources[c].next()); err != nil {
				return err
			}
			if _, err := d.st.GetAs(ctx, c, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *openDriver) measure() ([]segment, error) {
	ctx := context.Background()
	n := int(d.p.seconds * openRate)
	n -= n % openSlices
	samples := make([][]opSample, len(d.sources))
	cpuMarks := make([]time.Duration, openSlices+1)
	var wg sync.WaitGroup
	// The fault clock started inside Open; the schedule starts here, so the
	// fault times below are offsets from d.opened, not from start.
	start := time.Now()
	for c := range d.sources {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.p.seed*2 + int64(c)))
			samples[c] = openLoop(start, n, time.Second/openRate, func(i int) (bool, func() error) {
				if c == 0 && i%(n/openSlices) == 0 {
					cpuMarks[i/(n/openSlices)] = cpuTime()
				}
				if rng.Float64() >= 0.5 {
					v := d.sources[c].next()
					return true, func() error { return d.st.PutAs(ctx, c, 0, v) }
				}
				return false, func() error { return d.sources.check(d.st.GetAs(ctx, c, 0)) }
			})
		}(c)
	}
	wg.Wait()
	cpuMarks[openSlices] = cpuTime()
	wall := time.Since(start)
	m := d.st.Metrics()
	total, maxServer := storageNorm(m, openValueBytes)

	per := n / openSlices
	segs := make([]segment, openSlices)
	for i := range segs {
		s := &segs[i]
		if err := s.addSamples([][]opSample{samples[0][i*per : (i+1)*per], samples[1][i*per : (i+1)*per]}, openLimit); err != nil {
			return nil, err
		}
		s.wall = wall / openSlices
		s.cpu = cpuMarks[i+1] - cpuMarks[i]
		s.totalBitsNorm, s.maxServerBitsNorm = total, maxServer
		s.faults = m.Faults
		s.verified, s.windowLag = m.OpsVerified, m.MaxWindowLag
	}
	offset := start.Sub(d.opened)
	d.firstAfterHeal = firstCompletionAfter(samples, d.sched.heal-offset)
	d.firstAfterRecover = firstCompletionAfter(samples, d.sched.recover-offset)
	return segs, nil
}

// firstCompletionAfter is how long after the instant at (an offset from the
// schedule's start) the first operation completed.
func firstCompletionAfter(samples [][]opSample, at time.Duration) time.Duration {
	best := time.Duration(-1)
	for _, cl := range samples {
		for _, o := range cl {
			if done := o.due + o.lat; done >= at && (best < 0 || done-at < best) {
				best = done - at
			}
		}
	}
	return best
}

func (d *openDriver) verify() error {
	if err := verifyStore(d.st); err != nil {
		return err
	}
	if f := d.st.Metrics().Faults; f.Crashes != 1 || f.Recoveries != 1 || f.DelayedMessages == 0 || f.Checkpoints == 0 {
		return fmt.Errorf("fault schedule did not execute as planned: %+v", f)
	}
	return nil
}

func (d *openDriver) close() { d.st.Close() }
func (d *openDriver) notes() []string {
	return []string{
		fmt.Sprintf("faults %s at %v per step: server 5 down %v-%v, servers 4,5 cut off %v-%v; no delay or loss injected",
			d.sched.spec(), openStepDur, d.sched.crash, d.sched.recover, d.sched.cut, d.sched.heal),
		"frames sent to the crashed server are counted as TransportDropped; that is expected and not a failure",
	}
}

// simDriver is the deterministic grid: 4 shards cycling casgc/abd-mwmr under
// four fault scenarios, Zipf keys, nu=2, 1 KiB values, offline check on.
// Each segment is interactive Put/Get on the handle's standing shards, which
// is where a simulator operation has a latency a caller can see, followed by
// one RunMulti batch (throughput, storage, exact counts).
type simDriver struct {
	p           params
	opsPerSeg   int
	interactive int
	st          *shmem.Store
	sources     valueSources // one: the simulator serializes operations anyway
	rng         *rand.Rand
	zipf        *rand.Zipf
}

const (
	simValueBytes = 1 << 10
	simKeys       = 64
)

var simFaults = []string{"none", "crash-f@10", "partition@40:4000", "delay=1:16"}

var simAlgorithms = []string{"casgc", "abd-mwmr"}

// openSim opens the grid with the given number of shards, each cycling
// through the algorithms and fault scenarios.
func openSim(seed int64, shards int) (*shmem.Store, error) {
	return shmem.Open(shmem.Config{
		Algorithms: simAlgorithms, Servers: servers, F: faulty, Shards: shards,
		Backend: "sim", Faults: simFaults, Seed: seed, Workers: runtime.NumCPU(),
	})
}

// simSpec is the batch of one segment. The seed is the same every segment:
// the simulator must reproduce the result.
func simSpec(seed int64, ops int) shmem.MultiWorkloadSpec {
	return shmem.MultiWorkloadSpec{
		Seed: seed, Keys: simKeys, Ops: ops, ReadFraction: 0.3, Skew: "zipf",
		TargetNu: 2, ValueBytes: simValueBytes,
	}
}

func (d *simDriver) open() error {
	st, err := openSim(d.p.seed, len(simFaults))
	if err != nil {
		return err
	}
	d.st = st
	d.sources = valueSources{newValueSource(simValueBytes, d.p.seed, 0)}
	d.rng = rand.New(rand.NewSource(d.p.seed))
	d.zipf = rand.NewZipf(d.rng, 1.2, 1, simKeys-1)
	return st.Put(context.Background(), 0, d.sources[0].next())
}

func (d *simDriver) segment(batchOps, interactive int) (segment, error) {
	// The interactive operations go first, on the freshly collected heap:
	// they take microseconds each, and behind the batch they would be timed
	// against whatever collection the batch's garbage had set off.
	ctx := context.Background()
	ops := make([]opSample, 0, interactive)
	for i := 0; i < interactive; i++ {
		key := int(d.zipf.Uint64())
		var o opSample
		if o.write = d.rng.Float64() >= 0.3; o.write {
			v := d.sources[0].next()
			t := time.Now()
			o.err = d.st.Put(ctx, key, v)
			o.lat = time.Since(t)
		} else {
			t := time.Now()
			v, err := d.st.Get(ctx, key)
			o.lat = time.Since(t)
			o.err = d.sources.check(v, err)
		}
		ops = append(ops, o)
	}
	s, err := runMultiSegment(d.st, simSpec(d.p.seed, batchOps))
	if err != nil {
		return s, err
	}
	// Throughput is the batch's; the interactive operations contribute only
	// their latencies.
	batch := s.ops
	if err := s.addSamples([][]opSample{ops}, 0); err != nil {
		return s, err
	}
	s.ops = batch
	return s, nil
}

func (d *simDriver) warm() error {
	_, err := d.segment(d.opsPerSeg/10, d.interactive/10)
	return err
}

func (d *simDriver) measure() ([]segment, error) {
	segs, err := d.p.timeSegments(func(int) (segment, error) { return d.segment(d.opsPerSeg, d.interactive) })
	if err != nil {
		return nil, err
	}
	for _, s := range segs[1:] {
		if s.fingerprint != segs[0].fingerprint {
			return nil, fmt.Errorf("simulator fingerprints differ across segments of one seed: %s vs %s", segs[0].fingerprint, s.fingerprint)
		}
	}
	// crash-f@10 crashes one server on every shard that runs it, for good.
	if f := segs[0].faults; f.Crashes != 1 || f.Recoveries != 0 || f.DelayedMessages == 0 {
		return nil, fmt.Errorf("fault schedule did not execute as planned: %+v", f)
	}
	return segs, nil
}

func (d *simDriver) verify() error { return verifyStore(d.st) }
func (d *simDriver) close()        { d.st.Close() }
func (d *simDriver) notes() []string {
	return []string{fmt.Sprintf("shards cycle %v under faults %v (steps, simulated time); storage, step and fault counts repeat exactly for a seed", simAlgorithms, simFaults)}
}
