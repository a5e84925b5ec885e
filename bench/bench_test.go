package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) from Python 3.
	cases := []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 2, 9, 4, 4, 7}, [3]float64{2, 4, 7}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	s := summarize([]float64{10, 12, 11, 13, 9})
	if s.Value != 11 || s.N != 5 || math.Abs(s.spread()-(12.5-9.5)/11) > 1e-12 {
		t.Errorf("summarize = %+v (spread %v)", s, s.spread())
	}
}

func TestPercentileAndTailQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := percentile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := percentile(ds, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %d", got)
	}
	// The 99th percentile needs 1000 samples to have ten beyond it; smaller
	// samples fall back to the highest quantile that does, never below p50.
	for n, want := range map[int]float64{1000: 0.99, 6000: 0.99, 200: 0.95, 40: 0.75, 10: 0.5} {
		if got := tailQuantile(n, 0.99); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

// An injected 50 ms stall must appear in the latencies of the operations
// that came due while the client was stuck, shrinking as the backlog drains,
// and must not be blamed on the generator.
func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	const interval, stallAt, stall = time.Millisecond, 10, 50 * time.Millisecond
	out := openLoop(time.Now(), 100, interval, func(i int) (bool, func() error) {
		return i%2 == 0, func() error {
			if i == stallAt {
				time.Sleep(stall)
			}
			return nil
		}
	})
	if len(out) != 100 {
		t.Fatalf("%d samples, want 100", len(out))
	}
	if out[stallAt].lat < stall {
		t.Errorf("stalled op latency %v, want >= %v", out[stallAt].lat, stall)
	}
	// Op 11 was due 1 ms after op 10 and could only start when it returned.
	if got := out[stallAt+1].lat; got < stall-2*interval {
		t.Errorf("op after the stall has latency %v from its due time, want about %v", got, stall-interval)
	}
	// Ops 11..59 came due during the stall; each is charged what is left of it.
	for i := stallAt + 1; i < stallAt+40; i++ {
		want := stall - time.Duration(i-stallAt)*interval
		if out[i].lat < want-interval {
			t.Errorf("op %d latency %v, want at least %v", i, out[i].lat, want-interval)
		}
		if out[i].genLate > 5*time.Millisecond {
			t.Errorf("op %d: backlog of %v blamed on the generator", i, out[i].genLate)
		}
	}
	if last := out[99].lat; last > 20*time.Millisecond {
		t.Errorf("backlog never drained: last op latency %v", last)
	}
	for i, o := range out {
		if want := time.Duration(i) * interval; o.due != want || o.write != (i%2 == 0) {
			t.Fatalf("op %d: due %v write %v", i, o.due, o.write)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 35},
		{ID: 6, Parent: 1, StartNs: 200, EndNs: 300}, // outside the parent: covers nothing
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The critical path is the client's own work plus, per round trip, the
// slowest server's chain; off-path and replayed spans are left out, and
// replayed erasure time moves out of the client step.
func TestBudgetCriticalPath(t *testing.T) {
	const client, s1, s2 = 101, 1, 2
	at := int64(0)
	mk := func(layer string, node, phase int, dur int64, off, replay bool) span {
		s := span{Parent: 1, Op: 1, Layer: layer, Node: node, Phase: phase, OffPath: off, Replay: replay, StartNs: at, EndNs: at + dur}
		at += dur
		return s
	}
	spans := []span{{ID: 1, Op: 1, Layer: layerOp, Node: client, StartNs: 0, EndNs: 1000}}
	for _, s := range []span{
		mk("cas.client_step", client, 1, 100, false, false),
		mk("cas.server_deliver", s1, 1, 10, false, false),
		mk("cas.server_deliver", s2, 1, 30, false, false),
		mk(layerHop, s2, 1, 5, false, false),
		mk("cas.client_step", client, 1, 7, false, false),
		mk("cas.client_step", client, 1, 9, true, false), // late reply
		mk(layerErasure, client, 0, 40, false, true),
		mk(layerObserve, client, 0, 3, false, false),
	} {
		s.ID = len(spans) + 1
		spans = append(spans, s)
	}
	rows := budgetOf(spans, "cas.client_step")
	check := func(layer string, calls int, self, critical int64) {
		t.Helper()
		r := rows[layer]
		if r == nil || r.calls != calls || r.selfNs != self || r.criticalNs != critical {
			t.Errorf("%s = %+v, want calls %d self %d critical %d", layer, r, calls, self, critical)
		}
	}
	check("cas.client_step", 3, 116-40, 107-40)
	check("cas.server_deliver", 2, 40, 30) // server 2's chain (30+5) beats server 1's
	check(layerHop, 1, 5, 5)
	check(layerErasure, 1, 40, 40)
	check(layerObserve, 1, 3, 3)
}

func TestBenchmarkFileIsValidAndComplete(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if drivers[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
		if _, ok := traceProfiles[w.Name]; !ok {
			t.Errorf("workload %s has no trace profile", w.Name)
		}
	}
	if len(drivers) != len(spec.Workloads) {
		t.Errorf("%d drivers for %d workloads", len(drivers), len(spec.Workloads))
	}
	if len(spec.Command) == 0 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
}

func TestBenchmarkFileLimits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(s *benchSpec)) error {
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		return s.validate()
	}
	bound := 0.3
	many := func(n int) []metricSpec {
		var ms []metricSpec
		for i := 0; i < n; i++ {
			ms = append(ms, metricSpec{Name: "m" + strings.Repeat("x", i%60) + string(rune('a'+i%26)) + string(rune('a'+i/26%26)), Unit: "ms", Better: "lower"})
		}
		return ms
	}
	cases := map[string]func(s *benchSpec){
		"one workload":           func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"nine workloads":         func(s *benchSpec) { s.Workloads = append(s.Workloads, make([]workloadSpec, 4)...) },
		"space in a name":        func(s *benchSpec) { s.Workloads[0].Name = "live abd" },
		"name starts with a dot": func(s *benchSpec) { s.PerLayer[0].Name = ".hidden" },
		"name of 65 characters":  func(s *benchSpec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"name used twice":        func(s *benchSpec) { s.PerLayer[0].Name = s.EndToEnd[1].Name },
		"unit with a space":      func(s *benchSpec) { s.PerLayer[0].Unit = "per op" },
		"unit of 17 characters":  func(s *benchSpec) { s.PerLayer[0].Unit = strings.Repeat("u", 17) },
		"direction":              func(s *benchSpec) { s.PerLayer[0].Better = "faster" },
		"bound over a quarter":   func(s *benchSpec) { s.EndToEnd[0].Bound = &bound },
		"end-to-end, no bound":   func(s *benchSpec) { s.EndToEnd[1].Bound = nil },
		"per-layer with a bound": func(s *benchSpec) { s.PerLayer[0].Bound = s.EndToEnd[0].Bound },
		"no setup_s":             func(s *benchSpec) { s.EndToEnd[0].Name = "startup_s" },
		"17 end-to-end metrics":  func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, many(17)...) },
		"129 per-layer metrics":  func(s *benchSpec) { s.PerLayer = many(129) },
		"no per-layer metrics":   func(s *benchSpec) { s.PerLayer = nil },
		"61 second runs":         func(s *benchSpec) { s.RunSeconds = 61 },
		"why of 201 characters":  func(s *benchSpec) { s.Workloads[0].Why = strings.Repeat("y", 201) },
	}
	for name, f := range cases {
		if mutate(f) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := mutate(func(*benchSpec) {}); err != nil {
		t.Errorf("unchanged file rejected: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	tenth := 0.1
	lower := metricSpec{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: &tenth}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &tenth}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	loose := func(v float64) stat { return stat{Value: v, Q1: v * 0.7, Q3: v * 1.3, N: 4} }
	cases := []struct {
		m    metricSpec
		a, b stat
		want string
	}{
		{lower, tight(100), tight(105), verdictSame},
		{lower, tight(100), tight(115), verdictWorse},
		{lower, tight(100), tight(85), verdictBetter},
		{higher, tight(100), tight(85), verdictWorse},
		{higher, tight(100), tight(115), verdictBetter},
		{lower, loose(100), tight(130), verdictUnresolved},
		{lower, tight(100), loose(100), verdictUnresolved},
		{lower, stat{Value: 5, Q1: 5, Q3: 5, N: 1}, stat{Value: 6, Q1: 6, Q3: 6, N: 1}, verdictWorse},
	}
	for _, c := range cases {
		if got, change := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s (%+.2f), want %s", c.m.Name, c.a.Value, c.b.Value, got, change, c.want)
		}
	}

	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(scale float64) string {
		var list []*result
		for _, w := range spec.Workloads {
			r := &result{Workload: w.Name, Metrics: map[string]stat{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = tight(100)
			}
			if w.Name == spec.Workloads[1].Name {
				r.Metrics["op_p50_us"] = tight(100 * scale)
			}
			list = append(list, r)
		}
		data, _ := json.Marshal(list)
		path := t.TempDir() + "/r.json"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, spec, write(1), write(1.05)); err != nil {
		t.Errorf("5%% slower rejected: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, write(1), write(1.3)); err == nil || !strings.Contains(out.String(), "1 worse") {
		t.Errorf("30%% slower accepted (err %v):\n%s", err, out.String())
	}
}

func TestValueSourceRecognisesOnlyItsOwnValues(t *testing.T) {
	a, b := newValueSource(64, 7, 0), newValueSource(64, 7, 1)
	v1, v2 := a.next(), a.next()
	if bytes.Equal(v1, v2) {
		t.Fatal("two values of one source are equal")
	}
	if !a.wrote(v1) || !a.wrote(v2) || b.wrote(v1) {
		t.Error("source does not tell its own values from another's")
	}
	forged := append([]byte(nil), v1...)
	forged[20] ^= 1
	unissued := append([]byte(nil), v1...)
	unissued[7] = 9
	if a.wrote(forged) || a.wrote(unissued) || a.wrote(v1[:32]) {
		t.Error("source accepted a value it never handed out")
	}
	both := valueSources{b, a}
	if both.check(nil, nil) != nil || both.check(v1, nil) != nil || both.check(forged, nil) == nil || both.check(v1, os.ErrClosed) != os.ErrClosed {
		t.Error("valueSources.check")
	}
}

// The smoke pass runs every workload end to end and traced at tiny op
// counts: it exercises the harness and the correctness checks, and measures
// nothing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass skipped in -short mode")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prev, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil { // span files go to bench/out under the working directory
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	if err := os.WriteFile("BENCHMARK.json", mustRead(t, prev+"/../BENCHMARK.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		p := params{seed: 3, seconds: 0.4, smoke: true}
		if w.Name == "net-casgc-16k-faults" {
			p.seconds = 1.2 // room for the crash, the recovery and the 300 ms partition
		}
		var out bytes.Buffer
		res, err := runEndToEnd(&out, spec, w.Name, p)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, out.String())
		}
		for _, m := range spec.EndToEnd {
			if s := res.Metrics[m.Name]; s.Value <= 0 || s.Unit != m.Unit {
				t.Errorf("%s: %s = %+v", w.Name, m.Name, s)
			}
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", w.Name, res.Attempted, res.Failed)
		}
		out.Reset()
		traced, err := runTraced(&out, spec, w.Name, p)
		if err != nil {
			t.Fatalf("%s traced: %v\n%s", w.Name, err, out.String())
		}
		if len(traced.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.Name, len(traced.Metrics), len(spec.PerLayer))
		}
		if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
		// Only the net workloads cross the wire codec.
		net := strings.HasPrefix(w.Name, "net-")
		if ns := traced.Metrics["wire.encode_ns_per_msg"].Value; net != (ns > 0) {
			t.Errorf("%s: wire.encode_ns_per_msg = %v", w.Name, ns)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
