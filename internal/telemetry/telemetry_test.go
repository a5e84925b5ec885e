package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help", L("shard", "0"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same series regardless of label
	// argument order.
	c2 := reg.Counter("c_total", "help", L("shard", "0"))
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after aliased inc = %d, want 6", got)
	}
	multi := reg.Counter("m_total", "", L("a", "1"), L("b", "2"))
	multi.Inc()
	if got := reg.Counter("m_total", "", L("b", "2"), L("a", "1")).Value(); got != 1 {
		t.Fatalf("label order should not matter, got %d", got)
	}

	g := reg.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestCounterRaiseIsMonotone(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("r_total", "")
	c.Raise(10)
	c.Raise(7) // must not move backward
	if got := c.Value(); got != 10 {
		t.Fatalf("after Raise(10), Raise(7): %d, want 10", got)
	}
	c.Raise(12)
	if got := c.Value(); got != 12 {
		t.Fatalf("after Raise(12): %d, want 12", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "")
}

// TestHistogramConcurrency hammers one histogram from parallel writers
// while a reader snapshots mid-write; run under -race this doubles as the
// data-race proof, and the final snapshot must account for every observe.
func TestHistogramConcurrency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", LatencyBuckets())
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			s := h.Snapshot()
			var sum uint64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Count {
				t.Errorf("snapshot internally inconsistent: bucket sum %d != count %d", sum, s.Count)
				return
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int) {
			defer ww.Done()
			v := float64(seed+1) * 1e-5
			for i := 0; i < perWriter; i++ {
				h.Observe(v)
				v = math.Mod(v*1.7+1e-6, 12)
			}
		}(w)
	}
	ww.Wait()
	close(stopRead)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count %d, want %d", s.Count, writers*perWriter)
	}
}

// TestSnapshotMergeAssociative checks (a⊕b)⊕c == a⊕(b⊕c) for histogram
// snapshots — the property that makes per-shard merge order irrelevant.
func TestSnapshotMergeAssociative(t *testing.T) {
	mk := func(vals ...float64) HistogramSnapshot {
		h := newHistogram(LatencyBuckets())
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a, b, c := mk(1e-5, 2e-3, 7), mk(0.3, 0.4), mk(1e-4, 1e-4, 99, 0.02)

	left := mk()
	for _, s := range []HistogramSnapshot{a, b} {
		if err := left.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := mk()
	for _, s := range []HistogramSnapshot{b, c} {
		if err := bc.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	right := mk()
	for _, s := range []HistogramSnapshot{a, bc} {
		if err := right.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if left.Count != right.Count || math.Abs(left.Sum-right.Sum) > 1e-9 {
		t.Fatalf("merge not associative: count %d vs %d, sum %g vs %g", left.Count, right.Count, left.Sum, right.Sum)
	}
	for i := range left.Counts {
		if left.Counts[i] != right.Counts[i] {
			t.Fatalf("bucket %d: %d vs %d", i, left.Counts[i], right.Counts[i])
		}
	}

	bad := newHistogram([]float64{1, 2}).Snapshot()
	if err := left.Merge(bad); err == nil {
		t.Fatal("merging mismatched bounds should error")
	}
}

func TestQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(1.5) // le=2 bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(7) // le=8 bucket
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %g, want 2", got)
	}
	if got := s.Quantile(0.99); got != 8 {
		t.Fatalf("p99 = %g, want 8", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

// TestWritePrometheusGolden pins the exact exposition-format output for a
// small registry: header lines, label rendering, histogram expansion with
// cumulative buckets, and name-sorted order.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shmem_ops_total", "ops completed", L("shard", "0"), L("kind", "write")).Add(3)
	reg.Counter("shmem_ops_total", "ops completed", L("shard", "0"), L("kind", "read")).Add(2)
	reg.Gauge("shmem_storage_bits", "per-node storage", L("node", "1")).Set(96)
	h := reg.Histogram("shmem_lat_seconds", "op latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP shmem_lat_seconds op latency
# TYPE shmem_lat_seconds histogram
shmem_lat_seconds_bucket{le="0.01"} 1
shmem_lat_seconds_bucket{le="0.1"} 3
shmem_lat_seconds_bucket{le="+Inf"} 4
shmem_lat_seconds_sum 3.105
shmem_lat_seconds_count 4
# HELP shmem_ops_total ops completed
# TYPE shmem_ops_total counter
shmem_ops_total{kind="read",shard="0"} 2
shmem_ops_total{kind="write",shard="0"} 3
# HELP shmem_storage_bits per-node storage
# TYPE shmem_storage_bits gauge
shmem_storage_bits{node="1"} 96
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestTracerSamplingAndStages(t *testing.T) {
	tr := NewTracer(1, 8) // sample everything
	sp := tr.Begin("write")
	if sp == nil {
		t.Fatal("every=1 must sample")
	}
	sp.Mark(StageQueue)
	sp.Mark(StageStart)
	sp.Mark(StageEffect)
	sp.Mark(StageComplete)
	sp.End()
	var nilSpan *Span
	nilSpan.Mark(StageQueue) // must not panic
	nilSpan.End()

	recs := tr.Records()
	if len(recs) != 1 || !recs[0].Completed || recs[0].Kind != "write" {
		t.Fatalf("records = %+v", recs)
	}
	for st, ns := range recs[0].StageNs {
		if ns < 0 {
			t.Fatalf("stage %v unmarked", Stage(st))
		}
	}
	st := tr.StageSnapshot()
	if st["complete"].Count != 1 {
		t.Fatalf("complete stage count = %d, want 1", st["complete"].Count)
	}

	tr2 := NewTracer(10, 4)
	sampled := 0
	for i := 0; i < 100; i++ {
		if s := tr2.Begin("read"); s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-10 sampling over 100 ops yielded %d spans", sampled)
	}
	if got := len(tr2.Records()); got != 4 {
		t.Fatalf("ring should cap at 4, got %d", got)
	}
}

func TestSummarizeAndLogStats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricOpsCompleted, "", L("shard", "0"), L("kind", "write")).Add(40)
	reg.Counter(MetricOpsCompleted, "", L("shard", "1"), L("kind", "read")).Add(2)
	reg.Counter(MetricOpsFailed, "", L("shard", "0"), L("kind", "write")).Add(1)
	h := reg.Histogram(MetricOpLatency, "", LatencyBuckets(), L("shard", "0"), L("kind", "write"))
	for i := 0; i < 100; i++ {
		h.Observe(2e-3)
	}
	reg.Gauge(MetricStorageMaxBits, "", L("shard", "0"), L("node", "1")).Set(128)
	reg.Gauge(MetricStorageBoundBits, "", L("shard", "0"), L("theorem", "4.1")).Set(170.7)
	reg.Gauge(MetricCheckerLag, "", L("shard", "0")).Set(3)

	s := Summarize(reg)
	if s.Ops != 42 || s.Failed != 1 {
		t.Fatalf("ops=%d failed=%d", s.Ops, s.Failed)
	}
	if s.P50 != 2500*time.Microsecond { // le=2.5ms bucket upper bound
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.MaxStorageBits != 128 || math.Abs(s.BoundBits-170.7) > 1e-9 || s.WindowLag != 3 {
		t.Fatalf("summary = %+v", s)
	}

	var buf strings.Builder
	var mu sync.Mutex
	lw := lockedWriter{mu: &mu, b: &buf}
	stop := LogStats(lw, reg, 10*time.Millisecond)
	time.Sleep(35 * time.Millisecond)
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "bound 171") || !strings.Contains(out, "window-lag 3") {
		t.Fatalf("stat line missing fields:\n%s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
