package main

import (
	"fmt"
	"time"
)

// endToEnd computes the end-to-end metrics of one run: every timing is taken
// per segment and reported as the median over segments.
func endToEnd(segs []segment, setups []time.Duration) map[string]stat {
	var opsPerS, p50, total, maxServer, setup []float64
	obs := 0
	for _, s := range segs {
		opsPerS = append(opsPerS, float64(s.ops)/s.wall.Seconds())
		lats := sortDurations(s.lats)
		p50 = append(p50, micros(percentile(lats, 0.5)))
		total = append(total, s.totalBitsNorm)
		maxServer = append(maxServer, s.maxServerBitsNorm)
		obs = len(lats)
	}
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	m := map[string]stat{
		"setup_s":              summarize(setup),
		"ops_per_s":            summarize(opsPerS),
		"op_p50_us":            summarize(p50),
		"peak_rss_mb":          summarize([]float64{peakRSSMB()}),
		"total_bits_norm":      summarize(total),
		"max_server_bits_norm": summarize(maxServer),
	}
	p50Stat := m["op_p50_us"]
	p50Stat.Obs = obs
	m["op_p50_us"] = p50Stat
	return m
}

// unsteady computes the user-visible metrics that did not repeat within their
// bound on every workload and are therefore per-layer metrics: the tail (the
// 90th percentile, and the 99th or the highest with ten samples beyond it)
// and CPU time per operation. All are taken per segment, like the end-to-end
// timings.
func unsteady(segs []segment) map[string]stat {
	var p90, p99, cpu []float64
	obs := 0
	for _, s := range segs {
		lats := sortDurations(s.lats)
		p90 = append(p90, micros(percentile(lats, 0.9)))
		p99 = append(p99, micros(percentile(lats, tailQuantile(len(lats), 0.99))))
		cpu = append(cpu, micros(s.cpu)/float64(s.ops))
		obs = len(lats)
	}
	out := map[string]stat{"op_p90_us": summarize(p90), "op_p99_us": summarize(p99), "cpu_us_per_op": summarize(cpu)}
	for _, name := range []string{"op_p90_us", "op_p99_us"} {
		s := out[name]
		s.Obs = obs
		out[name] = s
	}
	return out
}

// kindLatency reports the per-kind latency medians and the failure and
// lateness shares of a run. They are per-layer metrics because they have no
// meaning on every workload: RunMulti does not say which latency belongs to
// a read, and only the open loop has a due time to be late against.
func kindLatency(segs []segment) map[string]float64 {
	var w, r, genLate []float64
	var attempted, failed, due, late int
	for _, s := range segs {
		if len(s.wlats) > 0 {
			w = append(w, micros(percentile(sortDurations(s.wlats), 0.5)))
		}
		if len(s.rlats) > 0 {
			r = append(r, micros(percentile(sortDurations(s.rlats), 0.5)))
		}
		if len(s.genLate) > 0 {
			g := sortDurations(s.genLate)
			genLate = append(genLate, micros(percentile(g, tailQuantile(len(g), 0.99))))
		}
		attempted += s.ops + s.failed
		failed += s.failed
		due += s.due
		late += s.late
	}
	out := map[string]float64{"write_p50_us": 0, "read_p50_us": 0, "late_share": 0, "bench.gen_late_p99_us": 0}
	if len(w) > 0 {
		out["write_p50_us"] = median(w)
	}
	if len(r) > 0 {
		out["read_p50_us"] = median(r)
	}
	if len(genLate) > 0 {
		out["bench.gen_late_p99_us"] = median(genLate)
	}
	out["failed_share"] = float64(failed) / float64(attempted)
	if due > 0 {
		out["late_share"] = float64(late) / float64(due)
	}
	return out
}

func attempts(segs []segment) (attempted, failed int) {
	for _, s := range segs {
		attempted += s.ops + s.failed
		failed += s.failed
	}
	return attempted, failed
}

func formatStat(name string, s stat) string {
	line := fmt.Sprintf("  %-30s %14.4f %-6s", name, s.Value, s.Unit)
	if s.N > 1 {
		line += fmt.Sprintf(" iqr [%.4f, %.4f] (%.1f%%) over %d samples", s.Q1, s.Q3, 100*s.spread(), s.N)
	}
	if s.Obs > 0 {
		line += fmt.Sprintf(" of %d ops", s.Obs)
	}
	return line
}
