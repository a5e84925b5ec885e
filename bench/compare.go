package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare for one (metric, workload) pair.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for one end-to-end metric. The change is
// measured in the direction that is worse, as a share of a's median. A
// reported value is a median over n samples, and IQR/sqrt(n) approximates
// that median's standard error; when it is wider than the bound for either
// run, the pair is unresolved: the data cannot tell a regression of the
// bound's size from noise, so it is reported as neither same nor worse.
func judge(m metricSpec, a, b stat) (verdict string, change float64) {
	switch {
	case a.Value == b.Value:
		change = 0
	case a.Value == 0:
		change = math.Inf(1)
	default:
		change = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if m.Better == "higher" {
		change = -change
	}
	if m.Bound == nil {
		return "", change
	}
	noise := math.Max(medianNoise(a), medianNoise(b))
	switch {
	case noise > *m.Bound:
		return verdictUnresolved, change
	case change > *m.Bound:
		return verdictWorse, change
	case change < -*m.Bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

func medianNoise(s stat) float64 {
	if s.N == 0 {
		return 0
	}
	return s.spread() / math.Sqrt(float64(s.N))
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*result
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*result{}
	for _, r := range list {
		out[r.Workload] = r
	}
	return out, nil
}

// compareFiles prints, per (metric, workload), how the second result file
// moved against the first, judged by the bounds in BENCHMARK.json, and
// returns an error when any end-to-end metric got worse. Per-layer metrics
// have no bound: their change is printed without a verdict.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "change is the second file against the first in the direction that is worse, as a share of the first")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: not in both files\n", wl.Name)
			continue
		}
		if ra.Trace != rb.Trace {
			return fmt.Errorf("%s: one file is a traced run and the other is not", wl.Name)
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		metrics := spec.EndToEnd
		if ra.Trace {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is not in both files", wl.Name, m.Name)
			}
			verdict, change := judge(m, sa, sb)
			counts[verdict]++
			fmt.Fprintf(w, "  %-30s %14.4f -> %14.4f %-6s %+7.1f%%  %s\n", m.Name, sa.Value, sb.Value, m.Unit, 100*change, verdict)
		}
	}
	fmt.Fprintf(w, "%d same, %d better, %d worse, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return errors.New("at least one end-to-end metric got worse by more than its bound")
	}
	return nil
}
