package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchSpec is BENCHMARK.json: the one place that names the workloads and
// every metric with its unit, direction and regression bound. The program
// computes values by name and takes everything else from here.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the root of the checkout: the working
// directory when run through bench/run.sh, its parent under go test.
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, s.validate()
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate enforces the limits the acceptance driver refuses a file over.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("BENCHMARK.json: %d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("BENCHMARK.json: %d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("BENCHMARK.json: %d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("BENCHMARK.json: workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("BENCHMARK.json: metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: metric %s: better must be lower or higher", m.Name)
		}
		endToEnd := i < len(s.EndToEnd)
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("BENCHMARK.json: end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("BENCHMARK.json: per-layer metric %s has a bound", m.Name)
		}
		if endToEnd && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("BENCHMARK.json: no end-to-end metric setup_s (unit s, better lower)")
	}
	return nil
}

func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
