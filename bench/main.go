// Command bench is the repository's benchmark: five named workloads on the
// sim, live and net backends, end-to-end metrics measured from outside with
// telemetry off, and a separate traced run that yields a per-layer budget.
// BENCHMARK.json at the root of the repository names the workloads and every
// metric; bench/README.md explains them.
//
//	bash bench/run.sh --seed 1                      every workload, one child process each
//	bash bench/run.sh --seed 1 --trace 1            the traced run: per-layer metrics and budget
//	bash bench/run.sh --workload W --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.json b.json        noise-aware regression gate
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds what a run leaves behind: span files and combined results.
const outDir = "bench/out"

// result is one workload's run in full: what -compare reads.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// driverLine is the last line of standard output, in the acceptance
// driver's format.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
	seed := fs.Int64("seed", 1, "workload seed: the only source of workload randomness")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with telemetry off; 1: the traced run, per-layer metrics and budget")
	smoke := fs.Bool("smoke", false, "tiny op counts: exercises the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	out := fs.String("out", "", "combined result file (default "+outDir+"/result-seed<seed>[-trace].json)")
	detail := fs.Bool("detail", false, "also print the full result as one 'detail' line (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	p := params{seed: *seed, seconds: *seconds, smoke: *smoke}
	if *workload == "" {
		return runAll(stdout, spec, p, *trace == 1, *out)
	}
	if drivers[*workload] == nil {
		return fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(workloadNames(spec), ", "))
	}
	printEnvironment(stdout, p)
	var res *result
	if *trace == 1 {
		res, err = runTraced(stdout, spec, *workload, p)
	} else {
		res, err = runEndToEnd(stdout, spec, *workload, p)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	return printResult(stdout, res, *detail)
}

func workloadNames(spec *benchSpec) []string {
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// A run sets the workload up again and again for setupTime, between 3 and 15
// times, and reports the median. Set-up is everything before the first timed
// segment: Open (deploy, listen, dial), the first operation, and the warm-up.
// All repetitions sit in the run's first second, so a host hiccup there moves
// one run's value; across runs the median holds (sampling once more ahead of
// every segment was tried: on live-abd-64b-pipe a set-up in a busy process is
// a third faster about half the time, and the median flipped between runs).
const (
	setupTime    = time.Second
	minSetupReps = 3
	maxSetupReps = 15
)

// setUp opens and warms a fresh driver and returns how long that took.
func setUp(name string, p params) (driver, time.Duration, error) {
	d := drivers[name](p)
	t0 := time.Now()
	if err := d.open(); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := d.warm(); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, time.Since(t0), nil
}

// runEndToEnd measures one workload with telemetry off and checks its
// outputs. Any violation is an error: no metrics are printed.
func runEndToEnd(w io.Writer, spec *benchSpec, name string, p params) (*result, error) {
	minReps, maxReps := minSetupReps, maxSetupReps
	if p.smoke {
		minReps, maxReps = 2, 2
	}
	var setups []time.Duration
	var d driver
	for start := time.Now(); len(setups) < minReps || (len(setups) < maxReps && time.Since(start) < setupTime); {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		if d, took, err = setUp(name, p); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer d.close()
	segs, err := d.measure()
	if err != nil {
		return nil, err
	}
	if err := d.verify(); err != nil {
		return nil, fmt.Errorf("outputs incorrect: %w", err)
	}
	for _, n := range d.notes() {
		fmt.Fprintln(w, "note:", n)
	}
	for i, s := range segs {
		lats := sortDurations(s.lats)
		fmt.Fprintf(w, "segment %2d: %6d ops in %8.1f ms, %9.0f ops/s, p50 %9.1f us, p90 %9.1f us, cpu %7.2f us/op\n",
			i, s.ops, s.wall.Seconds()*1000, float64(s.ops)/s.wall.Seconds(),
			micros(percentile(lats, 0.5)), micros(percentile(lats, 0.9)), micros(s.cpu)/float64(s.ops))
	}
	res := &result{Workload: name, Seed: p.seed, Metrics: endToEnd(segs, setups)}
	res.Attempted, res.Failed = attempts(segs)
	if res.Failed != 0 {
		return nil, fmt.Errorf("%d of %d operations failed; the workloads are chosen so that none does", res.Failed, res.Attempted)
	}
	moved := unsteady(segs)
	for _, name := range []string{"op_p90_us", "op_p99_us", "cpu_us_per_op"} {
		s := moved[name]
		s.Unit = "us"
		fmt.Fprintln(w, "also:"+formatStat(name, s))
	}
	extra := kindLatency(segs)
	fmt.Fprintf(w, "also: write_p50_us %.1f read_p50_us %.1f late_share %.4f failed_share %.4f bench.gen_late_p99_us %.1f (per-layer metrics; 0 = not defined on this workload)\n",
		extra["write_p50_us"], extra["read_p50_us"], extra["late_share"], extra["failed_share"], extra["bench.gen_late_p99_us"])
	return res, setUnits(spec, res, spec.EndToEnd)
}

// setUnits stamps units from BENCHMARK.json and insists the result carries
// exactly the metrics the file lists for this kind of run.
func setUnits(spec *benchSpec, res *result, want []metricSpec) error {
	for _, m := range want {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		s.Unit = m.Unit
		res.Metrics[m.Name] = s
	}
	if len(res.Metrics) != len(want) {
		for name := range res.Metrics {
			if _, ok := spec.metric(name); !ok {
				return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
			}
		}
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d for this run", len(res.Metrics), len(want))
	}
	return nil
}

func printEnvironment(w io.Writer, p params) {
	load := "unknown"
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		load = fmt.Sprintf("%.2f", float64(si.Loads[0])/65536)
	}
	fmt.Fprintf(w, "bench: seed %d, %.0f s per run, nproc %d, GOMAXPROCS %d, %s, commit %s, loadavg %s, N=%d f=%d\n",
		p.seed, p.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), load, servers, faulty)
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

func printResult(w io.Writer, res *result, detail bool) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (seed %d): %d operations attempted, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	line := driverLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintln(w, formatStat(name, s))
		line.Metrics[name] = driverValue{Value: s.Value, Unit: s.Unit}
	}
	if detail {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "detail %s\n", data)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runAll re-executes this binary once per workload, so that set-up time,
// peak memory and CPU time belong to exactly one workload, and writes the
// combined results where -compare can read them.
func runAll(w io.Writer, spec *benchSpec, p params, trace bool, out string) error {
	printEnvironment(w, p)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []*result
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wl.Name, wl.Why)
		args := []string{"-workload", wl.Name, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds), "-detail"}
		if trace {
			args = append(args, "-trace", "1")
		}
		if p.smoke {
			args = append(args, "-smoke")
		}
		res, err := runChild(w, self, args)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		results = append(results, res)
	}
	if out == "" {
		suffix := ""
		if trace {
			suffix = "-trace"
		}
		out = filepath.Join(outDir, fmt.Sprintf("result-seed%d%s.json", p.seed, suffix))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nresults written to %s\n", out)
	return nil
}

// runChild runs one workload in a child process, passes its report through
// and returns the result from its detail line. The child is waited for
// before this returns.
func runChild(w io.Writer, self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *result
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "detail "); ok {
			res = new(result)
			if err := json.Unmarshal([]byte(data), res); err != nil {
				res = nil
			}
			continue
		}
		if strings.HasPrefix(line, "{") || strings.HasPrefix(line, "bench: seed") {
			continue // the driver-format line and the repeated header
		}
		fmt.Fprintln(w, line)
	}
	io.Copy(io.Discard, pipe) // a line too long for the scanner must not leave the child blocked on a full pipe
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, errors.New("child printed no result")
	}
	return res, nil
}
