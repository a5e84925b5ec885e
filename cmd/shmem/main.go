// Command shmem is the one command of this reproduction. Its subcommands
// read the paper's tuple — (N, f), write concurrency ν, the value size — from
// the same flags, each declared once (settings.flags) and bound to its
// shmem.Config or shmem.MultiWorkloadSpec field; a subcommand passes its own
// defaults and registers only the flags it reads.
//
//	figure1  the Figure 1 series: normalized storage bounds against ν
//	bounds   Theorems B.1, 4.1, 5.1 and 6.5 at one configuration
//	proof    an executable lower-bound proof run against algorithm code
//	profile  one register's metered storage against every applicable bound
//	run      one checked Store.RunMulti on the sharded store: per-shard
//	         table, fault events, throughput, simulator fingerprint
//	grid     the fault-scenario library against every -algo and -backend
//	load     client-count sweeps on live or net: ops/sec, p50/p99, /metrics
//
// Every store run checks each shard's history against its algorithm's
// consistency condition, faults or not (-check=false opts out to measure
// unchecked throughput).
//
// Usage:
//
//	shmem figure1 -n 21 -f 10 -maxnu 16 -csv
//	shmem bounds -n 21 -f 10 -nu 8 -summary 4.0
//	shmem proof -thm 4.1 -algo twoversion -n 5 -f 2 -values 4
//	shmem profile -algo casgc -n 9 -f 2 -nu 3 -ops 19 -reads 0.21
//	shmem run -shards 8 -algo cas -keys 64 -skew zipf
//	shmem run -shards 6 -algo cas -faults crash-f,lossy=0.02,none
//	shmem grid -algo abd-mwmr,cas -backend live,net
//	shmem load -backend net -clients 1,8,64 -pipeline 8 -check=false
//	shmem load -clients 2 -ops 100000 -check-online -telemetry 127.0.0.1:9100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	shmem "repro"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shmem:", err)
		os.Exit(1)
	}
}

// errSubcommand reports a command line naming no subcommand of this binary.
var errSubcommand = errors.New("want a subcommand: figure1 | bounds | proof | profile | run | grid | load (each takes -h)")

// subcommands maps each subcommand's name to its entry point.
var subcommands = map[string]func(*flag.FlagSet, []string, io.Writer) error{
	"figure1": runFigure1, "bounds": runBounds, "proof": runProof, "profile": runProfile,
	"run": runOnce, "grid": runGrid, "load": runLoad,
}

// run executes one command line (args without the program name), writing
// its report to w. A -h request prints the subcommand's flags and succeeds.
func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errSubcommand
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q: %w", args[0], errSubcommand)
	}
	err := sub(flag.NewFlagSet("shmem "+args[0], flag.ContinueOnError), args[1:], w)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// settings is one parsed command line: the store configuration and the
// multi-key workload, each flag bound to the field it sets.
type settings struct {
	cfg    shmem.Config
	spec   shmem.MultiWorkloadSpec
	algo   string
	faults string
	check  bool
}

// flags declares the named flags several subcommands share, each defaulting
// to the current value of the field it sets — the subcommand's own default.
func (s *settings) flags(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "algo":
			fs.StringVar(&s.algo, name, s.algo, "algorithm (run, grid and load take a comma-separated list cycled per shard; proof takes twoversion | abd): "+strings.Join(shmem.StoreAlgorithms(), " | "))
		case "n":
			fs.IntVar(&s.cfg.Servers, name, s.cfg.Servers, "servers N (per shard)")
		case "f":
			fs.IntVar(&s.cfg.F, name, s.cfg.F, "tolerated server failures f (per shard)")
		case "nu":
			fs.IntVar(&s.spec.TargetNu, name, s.spec.TargetNu, "concurrent (active) writes ν (per shard)")
		case "seed":
			fs.Int64Var(&s.cfg.Seed, name, s.cfg.Seed, "workload and fault seed")
		case "valuebytes":
			fs.IntVar(&s.spec.ValueBytes, name, s.spec.ValueBytes, "bytes per written value")
		case "crashes":
			fs.IntVar(&s.spec.Crashes, name, s.spec.Crashes, "random server crashes per shard (sim only)")
		case "ops":
			fs.IntVar(&s.spec.Ops, name, s.spec.Ops, "total operations")
		case "reads":
			fs.Float64Var(&s.spec.ReadFraction, name, s.spec.ReadFraction, "fraction of operations that are reads")
		default:
			panic("shmem: no shared flag -" + name)
		}
	}
}

// params declares the named shared flags beside the ones fs already has,
// parses a paper subcommand's command line, validates the (N, f) shape and ν,
// and returns the shape.
func (s *settings) params(fs *flag.FlagSet, args []string, names ...string) (shmem.Params, error) {
	s.flags(fs, names...)
	if err := fs.Parse(args); err != nil {
		return shmem.Params{}, err
	}
	p := shmem.Params{N: s.cfg.Servers, F: s.cfg.F}
	if err := p.Validate(); err != nil {
		return p, err
	}
	if s.spec.TargetNu < 0 {
		return p, fmt.Errorf("-nu must be >= 0 (got %d)", s.spec.TargetNu)
	}
	return p, nil
}

// bind declares the flags run, grid and load share on fs — one spelling per
// Config or MultiWorkloadSpec field — with backend as -backend's default,
// beside the ones fs already has. It parses args into the bound fields and
// completes the ones a flag cannot set directly: the comma-separated lists
// and the inverted -check.
func bind(fs *flag.FlagSet, backend string, args []string) (*settings, error) {
	s := &settings{algo: "cas", cfg: shmem.Config{Servers: 5, F: 1, Seed: 1},
		spec: shmem.MultiWorkloadSpec{TargetNu: 2, ValueBytes: 128, Ops: 96, ReadFraction: 0.3}}
	s.flags(fs, "algo", "n", "f", "nu", "seed", "valuebytes", "crashes", "ops", "reads")
	fs.StringVar(&s.cfg.Backend, "backend", backend, "execution backend: "+strings.Join(shmem.StoreBackends(), " | ")+" (fingerprints are sim-only)")
	fs.IntVar(&s.cfg.Shards, "shards", 4, "number of independent register shards")
	fs.StringVar(&s.faults, "faults", "", "comma-separated fault scenarios, cycled per shard; grammar: "+shmem.FaultScenarioUsage())
	fs.IntVar(&s.cfg.Workers, "workers", 0, "parallel shard workers (0 = GOMAXPROCS)")
	fs.IntVar(&s.cfg.Net.Pipeline, "pipeline", 1, "live/net operations kept in flight per client (per-client order preserved)")
	fs.BoolVar(&s.check, "check", true, "consistency-check every shard history (disable to measure unchecked throughput)")
	fs.BoolVar(&s.cfg.OnlineCheck, "check-online", false, "live/net: verify the algorithm's condition with the streaming windowed checker while the run executes (memory bounded by the window)")
	fs.IntVar(&s.cfg.OnlineWindow, "check-window", 0, "online checker retirement window in operations (0 = default)")
	fs.DurationVar(&s.cfg.Net.StepDur, "stepdur", 0, "live/net wall-clock duration of one fault step, for delays and partition windows (0 = 100µs)")
	fs.DurationVar(&s.cfg.Net.OpTimeout, "optimeout", 0, "live/net per-operation timeout (0 = 5s; a quiescent shard costs one timeout)")
	fs.StringVar(&s.cfg.Net.ListenAddr, "listen", "127.0.0.1:0", "net listen address spec; keep the port 0 so every node gets its own ephemeral port")
	fs.IntVar(&s.spec.Keys, "keys", 32, "keyspace size")
	fs.StringVar(&s.spec.Skew, "skew", "uniform", "key popularity: uniform | zipf")
	fs.Float64Var(&s.spec.ZipfS, "zipfs", 0, "zipf exponent (> 1; 0 = default 1.2)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	s.cfg.Algorithms = strings.Split(s.algo, ",")
	if s.faults != "" {
		s.cfg.Faults = strings.Split(s.faults, ",")
	}
	s.cfg.SkipCheck = !s.check
	s.spec.Seed = s.cfg.Seed
	return s, nil
}

// execute opens a store on cfg, runs the workload on fresh clusters through
// the parallel engine, and closes the store. It returns the store's resolved
// Config — the configuration that ran — with the result.
func execute(cfg shmem.Config, spec shmem.MultiWorkloadSpec) (shmem.Config, *shmem.StoreResult, error) {
	st, err := shmem.Open(cfg)
	if err != nil {
		return cfg, nil, err
	}
	defer st.Close()
	res, err := st.RunMulti(spec)
	return st.Config(), res, err
}

// runOnce is one checked run; everything it prints about the configuration
// comes from Store.Config, the one that ran.
func runOnce(fs *flag.FlagSet, args []string, w io.Writer) error {
	s, err := bind(fs, "sim", args)
	if err != nil {
		return err
	}
	cfg, res, err := execute(s.cfg, s.spec)
	if err != nil {
		return err
	}
	p := shmem.Params{N: cfg.Servers, F: cfg.F}
	fmt.Fprintf(w, "sharded store    : %d shards x (N=%d f=%d), %d keys (%s), seed %d, backend %s\n",
		cfg.Shards, p.N, p.F, s.spec.Keys, s.spec.Skew, cfg.Seed, cfg.Backend)
	fmt.Fprintf(w, "operations       : %d writes + %d reads, per-shard target nu=%d, log2|V|=%.0f\n",
		res.TotalWrites, res.TotalReads, s.spec.TargetNu, res.Log2V)
	fmt.Fprintf(w, "fault scenarios  : %s\n", orNone(s.faults))
	fmt.Fprintln(w)
	fmt.Fprint(w, res.Table())
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fault events     : %d drops, %d delayed (%d steps held), %d crashes, %d recoveries, %d checkpoints\n",
		res.Faults.Drops, res.Faults.DelayedMessages, res.Faults.DelayStepsTotal,
		res.Faults.Crashes, res.Faults.Recoveries, res.Faults.Checkpoints)
	fmt.Fprintf(w, "liveness         : %d/%d shards quiescent\n", res.QuiescentShards, cfg.Shards)
	fmt.Fprintf(w, "aggregate storage: %d bits (normalized %.4f)\n", res.AggregateMaxTotalBits, res.NormalizedTotal)
	fmt.Fprintf(w, "largest shard    : %d bits; largest server: %d bits\n", res.MaxShardTotalBits, res.MaxServerBits)
	fmt.Fprintf(w, "throughput       : %d ops in %v (%.0f ops/sec, %d workers)\n",
		res.TotalOps, res.Elapsed.Round(time.Microsecond), res.OpsPerSec, res.Workers)
	fmt.Fprintf(w, "per-shard bounds : Theorem B.1 %.4f, Theorem 5.1 %.4f (normalized)\n",
		shmem.SingletonTotalBits(p, res.Log2V)/res.Log2V, shmem.Theorem51TotalBits(p, res.Log2V)/res.Log2V)
	fmt.Fprintf(w, "fingerprint      : %s\n", res.Fingerprint())
	return nil
}

// runGrid sweeps the standard scenario library (plus a fault-free control)
// against every -algo on every -backend, one two-shard store run per cell,
// and prints the verdict matrix: storage high-water marks, fault events and
// the checker verdict. -shards and -faults are the grid's own axes. Every
// cell's Config is resolved before anything is printed.
func runGrid(fs *flag.FlagSet, args []string, w io.Writer) error {
	s, err := bind(fs, strings.Join(shmem.StoreBackends(), ","), args)
	if err != nil {
		return err
	}
	specs := []string{"none"}
	for _, sc := range shmem.FaultScenarioLibrary() {
		specs = append(specs, sc.String())
	}
	var cells []shmem.Config // one per (scenario, algorithm, backend), resolved
	for _, spec := range specs {
		for _, algo := range s.cfg.Algorithms {
			for _, backend := range strings.Split(s.cfg.Backend, ",") {
				cell := s.cfg
				cell.Algorithms, cell.Backend, cell.Shards, cell.Faults = []string{algo}, backend, 2, []string{spec}
				cell, err := cell.Resolve()
				if err != nil {
					return fmt.Errorf("scenario %q algorithm %q backend %q: %w", spec, algo, backend, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	fmt.Fprintf(w, "scenario matrix: backends %s, N=%d f=%d, %d ops over %d keys per cell, seed %d\n\n",
		s.cfg.Backend, cells[0].Servers, cells[0].F, s.spec.Ops, s.spec.Keys, cells[0].Seed)
	fmt.Fprintf(w, "%-22s %-18s %-5s %6s %8s %6s %8s %5s %10s %10s %-9s\n",
		"scenario", "algorithm", "bknd", "done", "pending", "drops", "crashes", "recov", "maxsrvbits", "normcost", "verdict")
	for _, c := range cells {
		_, res, err := execute(c, s.spec)
		if err != nil {
			return fmt.Errorf("scenario %q algorithm %q backend %q: %w", c.Faults[0], c.Algorithms[0], c.Backend, err)
		}
		verdict := "ok"
		if res.QuiescentShards > 0 {
			verdict = "quiescent"
		}
		pending := pendingOps(res)
		fmt.Fprintf(w, "%-22s %-18s %-5s %6d %8d %6d %8d %5d %10d %10.4f %-9s\n",
			c.Faults[0], c.Algorithms[0], c.Backend, res.TotalOps-pending, pending, res.Faults.Drops,
			res.Faults.Crashes, res.Faults.Recoveries, res.MaxServerBits, res.NormalizedTotal, verdict)
	}
	fmt.Fprintln(w, "\nevery cell passed its consistency check (atomic/regular per algorithm);")
	fmt.Fprintln(w, "\"quiescent\" marks scenarios that cost liveness, never safety.")
	return nil
}

// runLoad sweeps per-shard client counts: at each point a store with that
// many writers and readers per shard (and that target write concurrency)
// runs the keyspace load, and the row reports what only a wall-clock backend
// can measure — throughput and latency percentiles — plus, under
// -check-online, how far the linearization frontier got (verified, lag).
func runLoad(fs *flag.FlagSet, args []string, w io.Writer) error {
	clients := []int{1, 2, 4}
	fs.Func("clients", "comma-separated per-shard client counts, writers = readers = target nu (default 1,2,4)", func(list string) error {
		clients = nil
		for _, p := range strings.Split(list, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || c < 1 {
				return fmt.Errorf("bad client count %q (want positive integers, e.g. -clients 1,2,4)", p)
			}
			clients = append(clients, c)
		}
		return nil
	})
	telemetryAddr := fs.String("telemetry", "", "serve Prometheus /metrics, /trace and pprof on this address for the run's duration (e.g. 127.0.0.1:9100; empty disables)")
	statEvery := fs.Duration("stat-interval", 2*time.Second, "interval between telemetry stat lines on stderr (with -telemetry)")
	s, err := bind(fs, "live", args)
	if err != nil {
		return err
	}
	cfg, err := s.cfg.Resolve()
	if err != nil {
		return err
	}
	if cfg.Backend == "sim" {
		return errors.New("load measures wall-clock throughput and latency: want -backend live|net, got sim")
	}
	if *telemetryAddr != "" {
		cfg.Telemetry = shmem.NewTelemetry()
		srv, err := shmem.ServeTelemetry(*telemetryAddr, cfg.Telemetry)
		if err != nil {
			return err
		}
		defer srv.Close()
		stopStats := telemetry.LogStats(os.Stderr, cfg.Telemetry, *statEvery)
		defer stopStats()
		fmt.Fprintf(w, "telemetry        : %s/metrics (traces at /trace, pprof at /debug/pprof/)\n", srv.URL())
	}

	fmt.Fprintf(w, "%-17s: %s, %d shards x (N=%d f=%d), %d keys, %d ops/setting, pipeline %d, seed %d\n",
		cfg.Backend+" load", strings.Join(cfg.Algorithms, ","), cfg.Shards, cfg.Servers, cfg.F, s.spec.Keys, s.spec.Ops, cfg.Net.Pipeline, cfg.Seed)
	if cfg.Backend == "net" {
		fmt.Fprintf(w, "transport        : TCP %s, one socket per node\n", cfg.Net.ListenAddr)
	}
	fmt.Fprintf(w, "fault scenarios  : %s\n", orNone(s.faults))
	if cfg.SkipCheck {
		fmt.Fprintln(w, "consistency check: disabled (-check=false)")
	} else if cfg.OnlineCheck {
		fmt.Fprintf(w, "consistency check: online, %d-op retirement window (-check-online)\n", cfg.OnlineWindow)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-7s %-10s %-8s %-6s %-10s %-10s %-6s %-12s %-12s %-10s\n",
		"clients", "shards", "completed", "pending", "lost", "ops/sec", "verified", "lag", "p50", "p99", "verdict")
	for _, c := range clients {
		cfg.Writers, cfg.Readers = c, c
		s.spec.TargetNu = c
		_, res, err := execute(cfg, s.spec)
		if err != nil {
			return fmt.Errorf("clients=%d: %w", c, err)
		}
		completed := res.TotalOps - pendingOps(res)
		var opsPerSec float64
		if secs := res.Elapsed.Seconds(); secs > 0 {
			opsPerSec = float64(completed) / secs
		}
		verdict := "ok"
		if res.QuiescentShards > 0 {
			verdict = fmt.Sprintf("%d quiescent", res.QuiescentShards)
		}
		fmt.Fprintf(w, "%-8d %-7d %-10d %-8d %-6d %-10.0f %-10d %-6d %-12v %-12v %-10s\n",
			c, cfg.Shards, completed, res.TotalOps-completed, res.Faults.Drops+res.Faults.TransportDropped,
			opsPerSec, res.OpsVerified, res.MaxWindowLag,
			res.LatencyP50.Round(time.Microsecond), res.LatencyP99.Round(time.Microsecond), verdict)
	}
	return nil
}

// pendingOps sums the operations that never completed across shards.
func pendingOps(res *shmem.StoreResult) int {
	pending := 0
	for _, s := range res.PerShard {
		pending += s.PendingOps
	}
	return pending
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// runFigure1 regenerates the data behind Figure 1 of the paper: normalized
// total-storage lower and upper bounds against the number of active writes.
func runFigure1(fs *flag.FlagSet, args []string, w io.Writer) error {
	s := &settings{cfg: shmem.Config{Servers: 21, F: 10}}
	maxNu := fs.Int("maxnu", 16, "largest number of active writes to tabulate")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	p, err := s.params(fs, args, "n", "f")
	if err != nil {
		return err
	}
	rows, err := shmem.Figure1(p, *maxNu)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Fprintln(w, "nu,thm_b1,thm_51,thm_65,abd,erasure_upper")
		for _, r := range rows {
			fmt.Fprintf(w, "%d,%.6f,%.6f,%.6f,%.6f,%.6f\n",
				r.Nu, r.TheoremB1, r.Theorem51, r.Theorem65, r.ABD, r.Erasure)
		}
		return nil
	}
	fmt.Fprint(w, shmem.Figure1Table(p, rows))
	fmt.Fprintf(w, "\nreplication/erasure crossover: nu = %d\n", shmem.ReplicationCrossoverNu(p))
	return nil
}

// runBounds evaluates the paper's storage lower bounds for one
// configuration, in exact (finite log2|V|) and normalized form, and
// optionally the Section 7 feasibility summary for a hypothetical algorithm.
func runBounds(fs *flag.FlagSet, args []string, w io.Writer) error {
	s := &settings{cfg: shmem.Config{Servers: 21, F: 10}, spec: shmem.MultiWorkloadSpec{TargetNu: 4}}
	log2v := fs.Float64("log2v", 1024, "log2 |V| in bits")
	summary := fs.Float64("summary", -1, "normalized cost g to evaluate against the Section 7 summary (negative = skip)")
	p, err := s.params(fs, args, "n", "f", "nu")
	if err != nil {
		return err
	}
	nu := s.spec.TargetNu
	if !(*log2v > 0 && *log2v < math.Inf(1)) {
		return fmt.Errorf("-log2v must be a positive number of bits (got %g)", *log2v)
	}
	fmt.Fprintf(w, "configuration: N=%d f=%d nu=%d log2|V|=%.0f bits\n\n", p.N, p.F, nu, *log2v)
	fmt.Fprintf(w, "%-34s %16s %14s\n", "bound (TotalStorage)", "exact bits", "normalized")
	row := func(name string, exact float64) {
		fmt.Fprintf(w, "%-34s %16.1f %14.4f\n", name, exact, exact / *log2v)
	}
	row("Theorem B.1  N/(N-f)", shmem.SingletonTotalBits(p, *log2v))
	row("Theorem 4.1  2N/(N-f+1) [no gossip]", shmem.Theorem41TotalBits(p, *log2v))
	row("Theorem 5.1  2N/(N-f+2) [universal]", shmem.Theorem51TotalBits(p, *log2v))
	row(fmt.Sprintf("Theorem 6.5  nu*N/(N-f+nu*-1) nu=%d", nu), shmem.Theorem65TotalBits(p, nu, *log2v))
	fmt.Fprintf(w, "\nupper bounds for comparison: ABD/replication = %.0f, erasure = %.4f (at nu=%d)\n",
		core.NormalizedABD(p), core.NormalizedErasureUpper(p, nu), nu)

	if *summary >= 0 {
		fmt.Fprintf(w, "\nSection 7 summary for g = %.3f at nu = %d:\n", *summary, nu)
		c := shmem.Section7Summary(p, nu, *summary)
		if !c.Feasible {
			fmt.Fprintln(w, "  INFEASIBLE:")
		}
		for _, st := range c.Statements {
			fmt.Fprintln(w, "  -", st)
		}
	}
	return nil
}

// runProof runs the executable version of one lower-bound proof against live
// algorithm code: it constructs the execution families of the proof
// (Appendix B, Section 4.3, Section 6.4), performs the valency probes, and
// verifies the injectivity/counting facts the proof rests on.
func runProof(fs *flag.FlagSet, args []string, w io.Writer) error {
	s := &settings{algo: "twoversion", cfg: shmem.Config{Servers: 5, F: 2}, spec: shmem.MultiWorkloadSpec{TargetNu: 2}}
	thm := fs.String("thm", "4.1", "theorem to check: b1 | 4.1 | 6.5")
	nValues := fs.Int("values", 4, "size of the value set |V| (b1, 4.1)")
	nVectors := fs.Int("vectors", 6, "number of value vectors (6.5)")
	gossip := fs.Bool("gossip", false, "use the Theorem 5.1 probe variant (drain gossip before reads)")
	p, err := s.params(fs, args, "algo", "n", "f", "nu")
	if err != nil {
		return err
	}
	switch *thm {
	case "6.5", "65":
		// Section 6.4 on plain CAS: nu concurrent writers over -vectors
		// value vectors.
		nu := s.spec.TargetNu
		if nu < 1 {
			return fmt.Errorf("-nu must be >= 1 for -thm 6.5 (got %d)", nu)
		}
		cfg := shmem.ProofConfig{Build: shmem.Builder("cas", p.N, p.F, nu)}
		for i := 0; i < p.F+1-nu && i < p.F; i++ {
			cfg.FailServers = append(cfg.FailServers, p.N-1-i)
		}
		var vectors [][][]byte
		for v := 0; v < *nVectors; v++ {
			vec := make([][]byte, nu)
			for j := range vec {
				vec[j] = shmem.MakeValue(16, uint64(v*nu+j+1))
			}
			vectors = append(vectors, vec)
		}
		res, err := cfg.RunTheorem65(vectors)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 6.5 executable experiment on cas (N=%d f=%d nu=%d)\n", p.N, p.F, nu)
		fmt.Fprintf(w, "  value-dependent messages delivered to the first %d servers\n", res.PrefixServers)
		fmt.Fprintf(w, "  per-value recoverability (valency probes): %v (all: %v)\n", res.Recovered, res.AllRecovered)
		fmt.Fprintf(w, "  distinct prefix-state vectors: %d / %d value vectors\n", res.VectorsDistinct, res.VectorsTried)
		if res.WitnessedBitsLowerBound > 0 {
			fmt.Fprintf(w, "  certified: sum over prefix servers of log2|S_n| >= %.3f bits\n", res.WitnessedBitsLowerBound)
		}
		return nil
	case "b1", "B1", "4.1", "41": // the counting proofs share the set-up below
	default:
		return fmt.Errorf("unknown theorem %q (want b1, 4.1 or 6.5)", *thm)
	}
	if *nValues < 2 {
		return fmt.Errorf("-values must be >= 2 (got %d)", *nValues)
	}
	if s.algo != "twoversion" && s.algo != "abd" {
		return fmt.Errorf("unknown algorithm %q (want twoversion or abd)", s.algo)
	}
	cfg := shmem.ProofConfig{Build: shmem.Builder(s.algo, p.N, p.F, 1), Gossip: *gossip}
	for i := 0; i < p.F; i++ {
		cfg.FailServers = append(cfg.FailServers, p.N-p.F+i) // the proofs fail the last f servers
	}
	vals := make([][]byte, *nValues)
	for i := range vals {
		vals[i] = shmem.MakeValue(16, uint64(i+1))
	}
	if *thm == "b1" || *thm == "B1" {
		res, err := cfg.RunAppendixB(vals)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem B.1 executable proof on %s (N=%d f=%d |V|=%d)\n", s.algo, p.N, p.F, res.Values)
		fmt.Fprintf(w, "  distinct server-state vectors: %d / %d value(s)\n", res.DistinctVectors, res.Values)
		fmt.Fprintf(w, "  injective: %v\n", res.Injective)
		fmt.Fprintf(w, "  certified: sum over N-f live servers of log2|S_n| >= %.3f bits\n", res.WitnessedBitsLowerBound)
		return nil
	}
	res, err := cfg.RunTheorem41(vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Theorem 4.1 executable proof on %s (N=%d f=%d |V|=%d)\n", s.algo, p.N, p.F, res.Values)
	fmt.Fprintf(w, "  ordered value pairs            : %d\n", res.Pairs)
	fmt.Fprintf(w, "  distinct critical-state vectors: %d\n", res.DistinctVectors)
	fmt.Fprintf(w, "  injective (Section 4.3.3)      : %v\n", res.Injective)
	fmt.Fprintf(w, "  max servers changed at critical pair (Lemma 4.8, must be <=1): %d\n", res.MaxChangedServers)
	fmt.Fprintf(w, "  certified: prod|S_n| x (N-f) x max|S_n| >= 2^%.3f\n", res.WitnessedBitsLowerBound)
	return nil
}

// runProfile runs one register under a seeded workload with a target write
// concurrency, meters its storage, checks the history's consistency, and
// compares the measured cost against every applicable lower bound. -ops
// splits into round(ops·reads) reads and the rest writes.
func runProfile(fs *flag.FlagSet, args []string, w io.Writer) error {
	s := &settings{algo: "casgc", cfg: shmem.Config{Servers: 9, F: 2, Seed: 1},
		spec: shmem.MultiWorkloadSpec{TargetNu: 2, ValueBytes: 1024, Ops: 14, ReadFraction: 0.3}}
	p, err := s.params(fs, args, "algo", "n", "f", "nu", "seed", "valuebytes", "crashes", "ops", "reads")
	if err != nil {
		return err
	}
	// The store handle does not expose a cluster's write profile, which the
	// Theorem 6.5 line below reads, so this subcommand deploys the cluster
	// itself.
	nu := s.spec.TargetNu
	cl, cond, err := store.DeployShard(s.algo, p.N, p.F, nu, 0, 0)
	if err != nil {
		return err
	}
	reads := int(math.Round(float64(s.spec.Ops) * s.spec.ReadFraction))
	res, err := workload.Run(cl, workload.Spec{
		Seed: s.cfg.Seed, Writes: s.spec.Ops - reads, Reads: reads, TargetNu: nu,
		ValueBytes: s.spec.ValueBytes, Crashes: s.spec.Crashes,
	})
	if err != nil {
		return err
	}
	if err := res.CheckConsistency(cond); err != nil {
		return fmt.Errorf("consistency check (%s) FAILED: %w", cond, err)
	}
	log2V := res.Log2V
	fmt.Fprintf(w, "algorithm        : %s (write profile: %d phases)\n", s.algo, len(cl.Profile.Phases))
	fmt.Fprintf(w, "configuration    : N=%d f=%d target-nu=%d log2|V|=%.0f\n", p.N, p.F, nu, log2V)
	fmt.Fprintf(w, "operations       : %d (peak active writes %d)\n", len(res.History.Ops), res.PeakActiveWrites)
	fmt.Fprintf(w, "consistency      : %s OK\n", cond)
	fmt.Fprintf(w, "max total storage: %d bits (normalized %.4f)\n", res.Storage.MaxTotalBits, res.NormalizedTotal)
	fmt.Fprintf(w, "max server       : %d bits\n", res.Storage.MaxServerBits)
	fmt.Fprintln(w, "\nlower bounds (normalized):")
	fmt.Fprintf(w, "  Theorem B.1: %8.4f\n", shmem.SingletonTotalBits(p, log2V)/log2V)
	fmt.Fprintf(w, "  Theorem 5.1: %8.4f\n", shmem.Theorem51TotalBits(p, log2V)/log2V)
	if err := cl.Profile.Theorem65Applies(); err == nil {
		fmt.Fprintf(w, "  Theorem 6.5: %8.4f (at measured nu=%d; applies: single value-dependent phase)\n",
			shmem.Theorem65TotalBits(p, res.PeakActiveWrites, log2V)/log2V, res.PeakActiveWrites)
	} else {
		fmt.Fprintf(w, "  Theorem 6.5: not applicable: %v\n", err)
	}
	return nil
}
