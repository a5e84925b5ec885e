// Command shmem runs the sharded register store from the command line. Every
// subcommand describes its run the same way — one flag per shmem.Config and
// shmem.MultiWorkloadSpec field, bound once in bind — opens a store handle on
// that Config, drives the multi-key workload through Store.RunMulti on fresh
// clusters, and prints what it measured. Safety is always enforced: every
// shard's history is checked against its algorithm's consistency condition,
// faults or not (-check=false opts out to measure unchecked throughput).
//
//	run   one checked RunMulti: the per-shard table (normalized storage,
//	      comparable to the paper's Figure 1; "quiescent" marks a shard whose
//	      faults cost it liveness), fault events, throughput and — on the
//	      simulator — the determinism fingerprint, identical for one seed at
//	      any -workers.
//	grid  the standard fault-scenario library plus a fault-free control
//	      against every -algo on every -backend, one small run per cell,
//	      printed as a verdict matrix.
//	load  a sweep over per-shard client counts on a wall-clock backend,
//	      reporting throughput and latency percentiles per point, optionally
//	      serving live /metrics while it runs.
//
// Usage:
//
//	shmem run -shards 8 -algo cas -keys 64 -skew zipf
//	shmem run -shards 6 -algo cas -faults crash-f,lossy=0.02,none
//	shmem run -backend net -shards 2 -faults partition@40:4000
//	shmem grid -algo abd-mwmr,cas -backend live,net
//	shmem load -algo abd-mwmr -clients 1,2,4 -faults lossy=0.01+delay=1:8
//	shmem load -backend net -clients 1,8,64 -pipeline 8 -check=false
//	shmem load -clients 2 -ops 100000 -check-online -telemetry 127.0.0.1:9100
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	shmem "repro"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shmem:", err)
		os.Exit(1)
	}
}

// errSubcommand reports a command line naming no subcommand of this binary.
var errSubcommand = errors.New("want a subcommand: run | grid | load (each takes -h)")

func run() error {
	if len(os.Args) < 2 {
		return errSubcommand
	}
	sub, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet("shmem "+sub, flag.ContinueOnError)
	switch sub {
	case "run":
		return runOnce(fs, args)
	case "grid":
		return runGrid(fs, args)
	case "load":
		return runLoad(fs, args)
	default:
		return fmt.Errorf("unknown subcommand %q: %w", sub, errSubcommand)
	}
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

// bind declares the flags every subcommand shares on fs — one spelling per
// Config or MultiWorkloadSpec field — with backend as -backend's default.
func bind(fs *flag.FlagSet, backend string) *settings {
	s := &settings{}
	fs.StringVar(&s.algo, "algo", "cas", "comma-separated algorithms, cycled per shard: "+strings.Join(shmem.StoreAlgorithms(), " | "))
	fs.StringVar(&s.cfg.Backend, "backend", backend, "execution backend: "+strings.Join(shmem.StoreBackends(), " | ")+" (fingerprints are sim-only)")
	fs.IntVar(&s.cfg.Servers, "n", 5, "servers per shard N")
	fs.IntVar(&s.cfg.F, "f", 1, "tolerated server failures per shard f")
	fs.IntVar(&s.cfg.Shards, "shards", 4, "number of independent register shards")
	fs.StringVar(&s.faults, "faults", "", "comma-separated fault scenarios, cycled per shard; grammar: "+shmem.FaultScenarioUsage())
	fs.Int64Var(&s.cfg.Seed, "seed", 1, "workload and fault seed")
	fs.IntVar(&s.cfg.Workers, "workers", 0, "parallel shard workers (0 = GOMAXPROCS)")
	fs.IntVar(&s.cfg.Pipeline, "pipeline", 1, "live/net operations kept in flight per client (per-client order preserved)")
	fs.BoolVar(&s.check, "check", true, "consistency-check every shard history (disable to measure unchecked throughput)")
	fs.BoolVar(&s.cfg.OnlineCheck, "check-online", false, "live/net: verify atomicity with the streaming windowed checker while the run executes (memory bounded by the window)")
	fs.IntVar(&s.cfg.OnlineWindow, "check-window", 0, "online checker retirement window in operations (0 = default)")
	fs.DurationVar(&s.cfg.Net.StepDur, "stepdur", 0, "live/net wall-clock duration of one fault step, for delays and partition windows (0 = 100µs)")
	fs.DurationVar(&s.cfg.Net.OpTimeout, "optimeout", 0, "live/net per-operation timeout (0 = 5s; a quiescent shard costs one timeout)")
	fs.StringVar(&s.cfg.Net.ListenAddr, "listen", "127.0.0.1:0", "net listen address spec; keep the port 0 so every node gets its own ephemeral port")
	fs.IntVar(&s.spec.Keys, "keys", 32, "keyspace size")
	fs.IntVar(&s.spec.Ops, "ops", 96, "total operations across the keyspace")
	fs.Float64Var(&s.spec.ReadFraction, "reads", 0.3, "fraction of operations that are reads")
	fs.StringVar(&s.spec.Skew, "skew", "uniform", "key popularity: uniform | zipf")
	fs.Float64Var(&s.spec.ZipfS, "zipfs", 0, "zipf exponent (> 1; 0 = default 1.2)")
	fs.IntVar(&s.spec.TargetNu, "nu", 2, "per-shard target concurrent writes")
	fs.IntVar(&s.spec.ValueBytes, "valuebytes", 128, "bytes per written value")
	fs.IntVar(&s.spec.Crashes, "crashes", 0, "per-shard random server crashes (sim only)")
	return s
}

// parse reads args into the bound fields and completes the ones a flag
// cannot set directly: the comma-separated lists, the inverted -check, and
// the runtime tuning, which both wall-clock backends share.
func (s *settings) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	s.cfg.Algorithms = strings.Split(s.algo, ",")
	if s.faults != "" {
		s.cfg.Faults = strings.Split(s.faults, ",")
	}
	s.cfg.SkipCheck = !s.check
	s.cfg.Live = s.cfg.Net
	s.spec.Seed = s.cfg.Seed
	return nil
}

// execute opens a store on cfg, runs the workload on fresh clusters through
// the parallel engine, and closes the store.
func execute(cfg shmem.Config, spec shmem.MultiWorkloadSpec) (*shmem.StoreResult, error) {
	st, err := shmem.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.RunMulti(spec)
}

func runOnce(fs *flag.FlagSet, args []string) error {
	s := bind(fs, "sim")
	if err := s.parse(fs, args); err != nil {
		return err
	}
	res, err := execute(s.cfg, s.spec)
	if err != nil {
		return err
	}
	p := shmem.Params{N: s.cfg.Servers, F: s.cfg.F}
	fmt.Printf("sharded store    : %d shards x (N=%d f=%d), %d keys (%s), seed %d, backend %s\n",
		s.cfg.Shards, p.N, p.F, s.spec.Keys, s.spec.Skew, s.cfg.Seed, s.cfg.Backend)
	fmt.Printf("operations       : %d writes + %d reads, per-shard target nu=%d, log2|V|=%.0f\n",
		res.TotalWrites, res.TotalReads, s.spec.TargetNu, res.Log2V)
	fmt.Printf("fault scenarios  : %s\n", orNone(s.faults))
	fmt.Println()
	fmt.Print(res.Table())
	fmt.Println()
	fmt.Printf("fault events     : %d drops, %d delayed (%d steps held), %d crashes, %d recoveries, %d checkpoints\n",
		res.Faults.Drops, res.Faults.DelayedMessages, res.Faults.DelayStepsTotal,
		res.Faults.Crashes, res.Faults.Recoveries, res.Faults.Checkpoints)
	fmt.Printf("liveness         : %d/%d shards quiescent\n", res.QuiescentShards, s.cfg.Shards)
	fmt.Printf("aggregate storage: %d bits (normalized %.4f)\n", res.AggregateMaxTotalBits, res.NormalizedTotal)
	fmt.Printf("largest shard    : %d bits; largest server: %d bits\n", res.MaxShardTotalBits, res.MaxServerBits)
	fmt.Printf("throughput       : %d ops in %v (%.0f ops/sec, %d workers)\n",
		res.TotalOps, res.Elapsed.Round(time.Microsecond), res.OpsPerSec, res.Workers)
	fmt.Printf("per-shard bounds : Theorem B.1 %.4f, Theorem 5.1 %.4f (normalized)\n",
		shmem.SingletonTotalBits(p, res.Log2V)/res.Log2V, shmem.Theorem51TotalBits(p, res.Log2V)/res.Log2V)
	fmt.Printf("fingerprint      : %s\n", res.Fingerprint())
	return nil
}

// runGrid sweeps the standard scenario library (plus a fault-free control)
// against every -algo on every -backend, one two-shard store run per cell,
// and prints the verdict matrix: storage high-water marks, fault events and
// the checker verdict. -shards and -faults are the grid's own axes.
func runGrid(fs *flag.FlagSet, args []string) error {
	s := bind(fs, strings.Join(shmem.StoreBackends(), ","))
	if err := s.parse(fs, args); err != nil {
		return err
	}
	backends := s.cfg.Backend
	specs := []string{"none"}
	for _, sc := range shmem.FaultScenarioLibrary() {
		specs = append(specs, sc.String())
	}
	fmt.Printf("scenario matrix: backends %s, N=%d f=%d, %d ops over %d keys per cell, seed %d\n\n",
		backends, s.cfg.Servers, s.cfg.F, s.spec.Ops, s.spec.Keys, s.cfg.Seed)
	fmt.Printf("%-22s %-18s %-5s %6s %8s %6s %8s %5s %10s %10s %-9s\n",
		"scenario", "algorithm", "bknd", "done", "pending", "drops", "crashes", "recov", "maxsrvbits", "normcost", "verdict")
	for _, spec := range specs {
		for _, algo := range s.cfg.Algorithms {
			for _, backend := range strings.Split(backends, ",") {
				cell := s.cfg
				cell.Algorithms, cell.Backend, cell.Shards, cell.Faults = []string{algo}, backend, 2, []string{spec}
				res, err := execute(cell, s.spec)
				if err != nil {
					return fmt.Errorf("scenario %q algorithm %q backend %q: %w", spec, algo, backend, err)
				}
				verdict := "ok"
				if res.QuiescentShards > 0 {
					verdict = "quiescent"
				}
				pending := pendingOps(res)
				fmt.Printf("%-22s %-18s %-5s %6d %8d %6d %8d %5d %10d %10.4f %-9s\n",
					spec, algo, backend, res.TotalOps-pending, pending, res.Faults.Drops,
					res.Faults.Crashes, res.Faults.Recoveries, res.MaxServerBits, res.NormalizedTotal, verdict)
			}
		}
	}
	fmt.Println("\nevery cell passed its consistency check (atomic/regular per algorithm);")
	fmt.Println("\"quiescent\" marks scenarios that cost liveness, never safety.")
	return nil
}

// runLoad sweeps per-shard client counts: at each point a store with that
// many writers and readers per shard (and that target write concurrency)
// runs the keyspace load, and the row reports what only a wall-clock backend
// can measure — throughput and latency percentiles — plus, under
// -check-online, how far the linearization frontier got (verified, lag).
func runLoad(fs *flag.FlagSet, args []string) error {
	s := bind(fs, "live")
	clientsFlag := fs.String("clients", "1,2,4", "comma-separated per-shard client counts (writers = readers = target nu)")
	telemetryAddr := fs.String("telemetry", "", "serve Prometheus /metrics, /trace and pprof on this address for the run's duration (e.g. 127.0.0.1:9100; empty disables)")
	statEvery := fs.Duration("stat-interval", 2*time.Second, "interval between telemetry stat lines on stderr (with -telemetry)")
	if err := s.parse(fs, args); err != nil {
		return err
	}
	clients, err := parseClients(*clientsFlag)
	if err != nil {
		return err
	}
	if *telemetryAddr != "" {
		s.cfg.Telemetry = shmem.NewTelemetry()
		srv, err := shmem.ServeTelemetry(*telemetryAddr, s.cfg.Telemetry)
		if err != nil {
			return err
		}
		defer srv.Close()
		stopStats := telemetry.LogStats(os.Stderr, s.cfg.Telemetry, *statEvery)
		defer stopStats()
		fmt.Printf("telemetry        : %s/metrics (traces at /trace, pprof at /debug/pprof/)\n", srv.URL())
	}

	fmt.Printf("%-17s: %s, %d shards x (N=%d f=%d), %d keys, %d ops/setting, pipeline %d, seed %d\n",
		s.cfg.Backend+" load", s.algo, s.cfg.Shards, s.cfg.Servers, s.cfg.F, s.spec.Keys, s.spec.Ops, s.cfg.Pipeline, s.cfg.Seed)
	if s.cfg.Backend == "net" {
		fmt.Printf("transport        : TCP %s, one socket per node\n", s.cfg.Net.ListenAddr)
	}
	fmt.Printf("fault scenarios  : %s\n", orNone(s.faults))
	if !s.check {
		fmt.Println("consistency check: disabled (-check=false)")
	} else if s.cfg.OnlineCheck {
		window := s.cfg.OnlineWindow
		if window == 0 {
			window = shmem.DefaultOnlineWindow
		}
		fmt.Printf("consistency check: online, %d-op retirement window (-check-online)\n", window)
	}
	fmt.Println()
	fmt.Printf("%-8s %-7s %-10s %-8s %-6s %-10s %-10s %-6s %-12s %-12s %-10s\n",
		"clients", "shards", "completed", "pending", "lost", "ops/sec", "verified", "lag", "p50", "p99", "verdict")
	for _, c := range clients {
		point := s.cfg
		point.Writers, point.Readers = c, c
		spec := s.spec
		spec.TargetNu = c
		res, err := execute(point, spec)
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
		fmt.Printf("%-8d %-7d %-10d %-8d %-6d %-10.0f %-10d %-6d %-12v %-12v %-10s\n",
			c, s.cfg.Shards, completed, res.TotalOps-completed, res.Faults.Drops+res.Faults.TransportDropped,
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

// parseClients parses the comma-separated client-count sweep.
func parseClients(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad client count %q (want positive integers, e.g. -clients 1,2,4)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
