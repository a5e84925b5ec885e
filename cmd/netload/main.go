// Command netload drives the real-network backend — every node automaton
// owning its own TCP socket, protocol messages crossing the loopback network
// as binary frames — through a sharded keyspace workload and reports
// aggregate throughput and per-operation latency percentiles, swept across
// client counts. Safety is still enforced by default: every shard's merged
// history is checked against the algorithm's consistency condition, exactly
// as the simulator and live backends do; -check=false disables the check to
// measure unchecked throughput. -check-online switches to the streaming windowed
// checker instead: settled operations are verified while the run executes,
// memory stays bounded by the window, and the verified/lag columns report
// how far the linearization frontier got.
//
// Unlike liveload, partition scenarios are fair game: outage windows gate
// the socket writes and heal in wall-clock time (-stepdur maps steps to
// time).
//
// Usage:
//
//	netload -alg cas -shards 2 -clients 1,8,64 -ops 256
//	netload -alg abd-mwmr -clients 1,8 -faults lossy=0.01+delay=1:8
//	netload -clients 1,4 -faults partition@0:2000 -stepdur 1ms
//	netload -clients 64 -pipeline 8 -check=false -ops 1024
//	netload -alg cas -clients 2 -ops 100000 -check-online
package main

import (
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
		fmt.Fprintln(os.Stderr, "netload:", err)
		os.Exit(1)
	}
}

// gridPoint aggregates one client-count setting.
type gridPoint struct {
	clients   int
	completed int
	pending   int
	lost      int
	quiescent int
	verified  int64
	lag       int
	elapsed   time.Duration
	opsPerSec float64
	p50, p99  time.Duration
}

func run() error {
	alg := flag.String("alg", "cas", "algorithm (multi-writer: "+strings.Join(shmem.StoreAlgorithms(), " | ")+")")
	n := flag.Int("n", 5, "servers per shard N")
	f := flag.Int("f", 1, "tolerated server failures per shard f")
	shards := flag.Int("shards", 2, "independent register shards, run concurrently")
	clientsFlag := flag.String("clients", "1,8,64", "comma-separated per-shard client counts (writers; readers match)")
	keys := flag.Int("keys", 32, "keyspace size")
	ops := flag.Int("ops", 128, "total operations across the keyspace per client-count setting")
	readFrac := flag.Float64("reads", 0.3, "fraction of operations that are reads")
	valueBytes := flag.Int("valuebytes", 128, "bytes per written value")
	seed := flag.Int64("seed", 1, "workload and fault seed")
	faultSpec := flag.String("faults", "", "fault scenario applied to every shard (lossy=P, delay=MIN:MAX, partition@START:HEAL, crash-f@STEP[:RECOVER], composable with +)")
	listen := flag.String("listen", "127.0.0.1:0", "listen address spec; keep the port 0 so every node gets its own ephemeral port")
	stepDur := flag.Duration("stepdur", 100*time.Microsecond, "wall-clock duration of one fault step (delays and partition windows)")
	opTimeout := flag.Duration("optimeout", 5*time.Second, "per-operation completion timeout")
	pipeline := flag.Int("pipeline", 1, "operations kept in flight per client (per-client order preserved)")
	check := flag.Bool("check", true, "consistency-check every shard history (disable to measure unchecked throughput)")
	checkOnline := flag.Bool("check-online", false, "verify atomicity with the streaming windowed checker while the run executes (memory bounded by the window; adds verified/lag columns)")
	checkWindow := flag.Int("check-window", 0, "online checker retirement window in operations (0 = default)")
	telemetryAddr := flag.String("telemetry", "", "serve Prometheus /metrics, /trace and pprof on this address for the run's duration (e.g. 127.0.0.1:9100; empty disables)")
	statEvery := flag.Duration("stat-interval", 2*time.Second, "interval between telemetry stat lines on stderr (with -telemetry)")
	flag.Parse()

	clients, err := parseClients(*clientsFlag)
	if err != nil {
		return err
	}
	cfg := shmem.NetConfig{ListenAddr: *listen, StepDur: *stepDur, OpTimeout: *opTimeout}

	var reg *shmem.Telemetry
	if *telemetryAddr != "" {
		reg = shmem.NewTelemetry()
		srv, err := shmem.ServeTelemetry(*telemetryAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		stopStats := telemetry.LogStats(os.Stderr, reg, *statEvery)
		defer stopStats()
		fmt.Printf("telemetry        : %s/metrics (traces at /trace, pprof at /debug/pprof/)\n", srv.URL())
	}

	fmt.Printf("net load         : %s, %d shards x (N=%d f=%d), %d keys, %d ops/setting, pipeline %d, seed %d\n",
		*alg, *shards, *n, *f, *keys, *ops, *pipeline, *seed)
	fmt.Printf("transport        : TCP %s, one socket per node\n", *listen)
	fmt.Printf("fault scenario   : %s\n", orNone(*faultSpec))
	if !*check {
		fmt.Println("consistency check: disabled (-check=false)")
	} else if *checkOnline {
		window := *checkWindow
		if window <= 0 {
			window = shmem.DefaultOnlineWindow
		}
		fmt.Printf("consistency check: online, %d-op retirement window (-check-online)\n", window)
	}
	fmt.Println()
	fmt.Printf("%-8s %-7s %-10s %-8s %-6s %-10s %-10s %-6s %-12s %-12s %-10s\n",
		"clients", "shards", "completed", "pending", "lost", "ops/sec", "verified", "lag", "p50", "p99", "verdict")

	for _, c := range clients {
		pt, err := runPoint(*alg, *n, *f, *shards, c, *keys, *ops, *readFrac, *valueBytes, *seed, *faultSpec, *pipeline, *check, *checkOnline, *checkWindow, cfg, reg)
		if err != nil {
			return err
		}
		verdict := "ok"
		if pt.quiescent > 0 {
			verdict = fmt.Sprintf("%d quiescent", pt.quiescent)
		}
		fmt.Printf("%-8d %-7d %-10d %-8d %-6d %-10.0f %-10d %-6d %-12v %-12v %-10s\n",
			pt.clients, *shards, pt.completed, pt.pending, pt.lost, pt.opsPerSec,
			pt.verified, pt.lag,
			pt.p50.Round(time.Microsecond), pt.p99.Round(time.Microsecond), verdict)
	}
	return nil
}

// runPoint runs one client-count setting: a store handle opened on the net
// backend with `clients` writers and readers per shard runs the keyspace
// load through the parallel store engine, which partitions it, deploys a
// fresh cluster per shard — every node listening on its own socket —
// consistency-checks every shard (unless disabled) and aggregates the
// latency percentiles.
func runPoint(alg string, n, f, shards, clients, keys, ops int, readFrac float64, valueBytes int, seed int64, faultSpec string, pipeline int, check, checkOnline bool, checkWindow int, cfg shmem.NetConfig, reg *shmem.Telemetry) (gridPoint, error) {
	var faultSpecs []string
	if faultSpec != "" {
		faultSpecs = []string{faultSpec}
	}
	opts := []shmem.Option{shmem.WithClients(clients, clients), shmem.WithPipeline(pipeline)}
	if reg != nil {
		opts = append(opts, shmem.WithTelemetry(reg))
	}
	if !check {
		opts = append(opts, shmem.WithSkipCheck())
	} else if checkOnline {
		opts = append(opts, shmem.WithOnlineCheck(), shmem.WithOnlineWindow(checkWindow))
	}
	st, err := shmem.Open(shmem.Config{
		Algorithms: []string{alg},
		Servers:    n,
		F:          f,
		Shards:     shards,
		Backend:    "net",
		Faults:     faultSpecs,
		Net:        cfg,
		Seed:       seed,
	}, opts...)
	if err != nil {
		return gridPoint{}, err
	}
	defer st.Close()
	res, err := st.RunMulti(shmem.MultiWorkloadSpec{
		Seed:         seed,
		Keys:         keys,
		Ops:          ops,
		ReadFraction: readFrac,
		TargetNu:     clients,
		ValueBytes:   valueBytes,
	})
	if err != nil {
		return gridPoint{}, fmt.Errorf("clients=%d: %w", clients, err)
	}
	pt := gridPoint{
		clients:   clients,
		quiescent: res.QuiescentShards,
		verified:  res.OpsVerified,
		lag:       res.MaxWindowLag,
		elapsed:   res.Elapsed,
		p50:       res.LatencyP50,
		p99:       res.LatencyP99,
		lost:      res.Faults.Drops + res.Faults.TransportDropped,
	}
	for _, s := range res.PerShard {
		pt.pending += s.PendingOps
	}
	pt.completed = res.TotalOps - pt.pending
	if secs := pt.elapsed.Seconds(); secs > 0 {
		pt.opsPerSec = float64(pt.completed) / secs
	}
	return pt, nil
}

// parseClients parses the comma-separated client-count sweep.
func parseClients(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad client count %q (want positive integers, e.g. -clients 1,8,64)", p)
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
