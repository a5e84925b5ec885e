package main

import (
	"errors"
	"strings"
	"testing"

	shmem "repro"
	"repro/internal/cmdtest"
)

// shmemCmd runs the command with the given subcommand line and returns its
// stdout; the test fails if the command does.
func shmemCmd(t *testing.T, args ...string) string {
	t.Helper()
	return cmdtest.RunWith(t, run, append([]string{"shmem"}, args...)...)
}

func fingerprintOf(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fingerprint") {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	t.Fatalf("no fingerprint line in output:\n%s", out)
	return ""
}

// small keeps a run test-sized.
var small = []string{"-keys", "16", "-ops", "32", "-valuebytes", "64"}

// TestSubcommands drives every subcommand through its headline uses and
// checks what each prints. The two pinned fingerprints are what the replaced
// shardsim and faultsim binaries printed for the same runs at the parent
// commit (shardsim defaulted -reads 0.25 -valuebytes 256, spelled out here).
func TestSubcommands(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		want        []string // substrings of stdout
		wantNot     []string
		fingerprint string
	}{
		{
			name: "run/acceptance scenario",
			args: []string{"run", "-shards", "8", "-algo", "cas", "-keys", "64", "-skew", "zipf", "-ops", "64", "-valuebytes", "64"},
			want: []string{"TOTAL", "aggregate storage", "cas ", "8 shards", "(zipf)", "per-shard bounds"},
		},
		{
			name:        "run/pinned shardsim fingerprint",
			args:        []string{"run", "-shards", "4", "-algo", "abd-mwmr,casgc", "-keys", "32", "-ops", "96", "-nu", "3", "-reads", "0.25", "-valuebytes", "256"},
			want:        []string{"abd-mwmr", "casgc"},
			fingerprint: "b497f39ba29cea49b070b09baf400786b68333370ee45af37f3a99003b0d507a",
		},
		{
			name:        "run/pinned faultsim fingerprint",
			args:        []string{"run", "-shards", "6", "-algo", "cas", "-faults", "crash-f,lossy=0.02,none"},
			want:        []string{"0/6 shards quiescent"},
			fingerprint: "330f0ea4f9dbdd8ff75a6be16d787d8f80af9e741399eac779f0c67fd71746dc",
		},
		{
			name: "run/mixed algorithms",
			args: append([]string{"run", "-shards", "4", "-algo", "abd-mwmr,casgc"}, small...),
			want: []string{"abd-mwmr", "casgc"},
		},
		{
			name: "run/mixed faults with a fault-free control",
			args: append([]string{"run", "-shards", "4", "-algo", "cas", "-faults", "crash-f@10,lossy=0.05,none"}, small...),
			want: []string{"verdict", "fault events", "fingerprint", "crash-f@10", "lossy=0.05"},
		},
		{
			name: "run/quorum-killing scenario is a quiescent verdict, not an error",
			args: []string{"run", "-shards", "1", "-algo", "abd-mwmr", "-n", "3", "-f", "1", "-keys", "4", "-ops", "12", "-valuebytes", "64", "-faults", "crash-majority@0"},
			want: []string{"quiescent", "1/1 shards quiescent"},
		},
		{
			name: "run/sim backend under crash+recovery and a partition",
			args: backendRun("sim"), want: backendWant("sim"),
		},
		{
			name: "run/live backend under crash+recovery and a partition",
			args: backendRun("live"), want: backendWant("live"),
		},
		{
			name: "run/net backend under crash+recovery and a partition",
			args: backendRun("net"), want: backendWant("net"),
		},
		{
			name: "run/live backend fault-free",
			args: []string{"run", "-backend", "live", "-shards", "4", "-algo", "cas", "-keys", "16", "-ops", "48", "-valuebytes", "64"},
			want: []string{"TOTAL", "ok", "0/4 shards quiescent"},
		},
		{
			name: "grid/scenario library on the simulator",
			args: []string{"grid", "-algo", "abd-mwmr", "-backend", "sim", "-n", "3", "-f", "1", "-keys", "8", "-ops", "16", "-valuebytes", "64"},
			want: []string{"crash-f", "crash-majority", "partition@", "lossy=", "delay=", "none", "quiescent"},
		},
		{
			name:    "load/live sweep under delay faults",
			args:    []string{"load", "-clients", "1,2", "-ops", "32", "-shards", "2", "-keys", "8", "-faults", "delay=1:8"},
			want:    []string{"live load", "delay=1:8"},
			wantNot: []string{"quiescent", "TCP"},
		},
		{
			// At the default 100µs step the 20ms window heals far inside the
			// op timeout, so every op completes.
			name:    "load/net sweep under a healing partition",
			args:    []string{"load", "-backend", "net", "-clients", "1", "-ops", "16", "-shards", "1", "-keys", "4", "-faults", "partition@0:200"},
			want:    []string{"net load", "TCP", "partition@0:200"},
			wantNot: []string{"quiescent"},
		},
		{
			name: "load/pipelined online-checked point",
			args: []string{"load", "-clients", "4", "-ops", "64", "-shards", "1", "-keys", "8", "-pipeline", "4", "-check-online"},
			want: []string{"pipeline 4", "online, 256-op retirement window"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := shmemCmd(t, tc.args...)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			for _, no := range tc.wantNot {
				if strings.Contains(out, no) {
					t.Errorf("output contains %q:\n%s", no, out)
				}
			}
			if tc.fingerprint != "" {
				if got := fingerprintOf(t, out); got != tc.fingerprint {
					t.Errorf("fingerprint %s, want the parent's %s", got, tc.fingerprint)
				}
			}
		})
	}
}

// backendRun is one run under a crash with recovery (the snapshot/restore
// path on the wall-clock backends), a healing partition and a control.
func backendRun(backend string) []string {
	return []string{"run", "-backend", backend, "-shards", "3", "-algo", "cas", "-keys", "8", "-ops", "18",
		"-valuebytes", "64", "-optimeout", "2s", "-faults", "crash-f@10:400,partition@40:2500,none"}
}

func backendWant(backend string) []string {
	return []string{"backend " + backend, "verdict", "fault events", "crash-f@10:400"}
}

// TestRunReproducibleAcrossWorkers: on the simulator the same seed prints the
// same fingerprint whether shards run serially or in parallel, fault-free and
// under mixed faults, and a different seed prints another.
func TestRunReproducibleAcrossWorkers(t *testing.T) {
	for name, args := range map[string][]string{
		"fault-free": {"run", "-shards", "8", "-algo", "cas", "-keys", "64", "-skew", "zipf", "-ops", "64", "-valuebytes", "64", "-seed", "5"},
		"faults": {"run", "-shards", "6", "-algo", "cas,abd-mwmr", "-keys", "16", "-ops", "48", "-valuebytes", "64", "-seed", "5",
			"-faults", "crash-f@10,partition@40:2500,delay=1:16,none"},
	} {
		t.Run(name, func(t *testing.T) {
			serial := fingerprintOf(t, shmemCmd(t, append(args, "-workers", "1")...))
			parallel := fingerprintOf(t, shmemCmd(t, append(args, "-workers", "4")...))
			if serial != parallel {
				t.Errorf("fingerprint differs across worker counts: %s vs %s", serial, parallel)
			}
			if other := fingerprintOf(t, shmemCmd(t, append(args, "-seed", "6")...)); other == serial {
				t.Errorf("seeds 5 and 6 print the same fingerprint %s", serial)
			}
		})
	}
}

// TestLoadSweepRows checks the sweep's shape on both wall-clock backends: one
// result row per client count, each complete and consistent, under the
// throughput and latency columns.
func TestLoadSweepRows(t *testing.T) {
	for _, backend := range []string{"live", "net"} {
		t.Run(backend, func(t *testing.T) {
			out := shmemCmd(t, "load", "-backend", backend, "-clients", "1,2,4", "-ops", "48", "-shards", "2", "-keys", "16")
			for _, want := range []string{"clients", "ops/sec", "p50", "p99"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "1 ") || strings.HasPrefix(line, "2 ") || strings.HasPrefix(line, "4 ") {
					rows++
					if f := strings.Fields(line); f[2] != "48" || f[len(f)-1] != "ok" {
						t.Errorf("row is not 48 completed ops with an ok verdict: %q", line)
					}
				}
			}
			if rows != 3 {
				t.Errorf("want 3 client-count rows, got %d:\n%s", rows, out)
			}
		})
	}
}

// TestRejects pins eager validation: a bad command line is an error from
// run(), typed where callers branch on it — never a panic or a partial run.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		is   error  // errors.Is target, when the error is typed
		want string // substring of the message otherwise
	}{
		{args: nil, is: errSubcommand},
		{args: []string{"simulate"}, is: errSubcommand},
		{args: []string{"run", "-backend", "quantum"}, is: shmem.ErrUnknownBackend},
		{args: []string{"load", "-backend", "quantum"}, is: shmem.ErrUnknownBackend},
		{args: []string{"grid", "-backend", "sim,quantum", "-ops", "8"}, is: shmem.ErrUnknownBackend},
		{args: []string{"run", "-n", "-1"}, want: "Servers must be >= 1"},
		{args: []string{"load", "-n", "-2"}, want: "Servers must be >= 1"},
		{args: []string{"run", "-f", "-1"}, want: "F must be >= 0"},
		{args: []string{"run", "-algo", "paxos"}, want: "unknown algorithm"},
		{args: []string{"run", "-no-such-flag"}, want: "flag provided but not defined"},
		{args: []string{"run", "-alg", "cas"}, want: "flag provided but not defined"},
		{args: []string{"load", "-clients", "0"}, want: "bad client count"},
		{args: []string{"load", "-clients", "two"}, want: "bad client count"},
		{args: []string{"load", "-faults", "partition@40:10"}, want: "Faults[0]"}, // impossible window
		{args: []string{"load", "-faults", "crash-f@40:10"}, want: "Faults[0]"},   // recovery before crash
		{args: []string{"run", "-backend", "live", "-crashes", "1"}, want: "crash budget"},
	} {
		err := cmdtest.RunErr(t, run, append([]string{"shmem"}, tc.args...)...)
		switch {
		case err == nil:
			t.Errorf("args %v: run succeeded, want error", tc.args)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("args %v: error %v is not %v", tc.args, err, tc.is)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
