package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	shmem "repro"
)

// shmemCmd runs the command with the given subcommand line and returns its
// stdout; the test fails if the command does.
func shmemCmd(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("shmem %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
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
// checks what each prints. The shardsim fingerprint is what the replaced
// binary printed for the same run before this command took its place
// (shardsim defaulted -reads 0.25 -valuebytes 256, spelled out here). The
// three runs that crash a server were re-pinned when the simulator began to
// lose messages that reach a down node: only their drop counts moved
// (faultsim 12 -> 89, the fault grid 0 -> 211, single-writer 0 -> 179).
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
			fingerprint: "9d8ad0d7ea715a2b631e41939a3f793b0f774a46a930a234f5cb84446e7fad98",
		},
		{
			// The benchmark's simulator grid at test size: the only pinned
			// run with delay and partition scenarios, i.e. with wakes, link
			// outages and fault-forwarding in the schedule.
			name: "run/pinned fault grid fingerprint",
			args: []string{"run", "-shards", "4", "-algo", "casgc,abd-mwmr", "-faults", "none,crash-f@10,partition@40:4000,delay=1:16",
				"-nu", "2", "-valuebytes", "1024", "-keys", "64", "-skew", "zipf", "-reads", "0.3", "-ops", "400"},
			want:        []string{"0/4 shards quiescent", "1 crashes"},
			fingerprint: "33e3ce2059adef76cbc1c9af8436a3161017165d7531154f2b6f85f3ec9374a3",
		},
		{
			// The single-writer deploy paths (abd, twoversion,
			// twoversion-gossip) under a fault-free, a delay and a crash
			// scenario: their id layout and registration order.
			name: "run/pinned single-writer fingerprint",
			args: []string{"run", "-shards", "3", "-algo", "abd,twoversion,twoversion-gossip", "-keys", "32", "-ops", "96",
				"-reads", "0.3", "-valuebytes", "256", "-faults", "none,delay=1:16,crash-f"},
			want:        []string{"0/3 shards quiescent", "twoversion-gossip"},
			fingerprint: "bbe2908e00e4900834c93ac3a5b2bcaea0a3b1342574f3a78649b88636e5ff3b",
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
			// -n 0 and -shards 0 resolve to the defaults; the report shows
			// what ran, not what was typed.
			name:    "run/prints the resolved configuration",
			args:    append([]string{"run", "-n", "0", "-shards", "0"}, small...),
			want:    []string{"1 shards x (N=5 f=1)", "0/1 shards quiescent", "Theorem B.1 1.2500, Theorem 5.1 1."},
			wantNot: []string{"N=0", "NaN", "0 shards"},
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
			name: "load/live sweep under delay faults",
			args: []string{"load", "-clients", "1,2", "-ops", "32", "-shards", "2", "-keys", "8", "-faults", "delay=1:8"},
			want: []string{"live load", "delay=1:8"}, wantNot: []string{"quiescent", "TCP"},
		},
		{
			// The net backend rides out a partition: at the default 100µs
			// step the 20ms window heals far inside the op timeout, so every
			// op completes.
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
		{
			name: "load/prints the resolved configuration",
			args: []string{"load", "-clients", "1", "-ops", "8", "-shards", "0", "-keys", "4"},
			want: []string{"1 shards x (N=5 f=1)"}, wantNot: []string{"0 shards"},
		},
		{
			// storagesim -alg abd -writes 3 -reads 2: round(5 x 0.4) = 2 reads.
			name: "profile/abd",
			args: []string{"profile", "-algo", "abd", "-n", "4", "-f", "1", "-nu", "1", "-ops", "5", "-reads", "0.4", "-valuebytes", "64"},
			want: []string{"algorithm        : abd ", "operations       : 5 ", "consistency      : atomic OK", "Theorem B.1"},
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

// TestParentOutput pins the paper subcommands byte for byte to what the
// binaries they replaced printed for the same flags (testdata/<name>.txt was
// captured from figure1, lowerbounds, proofcheck and storagesim at PR 21's
// parent commit). The one permitted difference is in the two profile files:
// their first line names the algorithm asked for (casgc) where storagesim
// printed its cluster's name (cas). storagesim's count-valued -writes 15
// -reads 4 is -ops 19 -reads 0.21 here.
func TestParentOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"figure1":        {"figure1"},
		"figure1-csv":    {"figure1", "-n", "5", "-f", "2", "-maxnu", "3", "-csv"},
		"bounds":         {"bounds"},
		"bounds-summary": {"bounds", "-nu", "8", "-summary", "4.0"},
		"proof":          {"proof"},
		"proof-b1":       {"proof", "-thm", "b1"},
		"proof-6.5":      {"proof", "-thm", "6.5"},
		"profile":        {"profile"},
		"profile-casgc":  {"profile", "-algo", "casgc", "-n", "9", "-f", "2", "-nu", "3", "-ops", "19", "-reads", "0.21", "-valuebytes", "1024"},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := shmemCmd(t, args...); got != string(want) {
				t.Errorf("shmem %s printed\n%s\nwant\n%s", strings.Join(args, " "), got, want)
			}
		})
	}
}

// backendRun is one run under a crash with recovery (from the servers'
// cloned images on the wall-clock backends), a healing partition and a
// control.
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

// TestHelpSucceeds: -h on any subcommand prints its flags and is not an
// error, and a command line without a known subcommand lists all seven.
func TestHelpSucceeds(t *testing.T) {
	subcommands := []string{"figure1", "bounds", "proof", "profile", "run", "grid", "load"}
	for _, sub := range subcommands {
		if err := run([]string{sub, "-h"}, io.Discard); err != nil {
			t.Errorf("shmem %s -h: %v, want success", sub, err)
		}
	}
	for _, args := range [][]string{nil, {"simulate"}} {
		err := run(args, io.Discard)
		for _, sub := range subcommands {
			if err == nil || !strings.Contains(err.Error(), sub) {
				t.Errorf("args %v: error %v does not list %q", args, err, sub)
			}
		}
	}
}

// TestRejects pins eager validation: a bad command line is an error from
// run(), typed where callers branch on it — never a panic or a partial run,
// so nothing is printed before it.
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
		{args: []string{"grid", "-backend", "bogus"}, is: shmem.ErrUnknownBackend},
		{args: []string{"load", "-backend", "sim"}, want: "want -backend live|net"},
		{args: []string{"run", "-n", "-1"}, want: "Servers must be >= 1"},
		{args: []string{"load", "-n", "-2"}, want: "Servers must be >= 1"},
		{args: []string{"run", "-f", "-1"}, want: "F must be >= 0"},
		{args: []string{"run", "-algo", "paxos"}, want: "unknown algorithm"},
		{args: []string{"run", "-no-such-flag"}, want: "flag provided but not defined"},
		{args: []string{"run", "-alg", "cas"}, want: "flag provided but not defined"},
		{args: []string{"profile", "-alg", "cas"}, want: "flag provided but not defined"},
		{args: []string{"profile", "-writes", "10"}, want: "flag provided but not defined"},
		{args: []string{"figure1", "-nu", "2"}, want: "flag provided but not defined"},
		{args: []string{"load", "-clients", "0"}, want: "bad client count"},
		{args: []string{"load", "-clients", "two"}, want: "bad client count"},
		{args: []string{"load", "-faults", "partition@40:10"}, want: "Faults[0]"}, // impossible window
		{args: []string{"load", "-faults", "crash-f@40:10"}, want: "Faults[0]"},   // recovery before crash
		{args: []string{"run", "-backend", "live", "-crashes", "1"}, want: "crash budget"},
		{args: []string{"figure1", "-f", "21"}, want: "need 0 <= f < N"},
		{args: []string{"figure1", "-maxnu", "-1"}, want: "negative maxNu"},
		{args: []string{"bounds", "-log2v", "0"}, want: "-log2v"},
		{args: []string{"bounds", "-log2v", "-5"}, want: "-log2v"},
		{args: []string{"bounds", "-nu", "-3"}, want: "-nu must be >= 0"},
		{args: []string{"bounds", "-n", "0"}, want: "need at least one server"},
		{args: []string{"proof", "-f", "-1"}, want: "need 0 <= f < N"},
		{args: []string{"proof", "-thm", "6.5", "-nu", "-1"}, want: "-nu must be >= 0"},
		{args: []string{"proof", "-thm", "6.5", "-nu", "0"}, want: "-nu must be >= 1 for -thm 6.5"},
		{args: []string{"proof", "-values", "-1"}, want: "-values must be >= 2"},
		{args: []string{"proof", "-thm", "7"}, want: "unknown theorem"},
		{args: []string{"proof", "-algo", "cas"}, want: "want twoversion or abd"},
		{args: []string{"profile", "-n", "3", "-f", "3"}, want: "need 0 <= f < N"},
		{args: []string{"profile", "-nu", "-1"}, want: "-nu must be >= 0"},
		{args: []string{"profile", "-algo", "paxos"}, want: "unknown algorithm"},
		{args: []string{"profile", "-reads", "1.5"}, want: "negative op counts"},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		switch {
		case out.Len() > 0:
			t.Errorf("args %v: printed before failing (%v):\n%s", tc.args, err, out.String())
		case err == nil:
			t.Errorf("args %v: run succeeded, want error", tc.args)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("args %v: error %v is not %v", tc.args, err, tc.is)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestProfileRejectsBadShape: a negative server count is a named error from
// profile, not a panic inside cluster construction.
func TestProfileRejectsBadShape(t *testing.T) {
	var out strings.Builder
	err := run([]string{"profile", "-n", "-1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need at least one server") || !strings.Contains(err.Error(), "N=-1") {
		t.Errorf("profile -n -1: err = %v, want an error naming the server count", err)
	}
	if out.Len() > 0 {
		t.Errorf("profile -n -1: printed before failing:\n%s", out.String())
	}
}
