package runtime_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPooledSharesSurviveFaults runs casgc, whose coded elements come from
// the shard pool and go back to it when their last holder lets go, under a
// crash, random delays and random loss, on both links and on the simulator.
// A test binary poisons every buffer the pool takes back, and a stale
// element panics at its next Retain or Release; so an element read after
// its last holder let go — a copy kept without Retain, a Release too many —
// shows as a history that fails its check, a read that never decodes, or a
// panic. Loss may cost liveness; it must not cost atomicity.
func TestPooledSharesSurviveFaults(t *testing.T) {
	for _, spec := range []string{"crash-f@10", "delay=1:8", "lossy=0.02"} {
		t.Run(spec, func(t *testing.T) {
			sc, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := sc.Build(5, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			lossy := strings.HasPrefix(spec, "lossy")
			wl := workload.Spec{Seed: 3, Writes: 32, Reads: 32, TargetNu: 2, ValueBytes: 1024, FaultPlan: plan}
			judge := func(t *testing.T, h *ioa.History, quiescent bool) {
				t.Helper()
				if quiescent && !lossy {
					t.Errorf("%s lost liveness: %d ops pending", spec, len(h.PendingOps()))
				}
				if done := len(h.Ops) - len(h.PendingOps()); done < 8 {
					t.Errorf("only %d ops completed", done)
				}
				check(t, store.AlgCASGC, "atomic", h)
			}
			overLinks(t, func(t *testing.T, backend string) {
				cl, _ := deploy(t, store.AlgCASGC, 5, 1, 2, 2)
				res, err := runtime.RunConfig(backend, cl, wl, runtime.Config{StepDur: 100 * time.Microsecond, OpTimeout: time.Second}, nil, nil)
				if err != nil {
					t.Fatalf("RunConfig: %v", err)
				}
				judge(t, res.History, res.Quiescent)
			})
			t.Run("sim", func(t *testing.T) {
				cl, _ := deploy(t, store.AlgCASGC, 5, 1, 2, 2)
				res, err := workload.Run(cl, wl)
				if err != nil {
					t.Fatalf("workload.Run: %v", err)
				}
				judge(t, res.History, res.Quiescent)
			})
		})
	}

	// The simulator forks a system with a write's pre-write messages in
	// flight: both copies deliver them, so each queued element has two
	// holders. One branch then collects the forked write's element away
	// (three more writes at δ=0) while the other has yet to read it.
	t.Run("sim-fork", func(t *testing.T) {
		cl, _ := deploy(t, store.AlgCASGC, 5, 1, 1, 1)
		w, r := cl.Writers[0], cl.Readers[0]
		sys := cl.Sys
		write := func(sys *ioa.System, seed uint64) []byte {
			v := register.MakeValue(1024, seed)
			if _, err := sys.RunOp(w, ioa.Invocation{Kind: ioa.OpWrite, Value: v}, 100000); err != nil {
				t.Fatal(err)
			}
			return v
		}
		read := func(sys *ioa.System, want []byte, branch string) {
			op, err := sys.RunOp(r, ioa.Invocation{Kind: ioa.OpRead}, 100000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(op.Output, want) {
				t.Fatalf("%s read %x..., want %x...", branch, op.Output[:min(8, len(op.Output))], want[:8])
			}
		}
		write(sys, 1)
		forked := register.MakeValue(1024, 2)
		if _, err := sys.Invoke(w, ioa.Invocation{Kind: ioa.OpWrite, Value: forked}); err != nil {
			t.Fatal(err)
		}
		writer, err := sys.Node(w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for {
			if _, valueDependent := writer.(quorum.PhasedWriter).WritePhase(); valueDependent {
				break
			}
			if ok, err := sys.DeliverRandom(rng); err != nil || !ok {
				t.Fatalf("the write stalled before its pre-write: %v", err)
			}
		}
		other := sys.Snapshot().Restore()
		for _, b := range []*ioa.System{sys, other} {
			if err := b.FairRun(100000, ioa.AllOpsDone); err != nil {
				t.Fatal(err)
			}
		}
		var last []byte
		for seed := uint64(10); seed < 13; seed++ {
			last = write(sys, seed)
		}
		read(sys, last, "collecting branch")
		read(other, forked, "forked branch")
		read(other, write(other, 20), "forked branch")
		for name, b := range map[string]*ioa.System{"collecting": sys, "forked": other} {
			if err := consistency.CheckAtomic(b.History(), nil); err != nil {
				t.Errorf("%s branch history not atomic: %v", name, err)
			}
		}
	})
}
