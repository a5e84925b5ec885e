package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/workload"
)

// runFlights is RunConfig's windowed batch driver. min(TargetNu, writers)
// writer goroutines and every reader goroutine issue operations from shared
// budgets until the spec's counts are exhausted, keeping up to
// Config.Pipeline ops in flight per client — the node starts each only when
// its predecessor responds, so per-client program order holds and the
// automaton still sees one op at a time. A timed-out operation retires its
// client: the automaton is stuck mid-protocol, so every op queued behind it
// is abandoned rather than waited out. It returns one wall-clock latency per
// completed operation, in no particular order (collected per driver,
// mutex-free, and merged after the joins; a pipelined latency includes the
// queue wait at the node), and the peak of concurrently in-flight writes
// (the execution's measured ν, counting submitted ops — an upper bound on
// the protocol-level ν the history records). When the run feeds an online
// checker (chk), the drivers sync every chk.WindowOps() issued operations.
func (rt *runtime) runFlights(cl *cluster.Cluster, spec workload.Spec, chk checker) (lats []time.Duration, peakActiveWrites int) {
	cfg := rt.cfg
	onSubmit, observe := rt.tel.OpObserver()
	var writesLeft, readsLeft atomic.Int64
	writesLeft.Store(int64(spec.Writes))
	readsLeft.Store(int64(spec.Reads))
	var nextVal atomic.Uint64
	var activeWrites, peakWrites atomic.Int64

	type flight struct {
		ie      *invokeEvent
		start   time.Time
		isWrite bool
	}
	var qc *quiescer
	driver := func(client ioa.NodeID, kind ioa.OpKind, budget *atomic.Int64) []time.Duration {
		var lats []time.Duration
		var window []flight
		settle := func(fl flight) bool {
			_, _, ok := fl.ie.wait(context.Background(), cfg.OpTimeout)
			if fl.isWrite {
				activeWrites.Add(-1)
			}
			lat := time.Since(fl.start)
			if ok {
				lats = append(lats, lat)
			}
			if observe != nil {
				observe(fl.isWrite, lat, ok)
			}
			return ok
		}
		alive := true
		var synced int64
		defer qc.leave()
		for alive {
			// Quiescence point (the checker's window): the global issue counter
			// crossed a sync boundary, so drain the in-flight window and
			// meet the other drivers at the barrier; the moment it releases,
			// nothing is in flight anywhere — a clean cut in the history.
			if r := qc.due(); r > synced {
				for alive && len(window) > 0 {
					alive = settle(window[0])
					window = window[1:]
				}
				if !alive {
					break
				}
				qc.await(r)
				synced = r
			}
			if budget.Add(-1) < 0 {
				break
			}
			if len(window) == cfg.Pipeline {
				alive = settle(window[0])
				window = window[1:]
				if !alive {
					budget.Add(1) // this op was never submitted; return its slot
					break
				}
			}
			inv := ioa.Invocation{Kind: kind}
			isWrite := kind == ioa.OpWrite
			if isWrite {
				inv.Value = register.MakeValue(spec.ValueBytes, nextVal.Add(1))
				ioa.RaiseMax(&peakWrites, activeWrites.Add(1))
			}
			if onSubmit != nil {
				onSubmit(isWrite)
			}
			window = append(window, flight{rt.invokeAsync(client, inv), time.Now(), isWrite})
			qc.tick()
		}
		for _, fl := range window {
			if alive {
				alive = settle(fl)
				continue
			}
			// An earlier op at this client is stuck, so nothing behind it
			// can start; abandon instead of waiting a full timeout each.
			// The rare loser of the abandon race (the stuck op completed
			// right after its timeout, so this one started) is settled
			// normally.
			if fl.ie.abandon() {
				fl.ie.span.End()
				if fl.isWrite {
					activeWrites.Add(-1)
				}
				if observe != nil {
					observe(fl.isWrite, 0, false)
				}
				continue
			}
			alive = settle(fl)
		}
		return lats
	}

	nWriters := min(spec.TargetNu, len(cl.Writers))
	nDrivers := nWriters + len(cl.Readers)
	var syncOps int64
	if chk != nil {
		syncOps = int64(chk.WindowOps())
	}
	qc = newQuiescer(syncOps, nDrivers)
	latChunks := make([][]time.Duration, nDrivers)
	var dwg sync.WaitGroup
	for i := 0; i < nWriters; i++ {
		dwg.Add(1)
		go func(slot int, id ioa.NodeID) {
			defer dwg.Done()
			latChunks[slot] = driver(id, ioa.OpWrite, &writesLeft)
		}(i, cl.Writers[i])
	}
	for i, id := range cl.Readers {
		dwg.Add(1)
		go func(slot int, id ioa.NodeID) {
			defer dwg.Done()
			latChunks[slot] = driver(id, ioa.OpRead, &readsLeft)
		}(nWriters+i, id)
	}
	dwg.Wait()
	for _, chunk := range latChunks {
		lats = append(lats, chunk...)
	}
	return lats, int(peakWrites.Load())
}
