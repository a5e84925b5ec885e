package workload

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ioa"
	"repro/internal/register"
)

// Flight is one asynchronously submitted operation, as handed back by a
// concurrent runtime's async invoke. internal/runtime satisfies it with its
// pendingOp.
type Flight interface {
	// Wait blocks until the operation completes or timeout elapses,
	// reporting whether it completed. On timeout the runtime retires the
	// client (the automaton is stuck mid-protocol).
	Wait(timeout time.Duration) bool
	// Abandon retires the operation without waiting a full timeout,
	// reporting whether it won the race against completion. A false return
	// means the op actually completed and must still be settled with Wait.
	Abandon() bool
}

// FlightConfig parameterizes RunFlights with the runtime-specific pieces.
type FlightConfig struct {
	// Pipeline is the per-client in-flight window (>= 1).
	Pipeline int
	// SyncOps > 0 inserts driver quiescence barriers every SyncOps issued
	// operations (see Quiescer).
	SyncOps int
	// OpTimeout bounds each operation's completion wait.
	OpTimeout time.Duration
	// Invoke submits one operation at a client and returns its flight.
	Invoke func(client ioa.NodeID, inv ioa.Invocation) Flight
	// OnSubmit, if non-nil, is called once per submitted operation —
	// the telemetry hook for started-op counters.
	OnSubmit func(isWrite bool)
	// Observe, if non-nil, is called once per settled operation with its
	// wall-clock latency (latency 0 for ops abandoned without waiting) —
	// the telemetry hook for completion counters and latency histograms.
	Observe func(isWrite bool, latency time.Duration, ok bool)
}

// FlightResult is what the windowed driver measures directly.
type FlightResult struct {
	// Latencies holds one wall-clock duration per completed operation, in
	// no particular order.
	Latencies []time.Duration
	// PeakActiveWrites is the maximum of concurrently in-flight writes (the
	// execution's measured ν, counting submitted ops — an upper bound on
	// the protocol-level ν the history records).
	PeakActiveWrites int
	// Elapsed is the wall time from first submission to last settle.
	Elapsed time.Duration
}

// RunFlights is the windowed flight driver of the wall-clock node runtime
// (internal/runtime). min(TargetNu, writers) writer goroutines and every
// reader goroutine issue operations from shared budgets until the spec's
// counts are exhausted, keeping up to Pipeline ops in flight per client — the node
// starts each only when its predecessor responds, so per-client program
// order holds and the automaton still sees one op at a time. A timed-out
// operation retires its client: the automaton is stuck mid-protocol, so
// every op queued behind it is abandoned rather than waited out. Latencies
// are collected per driver, mutex-free, and merged after the joins; a pipelined latency includes the queue wait at
// the node.
func RunFlights(cl *cluster.Cluster, spec Spec, cfg FlightConfig) FlightResult {
	var writesLeft, readsLeft atomic.Int64
	writesLeft.Store(int64(spec.Writes))
	readsLeft.Store(int64(spec.Reads))
	var nextVal atomic.Uint64
	var activeWrites, peakWrites atomic.Int64

	type flight struct {
		f       Flight
		start   time.Time
		isWrite bool
	}
	var qc *Quiescer
	driver := func(client ioa.NodeID, kind ioa.OpKind, budget *atomic.Int64) []time.Duration {
		var lats []time.Duration
		var window []flight
		settle := func(fl flight) bool {
			ok := fl.f.Wait(cfg.OpTimeout)
			if fl.isWrite {
				activeWrites.Add(-1)
			}
			lat := time.Since(fl.start)
			if ok {
				lats = append(lats, lat)
			}
			if cfg.Observe != nil {
				cfg.Observe(fl.isWrite, lat, ok)
			}
			return ok
		}
		alive := true
		var synced int64
		defer qc.Leave()
		for alive {
			// Quiescence point (cfg.SyncOps): the global issue counter
			// crossed a sync boundary, so drain the in-flight window and
			// meet the other drivers at the barrier; the moment it releases,
			// nothing is in flight anywhere — a clean cut in the history.
			if r := qc.Due(); r > synced {
				for alive && len(window) > 0 {
					alive = settle(window[0])
					window = window[1:]
				}
				if !alive {
					break
				}
				qc.Await(r)
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
				cur := activeWrites.Add(1)
				for {
					p := peakWrites.Load()
					if cur <= p || peakWrites.CompareAndSwap(p, cur) {
						break
					}
				}
			}
			if cfg.OnSubmit != nil {
				cfg.OnSubmit(isWrite)
			}
			window = append(window, flight{cfg.Invoke(client, inv), time.Now(), isWrite})
			qc.Tick()
		}
		for i, fl := range window {
			if alive {
				alive = settle(fl)
				continue
			}
			// An earlier op at this client is stuck, so nothing behind it
			// can start; abandon instead of waiting a full timeout each.
			// The rare loser of the abandon race (the stuck op completed
			// right after its timeout) is settled normally.
			if fl.f.Abandon() {
				if fl.isWrite {
					activeWrites.Add(-1)
				}
				if cfg.Observe != nil {
					cfg.Observe(fl.isWrite, 0, false)
				}
				continue
			}
			alive = settle(window[i])
		}
		return lats
	}

	nWriters := spec.TargetNu
	if nWriters > len(cl.Writers) {
		nWriters = len(cl.Writers)
	}
	nDrivers := nWriters + len(cl.Readers)
	if cfg.SyncOps > 0 {
		qc = NewQuiescer(int64(cfg.SyncOps), nDrivers)
	}
	latChunks := make([][]time.Duration, nDrivers)
	var dwg sync.WaitGroup
	started := time.Now()
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
	res := FlightResult{PeakActiveWrites: int(peakWrites.Load()), Elapsed: time.Since(started)}
	for _, chunk := range latChunks {
		res.Latencies = append(res.Latencies, chunk...)
	}
	return res
}
