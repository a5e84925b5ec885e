package main

import "time"

// opSample is one operation of an interactive workload as the generator saw
// it. In an open loop lat runs from the time the operation was due, not from
// when it was issued, so a stall is charged to every operation that came due
// while the client was stuck behind it.
type opSample struct {
	due     time.Duration // offset from the schedule's start (open loop only)
	lat     time.Duration
	genLate time.Duration // how late the generator itself issued the operation
	write   bool
	err     error
}

// openLoop drives one client on a fixed schedule: operation i is due at
// start + i*interval whatever happened to its predecessors. A register
// client holds one operation at a time, so an operation whose predecessor is
// still running is issued the moment that one returns and its wait counts as
// latency. next prepares operation i (drawing its kind, building its value)
// before the generator sleeps towards the due time and returns the call that
// executes it.
//
// genLate is the generator's own lateness: issue time minus the later of the
// due time and the predecessor's return, i.e. timer overshoot, not backlog.
// In an otherwise idle process a Go timer fires on the netpoller's 1 ms
// grid, so an operation is issued up to a millisecond after it is due.
// Sleeping in nanosleep(2) on a locked thread, in the client or in a ticker
// feeding the clients, was tried and is more precise, but every wake-up
// inside an operation then costs a thread hand-off and runs with multi-second
// backlogs appeared; the plain timer repeats best.
func openLoop(start time.Time, n int, interval time.Duration, next func(i int) (write bool, do func() error)) []opSample {
	out := make([]opSample, 0, n)
	prevDone := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		write, do := next(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issued := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		err := do()
		prevDone = time.Now()
		out = append(out, opSample{
			due:     due.Sub(start),
			lat:     prevDone.Sub(due),
			genLate: issued.Sub(ready),
			write:   write,
			err:     err,
		})
	}
	return out
}
