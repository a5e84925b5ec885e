package ioa

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrStepLimit is returned when a scheduler exhausts its step budget before
// its stop condition holds.
var ErrStepLimit = errors.New("ioa: step limit reached")

// ErrQuiescent is returned when no message is deliverable and the stop
// condition does not hold (the system can make no further progress).
var ErrQuiescent = errors.New("ioa: system quiescent")

// StopFunc decides when a scheduler run is done.
type StopFunc func(*System) bool

// OpDone returns a StopFunc that holds once the operation with the given
// history ID has responded.
func OpDone(opID int) StopFunc {
	return func(s *System) bool {
		op, err := s.hist.OpByID(opID)
		return err == nil && !op.Pending()
	}
}

// AllOpsDone holds when no operation is pending.
func AllOpsDone(s *System) bool { return len(s.hist.open) == 0 }

// FairRun advances the system by repeatedly sweeping all deliverable
// channels in deterministic order, delivering one message per channel per
// sweep, until stop holds. Every continuously deliverable channel is served
// infinitely often, so a run that terminates only by stop is a prefix of a
// fair execution in the paper's sense.
//
// It returns nil when stop held, ErrQuiescent when the system ran out of
// deliverable messages first, and ErrStepLimit when maxSteps deliveries
// happened first.
func (s *System) FairRun(maxSteps int, stop StopFunc) error {
	if stop != nil && stop(s) {
		return nil
	}
	delivered := 0
	for {
		sweep := s.deliverables()
		if len(sweep) == 0 {
			// Under a fault plan the system may be only temporarily idle:
			// every queued message delayed or link-blocked, or a crashed
			// node with a recovery ahead. Advance logical time to the next
			// scheduled fault boundary before giving up.
			if s.FaultForward() {
				continue
			}
			return ErrQuiescent
		}
		for _, ch := range sweep {
			if !ch.deliverable {
				continue // earlier delivery in this sweep changed the state
			}
			if err := s.deliver(ch); err != nil {
				return fmt.Errorf("fair run: %w", err)
			}
			delivered++
			if stop != nil && stop(s) {
				return nil
			}
			if delivered >= maxSteps {
				return ErrStepLimit
			}
		}
	}
}

// RandomRun advances the system by delivering uniformly random deliverable
// messages until stop holds. With probability 1 a random run is fair, and a
// seeded rng makes it reproducible. Returns the same sentinel errors as
// FairRun.
func (s *System) RandomRun(rng *rand.Rand, maxSteps int, stop StopFunc) error {
	if stop != nil && stop(s) {
		return nil
	}
	for delivered := 0; delivered < maxSteps; {
		ok, err := s.DeliverRandom(rng)
		if err != nil {
			return fmt.Errorf("random run: %w", err)
		}
		if !ok {
			if s.FaultForward() {
				continue // fast-forwards do not consume the delivery budget
			}
			return ErrQuiescent
		}
		delivered++
		if stop != nil && stop(s) {
			return nil
		}
	}
	return ErrStepLimit
}

// Stepper advances a system one delivery at a time, rotating over the
// deliverable channels in (From, To) order so that every continuously
// deliverable channel is served within one rotation — a fair schedule taken
// one step at a time. The adversary machinery snapshots the system between
// Step calls to enumerate the "points" P_0, P_1, ... of an execution exactly
// as the paper's proofs do.
type Stepper struct {
	sys  *System
	last ChanKey
	init bool
}

// NewStepper returns a stepper over the system.
func NewStepper(sys *System) *Stepper { return &Stepper{sys: sys} }

// Step delivers the next message in rotation. It returns false when no
// message is deliverable.
func (st *Stepper) Step() (bool, error) {
	sweep := st.sys.deliverables()
	for len(sweep) == 0 {
		if !st.sys.FaultForward() {
			return false, nil
		}
		sweep = st.sys.deliverables()
	}
	pick := sweep[0]
	if st.init {
		for _, ch := range sweep {
			if k := ch.key; k.From > st.last.From || (k.From == st.last.From && k.To > st.last.To) {
				pick = ch
				break
			}
		}
	}
	st.init = true
	st.last = pick.key
	if err := st.sys.deliver(pick); err != nil {
		return false, fmt.Errorf("stepper: %w", err)
	}
	return true, nil
}

// DrainMatching delivers messages on channels accepted by the filter until
// none remain deliverable, and returns the number delivered. It is used by
// the Theorem 5.1 construction ("the channels between the servers act,
// delivering all their messages") with a server-to-server filter.
func (s *System) DrainMatching(maxSteps int, match func(from, to NodeID) bool) (int, error) {
	delivered := 0
	for {
		progressed := false
		for _, ch := range s.deliverables() {
			if !match(ch.key.From, ch.key.To) || !ch.deliverable {
				continue
			}
			if err := s.deliver(ch); err != nil {
				return delivered, fmt.Errorf("drain: %w", err)
			}
			delivered++
			progressed = true
			if delivered >= maxSteps {
				return delivered, ErrStepLimit
			}
		}
		if !progressed {
			// Give fault-delayed or link-blocked matching messages a chance
			// to become deliverable before concluding the drain is done.
			if s.FaultForward() {
				continue
			}
			return delivered, nil
		}
	}
}

// DrainServerToServer delivers all pending server-to-server messages
// (gossip), as in the Theorem 5.1 valency definition.
func (s *System) DrainServerToServer(maxSteps int) (int, error) {
	return s.DrainMatching(maxSteps, func(from, to NodeID) bool {
		return s.isServer(from) && s.isServer(to)
	})
}

// RunOp invokes an operation at a client and fair-runs the system until the
// operation completes. It returns the completed operation.
func (s *System) RunOp(client NodeID, inv Invocation, maxSteps int) (Op, error) {
	id, err := s.Invoke(client, inv)
	if err != nil {
		return Op{}, err
	}
	if err := s.FairRun(maxSteps, OpDone(id)); err != nil {
		return Op{}, fmt.Errorf("op %d (%v at client %d): %w", id, inv.Kind, client, err)
	}
	return s.hist.OpByID(id)
}
