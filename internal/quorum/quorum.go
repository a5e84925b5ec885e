// Package quorum provides the threshold quorum systems and the write-protocol
// classification of Section 6.1: phases, value-dependent send actions, and
// the three assumptions under which Theorem 6.5 applies.
package quorum

import "fmt"

// System is a threshold quorum system over n servers: every subset of
// exactly Size servers is a quorum.
type System struct {
	N    int
	Size int
}

// PhaseSpec describes one phase of a write protocol in the sense of
// Definition 6.1: send to a set of servers, await a quorum of responses,
// finish.
type PhaseSpec struct {
	// Name identifies the phase (e.g. "query", "pre-write", "finalize").
	Name string
	// Quorum is the response quorum the phase awaits.
	Quorum System
	// ValueDependent reports whether the phase performs any value-dependent
	// send action (Definition 6.4): a message whose content depends on the
	// value being written.
	ValueDependent bool
}

// WriteProfile classifies a write protocol against the assumptions of
// Section 6.1.
type WriteProfile struct {
	// Algorithm names the protocol.
	Algorithm string
	// Phases lists the protocol's phases in order (Assumption 2 requires
	// the protocol to decompose into such phases).
	Phases []PhaseSpec
	// MetadataSeparated reports Assumption 1: the writer's state has the
	// form (v, m, h(v, m)) — value, metadata, and a value-derived component.
	MetadataSeparated bool
	// BlackBox reports Assumption 3(a): all write-client actions treat the
	// value as a black box.
	BlackBox bool
}

// ValueDependentPhases counts phases that send value-dependent messages.
func (p WriteProfile) ValueDependentPhases() int {
	n := 0
	for _, ph := range p.Phases {
		if ph.ValueDependent {
			n++
		}
	}
	return n
}

// Theorem65Applies checks Assumptions 1, 2 and 3 of Section 6.1: metadata
// separation, decomposability into phases, black-box actions, and at most
// one value-dependent phase with no value-dependent phase after it. It
// returns nil when the storage lower bound of Theorem 6.5 applies to the
// algorithm.
func (p WriteProfile) Theorem65Applies() error {
	if !p.MetadataSeparated {
		return fmt.Errorf("quorum: %s violates Assumption 1 (writer state does not separate value and metadata)", p.Algorithm)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("quorum: %s violates Assumption 2 (write protocol not decomposed into phases)", p.Algorithm)
	}
	if !p.BlackBox {
		return fmt.Errorf("quorum: %s violates Assumption 3(a) (non-black-box write actions)", p.Algorithm)
	}
	seenValueDep := false
	for _, ph := range p.Phases {
		if seenValueDep && ph.ValueDependent {
			return fmt.Errorf("quorum: %s violates Assumption 3(b): phase %q sends value-dependent messages after an earlier value-dependent phase", p.Algorithm, ph.Name)
		}
		if ph.ValueDependent {
			seenValueDep = true
		}
	}
	return nil
}

// PhasedWriter is implemented by write clients whose current phase can be
// introspected. The Theorem 6.5 execution construction uses it to pause a
// writer exactly when its value-dependent messages sit undelivered in the
// channels.
type PhasedWriter interface {
	// WritePhase returns the 1-based index of the phase the outstanding
	// write is in (0 when idle) and whether that phase's sends are
	// value-dependent.
	WritePhase() (phase int, valueDependent bool)
}
