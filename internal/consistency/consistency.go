// Package consistency implements checkers for the consistency conditions the
// paper's theorems assume: atomicity (linearizability), regularity for
// single-writer registers [Lamport 86], and the weak regularity of
// multi-writer registers used by Theorem 6.5 [Shao-Welch-Pierce-Lee].
//
// All checkers operate on ioa.History values recorded by the simulation
// kernel and require distinct written values (the experiments' workload
// generators guarantee this; the checkers verify it).
package consistency

import (
	"bytes"
	"fmt"

	"repro/internal/ioa"
)

// Violation describes a consistency failure.
type Violation struct {
	Condition string
	Op        ioa.Op
	Detail    string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("consistency: %s violated by %s: %s", v.Condition, v.Op, v.Detail)
}

// writesByValue maps the (unique) value of every completed or pending write
// to that write's index in ops.
func writesByValue(ops []ioa.Op) (map[string]int, error) {
	byVal := make(map[string]int)
	for i, op := range ops {
		if op.Kind != ioa.OpWrite {
			continue
		}
		if prev, dup := byVal[string(op.Input)]; dup {
			return nil, fmt.Errorf("consistency: duplicate write value %q (ops %d and %d); checkers require unique values", op.Input, ops[prev].ID, op.ID)
		}
		byVal[string(op.Input)] = i
	}
	return byVal, nil
}

// CheckRegular verifies single-writer regularity: every completed read
// returns either the value of the last write that completed before the read
// was invoked, or the value of some write overlapping the read, or initial
// when no write completed or overlaps. Writes must come from a single client
// and be sequential (guaranteed by the kernel's well-formedness).
func CheckRegular(h *ioa.History, initial []byte) error {
	if _, err := writesByValue(h.Ops); err != nil {
		return err
	}
	var writer ioa.NodeID
	for _, op := range h.Ops {
		if op.Kind != ioa.OpWrite {
			continue
		}
		if writer == 0 {
			writer = op.Client
		} else if op.Client != writer {
			return fmt.Errorf("consistency: CheckRegular requires a single writer, saw clients %d and %d", writer, op.Client)
		}
	}
	for _, r := range h.Ops {
		if r.Kind != ioa.OpRead || r.Pending() {
			continue
		}
		if err := checkRegularRead(h, r, initial); err != nil {
			return err
		}
	}
	return nil
}

func checkRegularRead(h *ioa.History, r ioa.Op, initial []byte) error {
	// Last write completed before the read's invocation.
	last := ioa.Op{ID: -1}
	haveLast := false
	for _, w := range h.Ops {
		if w.Kind != ioa.OpWrite || w.Pending() {
			continue
		}
		if w.RespondStep < r.InvokeStep && (!haveLast || w.RespondStep > last.RespondStep) {
			last, haveLast = w, true
		}
	}
	allowed := make([][]byte, 0, 4)
	if haveLast {
		allowed = append(allowed, last.Input)
	} else {
		allowed = append(allowed, initial)
	}
	// Any write overlapping the read.
	for _, w := range h.Ops {
		if w.Kind != ioa.OpWrite {
			continue
		}
		overlaps := w.InvokeStep < r.RespondStep && (w.Pending() || w.RespondStep >= r.InvokeStep)
		if overlaps {
			allowed = append(allowed, w.Input)
		}
	}
	for _, v := range allowed {
		if bytes.Equal(r.Output, v) {
			return nil
		}
	}
	return &Violation{
		Condition: "regularity",
		Op:        r,
		Detail:    fmt.Sprintf("returned %q, allowed values: last-complete or overlapping writes only", r.Output),
	}
}

// CheckWeaklyRegular verifies the multi-writer weak regularity of Section
// 6.2: for every completed read there must exist a serialization of the
// terminating writes, some subset of the non-terminating writes and that
// read, consistent with real-time order, in which the read returns the
// immediately preceding write's value. With unique values this reduces to a
// per-read condition:
//
//   - the write w whose value the read returns must not begin after the read
//     completed, and
//   - no terminating write w' may fall strictly between w and the read in
//     real time, and
//   - a read of the initial value must not be preceded by any terminating
//     write.
func CheckWeaklyRegular(h *ioa.History, initial []byte) error {
	byVal, err := writesByValue(h.Ops)
	if err != nil {
		return err
	}
	for _, r := range h.Ops {
		if r.Kind != ioa.OpRead || r.Pending() {
			continue
		}
		if bytes.Equal(r.Output, initial) {
			for _, w := range h.Ops {
				if w.Kind == ioa.OpWrite && w.PrecedesOp(r) {
					return &Violation{
						Condition: "weak regularity",
						Op:        r,
						Detail:    fmt.Sprintf("returned initial value but write op %d completed before it", w.ID),
					}
				}
			}
			continue
		}
		wi, ok := byVal[string(r.Output)]
		if !ok {
			return &Violation{Condition: "weak regularity", Op: r, Detail: "returned a value never written"}
		}
		w := h.Ops[wi]
		if r.PrecedesOp(w) {
			return &Violation{Condition: "weak regularity", Op: r, Detail: fmt.Sprintf("returned value of write op %d invoked after the read completed", w.ID)}
		}
		for _, w2 := range h.Ops {
			if w2.Kind != ioa.OpWrite || w2.ID == w.ID {
				continue
			}
			if w.PrecedesOp(w2) && w2.PrecedesOp(r) {
				return &Violation{
					Condition: "weak regularity",
					Op:        r,
					Detail:    fmt.Sprintf("write op %d intervenes between returned write op %d and the read", w2.ID, w.ID),
				}
			}
		}
	}
	return nil
}
