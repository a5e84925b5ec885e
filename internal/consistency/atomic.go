package consistency

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ioa"
)

// CheckAtomic verifies linearizability (atomicity) of a register history
// with unique written values. Completed operations must all be linearized;
// pending operations may take effect or not, at the checker's discretion
// (the standard completion semantics).
//
// With unique values every read names its write, and for such histories
// linearizability is decidable without search [Gibbons & Korach, "Testing
// Shared Memories", SIAM J. Comput. 26(4), 1997, Theorem 4.2]. Group each
// write with the reads returning its value into a cluster; the cluster's zone
// runs between its earliest response f and its latest invocation s — forward
// when f < s (two of its operations are ordered in real time, so the cluster
// occupies at least [f, s] of any linearization), backward otherwise (all of
// its operations overlap in [s, f], so it can be placed at any point
// there). The history is atomic iff
//
//  1. no read responds before its own write is invoked,
//  2. no two forward zones overlap, and
//  3. no backward zone lies strictly inside a forward zone,
//
// which costs one hash pass over the operations plus one sort of the forward
// zones: O(n log n) whatever the concurrency.
//
// Conventions. Precedence is strict (a.RespondStep < b.InvokeStep; equal
// steps are concurrent, as Op.PrecedesOp says), i.e. invocation t sits at 2t
// and response t at 2t+1 on a common axis. Every comparison below is between
// a response and an invocation and is strict, which is exactly what that
// mapping yields, so zone ends never tie. The initial value is a virtual
// write at −∞. Pending reads are dropped. A pending write responds at +∞: if
// no read returns its value its zone is the backward [invoke, +∞), which
// rule 3 can never fire on — the write is free not to take effect — and if
// some read does, the reads supply the zone's finite ends.
func CheckAtomic(h *ioa.History, initial []byte) error {
	return checkAtomic(new(valueTable), h, initial)
}

func checkAtomic(vals *valueTable, h *ioa.History, initial []byte) error {
	ids, init := vals.idsOf(h.Ops), vals.id(initial)
	return checkZones(h.Ops, ids, len(vals.vals), init)
}

// zone summarises one cluster: a write and the completed reads of its value.
type zone struct {
	write   int // ops index of the cluster's write; -1 = the initial value
	minResp int // earliest response among the members: f
	maxInv  int // latest invocation among the members: s
	last    int // ops index of the member invoked at maxInv (-1 = the virtual write)
}

func (z *zone) forward() bool { return z.minResp < z.maxInv }

// checkZones is the decision procedure behind CheckAtomic and the online
// checker: nil when ops linearize from register value initial, a
// *Violation naming the broken rule otherwise (or a plain error when written
// values are not unique). Values are interned: ids[i] is the ID of ops[i]'s
// value, initial the ID of the initial value, all below n.
func checkZones(ops []ioa.Op, ids []int32, n int, initial int32) error {
	byVal, err := writesByValue(ops, ids, n)
	if err != nil {
		return err
	}
	// zones[i] is the cluster of the write ops[i] (unused at read indices);
	// the last slot is the initial value's, a virtual write at -inf.
	zones := make([]zone, len(ops)+1)
	initZone := len(ops)
	zones[initZone] = zone{write: -1, minResp: math.MinInt, maxInv: math.MinInt, last: -1}
	for i, op := range ops {
		if op.Kind == ioa.OpWrite {
			zones[i] = zone{write: i, minResp: respondOrInf(op), maxInv: op.InvokeStep, last: i}
		}
	}
	// A write may rewrite the initial value, which leaves the reads of it
	// ambiguous. One invoked after any other operation responded must follow
	// a write, so it is the rewrite's; the rest precede or overlap everything
	// else and can always be linearized first, as reads of the initial value.
	rewrite := byVal[initial]
	rewritten := rewrite >= 0
	othersRespond := math.MaxInt
	if rewritten {
		for i, op := range ops {
			if op.Kind == ioa.OpWrite || !op.Pending() && ids[i] != initial {
				othersRespond = min(othersRespond, respondOrInf(op))
			}
		}
	} else {
		byVal[initial] = initZone
	}
	for i, op := range ops {
		if op.Kind != ioa.OpRead || op.Pending() {
			continue
		}
		zi := byVal[ids[i]]
		if zi < 0 {
			return &Violation{Condition: "atomicity", Op: op, Detail: "read returned a value that was never written"}
		}
		if rewritten && zi == rewrite && op.InvokeStep <= othersRespond {
			zi = initZone
		}
		z := &zones[zi]
		if w := z.write; w >= 0 && op.RespondStep < ops[w].InvokeStep {
			return &Violation{Condition: "atomicity", Op: op, Detail: fmt.Sprintf(
				"read-before-write: read op %d responded at step %d, before write op %d of the value it returned was invoked at step %d",
				op.ID, op.RespondStep, ops[w].ID, ops[w].InvokeStep)}
		}
		z.minResp = min(z.minResp, op.RespondStep)
		if op.InvokeStep > z.maxInv {
			z.maxInv, z.last = op.InvokeStep, i
		}
	}

	var fwd, bwd []*zone
	for i := range zones {
		if i != initZone && ops[i].Kind != ioa.OpWrite {
			continue
		}
		if z := &zones[i]; z.forward() {
			fwd = append(fwd, z)
		} else {
			bwd = append(bwd, z)
		}
	}
	slices.SortFunc(fwd, func(a, b *zone) int {
		if c := cmp.Compare(a.minResp, b.minResp); c != 0 {
			return c
		}
		return cmp.Compare(a.write, b.write)
	})
	// Sorted by f, any two overlapping forward zones force an adjacent pair
	// to overlap: f_i <= f_i+1 <= f_j < s_i.
	for i := 1; i < len(fwd); i++ {
		if a, b := fwd[i-1], fwd[i]; b.minResp < a.maxInv {
			// Each cluster has an operation preceding one of the other's;
			// blame the later-invoked of the two zone-closing operations.
			blame := a
			if b.maxInv > a.maxInv {
				blame = b
			}
			return &Violation{Condition: "atomicity", Op: ops[blame.last], Detail: fmt.Sprintf(
				"forward zones overlap: the clusters of %s %s and %s %s must each precede the other",
				a.name(ops), a.span(), b.name(ops), b.span())}
		}
	}
	// The forward zones are now disjoint and ascending in both ends, so the
	// only one that can contain a backward zone [s, f] is the last with F < s.
	for _, z := range bwd {
		k := sort.Search(len(fwd), func(k int) bool { return fwd[k].minResp >= z.maxInv })
		if k == 0 {
			continue
		}
		if a := fwd[k-1]; z.minResp < a.maxInv {
			return &Violation{Condition: "atomicity", Op: ops[a.last], Detail: fmt.Sprintf(
				"backward zone inside forward zone: the cluster of %s %s falls between operations of the cluster of %s %s",
				z.name(ops), z.span(), a.name(ops), a.span())}
		}
	}
	return nil
}

// name identifies the zone's cluster by its write for violation reports.
func (z *zone) name(ops []ioa.Op) string {
	if z.write < 0 {
		return "the initial value"
	}
	return fmt.Sprintf("write op %d", ops[z.write].ID)
}

// span formats the zone's ends, earlier first.
func (z *zone) span() string {
	lo, hi := z.minResp, z.maxInv
	if !z.forward() {
		lo, hi = hi, lo
	}
	return fmt.Sprintf("[%s,%s]", stepString(lo), stepString(hi))
}

func stepString(t int) string {
	switch t {
	case math.MinInt:
		return "-inf"
	case math.MaxInt:
		return "+inf"
	}
	return fmt.Sprint(t)
}

// respondOrInf treats pending ops as responding at +infinity.
func respondOrInf(op ioa.Op) int {
	if op.Pending() {
		return math.MaxInt
	}
	return op.RespondStep
}
