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
	"encoding/binary"
	"fmt"
	"hash/maphash"

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

// Check verifies h, from the zero initial value, against the named
// condition: "atomic", "regular" or "weakly-regular".
func Check(cond string, h *ioa.History) error {
	switch cond {
	case "atomic":
		return CheckAtomic(h, nil)
	case "regular":
		return CheckRegular(h, nil)
	case "weakly-regular":
		return CheckWeaklyRegular(h, nil)
	default:
		return fmt.Errorf("consistency: unknown condition %q", cond)
	}
}

// valueTable interns register values: every distinct value gets a small
// dense ID and equal values get equal IDs, so the checkers index and compare
// values as integers. A value is hashed once, when it is interned (long
// values by a sample, see sampleHash), and a hash match is confirmed with
// bytes.Equal: the IDs are exact whatever the hash does, and no value is
// ever copied. The zero value is an empty table.
type valueTable struct {
	hash func([]byte) uint64 // replaces sampleHash when set; tests force collisions here
	head map[uint64]int32    // hash -> the latest ID with that hash, plus one
	vals []interned          // by ID
}

type interned struct {
	val  []byte
	sum  uint64 // the hash of val
	prev int32  // the previous ID with the same hash, -1 = none
}

var hashSeed = maphash.MakeSeed()

// Values up to sampleWhole bytes are hashed whole; a longer one by its
// length, its first and last sampleEdge bytes and sampleWords evenly spaced
// sampleWord-byte words in between.
const (
	sampleWhole = 256
	sampleEdge  = 64
	sampleWords = 6
	sampleWord  = 16
)

// sampleHash hashes v for the value table. The chain walk in id compares the
// bytes anyway, so the hash only has to keep chains short, and a run's values
// differ in a header or throughout: reading all 64 KiB of each to learn that
// costs more than everything else the checker does with it. Values that agree
// on every sampled byte share a chain and are told apart there, at a
// comparison each.
func sampleHash(v []byte) uint64 {
	if len(v) <= sampleWhole {
		return maphash.Bytes(hashSeed, v)
	}
	var buf [8 + 2*sampleEdge + sampleWords*sampleWord]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	n := 8 + copy(buf[8:], v[:sampleEdge])
	stride := (len(v) - 2*sampleEdge - sampleWord) / (sampleWords + 1)
	for w := 1; w <= sampleWords; w++ {
		n += copy(buf[n:], v[sampleEdge+w*stride:][:sampleWord])
	}
	copy(buf[n:], v[len(v)-sampleEdge:])
	return maphash.Bytes(hashSeed, buf[:])
}

// id interns v.
func (t *valueTable) id(v []byte) int32 {
	hash := t.hash
	if hash == nil {
		hash = sampleHash
	}
	sum := hash(v)
	for id := t.head[sum] - 1; id >= 0; id = t.vals[id].prev {
		if bytes.Equal(t.vals[id].val, v) {
			return id
		}
	}
	return t.add(v, sum)
}

// add gives v, which must not be in the table, the next ID.
func (t *valueTable) add(v []byte, sum uint64) int32 {
	if t.head == nil {
		t.head = make(map[uint64]int32)
	}
	t.vals = append(t.vals, interned{v, sum, t.head[sum] - 1})
	t.head[sum] = int32(len(t.vals))
	return int32(len(t.vals)) - 1
}

// idsOf interns each operation's value: a write's input, a read's output.
func (t *valueTable) idsOf(ops []ioa.Op) []int32 {
	if t.head == nil { // sized for a history that is half writes
		t.head, t.vals = make(map[uint64]int32, len(ops)/2), make([]interned, 0, len(ops)/2)
	}
	ids := make([]int32, len(ops))
	for i := range ops {
		ids[i] = t.id(opValue(&ops[i]))
	}
	return ids
}

func opValue(op *ioa.Op) []byte {
	if op.Kind == ioa.OpWrite {
		return op.Input
	}
	return op.Output
}

// compact drops every value not named in live and renumbers the rest,
// rewriting live in place. Nothing is hashed or compared again: distinct old
// IDs are distinct values.
func (t *valueTable) compact(live ...[]int32) {
	old := *t
	*t = valueTable{hash: old.hash}
	renamed := make([]int32, len(old.vals)) // new ID + 1; 0 = not yet kept
	for _, ids := range live {
		for i, id := range ids {
			if renamed[id] == 0 {
				renamed[id] = t.add(old.vals[id].val, old.vals[id].sum) + 1
			}
			ids[i] = renamed[id] - 1
		}
	}
}

// preview formats a value for an error message by its length and first 16
// bytes: values run to megabytes, messages should not.
func preview(v []byte) string {
	return fmt.Sprintf("%d bytes %q", len(v), v[:min(len(v), 16)])
}

// writesByValue maps each of the n value IDs to the index in ops of the
// (unique) completed or pending write of that value, -1 where there is none.
func writesByValue(ops []ioa.Op, ids []int32, n int) ([]int, error) {
	writeOf := make([]int, n)
	for id := range writeOf {
		writeOf[id] = -1
	}
	for i, op := range ops {
		if op.Kind != ioa.OpWrite {
			continue
		}
		if prev := writeOf[ids[i]]; prev >= 0 {
			return nil, fmt.Errorf("consistency: duplicate write value %s (ops %d and %d); checkers require unique values", preview(op.Input), ops[prev].ID, op.ID)
		}
		writeOf[ids[i]] = i
	}
	return writeOf, nil
}

// CheckRegular verifies single-writer regularity: every completed read
// returns either the value of the last write that completed before the read
// was invoked, or the value of some write overlapping the read, or initial
// when no write completed or overlaps. Writes must come from a single client
// and be sequential (guaranteed by the kernel's well-formedness).
func CheckRegular(h *ioa.History, initial []byte) error {
	var vals valueTable
	ids := vals.idsOf(h.Ops)
	if _, err := writesByValue(h.Ops, ids, len(vals.vals)); err != nil {
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
		Detail:    fmt.Sprintf("returned %s, allowed values: last-complete or overlapping writes only", preview(r.Output)),
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
	var vals valueTable
	ids := vals.idsOf(h.Ops)
	writeOf, err := writesByValue(h.Ops, ids, len(vals.vals))
	if err != nil {
		return err
	}
	for i, r := range h.Ops {
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
		wi := writeOf[ids[i]]
		if wi < 0 {
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
