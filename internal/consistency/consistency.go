// Package consistency implements checkers for the consistency conditions the
// deployed registers guarantee: atomicity (linearizability) and regularity
// for single-writer registers [Lamport 86], offline over a whole history
// (CheckAtomic, CheckRegular) and online over a stream (OnlineChecker).
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
	"math"

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
// condition: "atomic" or "regular".
func Check(cond string, h *ioa.History) error {
	switch cond {
	case "atomic":
		return CheckAtomic(h, nil)
	case "regular":
		return CheckRegular(h, nil)
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
	var vals valueTable
	ids, init := vals.idsOf(h.Ops), vals.id(initial)
	return checkRegularOps(h.Ops, ids, len(vals.vals), init)
}

// checkRegularOps is the regularity rule behind CheckRegular and the online
// checker: nil when every completed read in ops is regular with the register
// holding value initial before ops, a *Violation naming the first read that
// is not otherwise (or a plain error when written values are not unique).
// Values are interned as for checkZones. The scan is quadratic in len(ops);
// the online checker bounds it by its window.
func checkRegularOps(ops []ioa.Op, ids []int32, n int, initial int32) error {
	if _, err := writesByValue(ops, ids, n); err != nil {
		return err
	}
	var writes []int
	for i, op := range ops {
		if op.Kind == ioa.OpWrite {
			writes = append(writes, i)
		}
	}
	for i, r := range ops {
		if r.Kind != ioa.OpRead || r.Pending() || regularRead(ops, ids, writes, i, initial) {
			continue
		}
		return &Violation{
			Condition: "regularity",
			Op:        r,
			Detail:    fmt.Sprintf("returned %s, allowed values: last-complete or overlapping writes only", preview(r.Output)),
		}
	}
	return nil
}

// regularRead reports whether the completed read ops[ri] returns the value
// of the last write completed before its invocation (initial when none has),
// or that of a write overlapping it. writes indexes the writes in ops.
func regularRead(ops []ioa.Op, ids []int32, writes []int, ri int, initial int32) bool {
	r := ops[ri]
	last, lastResp := initial, math.MinInt
	for _, wi := range writes {
		w := ops[wi]
		if !w.Pending() && w.RespondStep < r.InvokeStep {
			if w.RespondStep > lastResp {
				last, lastResp = ids[wi], w.RespondStep
			}
		} else if w.InvokeStep < r.RespondStep && ids[wi] == ids[ri] {
			return true
		}
	}
	return ids[ri] == last
}
