package consistency_test

// A reference implementation for CheckAtomic: a depth-first search over
// linearizations that tries only "minimal" operations (all real-time
// predecessors already linearized) and memoizes failed (chosen-set,
// last-written-value) states in an open-addressed table of packed bitsets.
// It shares nothing with the zone test — it builds a linearization and never
// groups reads with writes — and is worst-case exponential, so it only ever
// sees small histories.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ioa"
)

// dfsAtomic reports whether the history linearizes from initial, by search.
// Pending reads are dropped; pending writes may or may not take effect.
func dfsAtomic(h *ioa.History, initial []byte) bool {
	ops := make([]ioa.Op, 0, len(h.Ops))
	for _, op := range h.Ops {
		if op.Pending() && op.Kind == ioa.OpRead {
			continue
		}
		ops = append(ops, op)
	}
	c, ok := newLinChecker(ops, initial)
	return ok && c.dfs(0)
}

// linChecker holds the search state for one linearizability check.
type linChecker struct {
	ops     []ioa.Op
	initial []byte
	// chosen[i] reports whether ops[i] has been linearized; state is the
	// same set packed into uint64 words, maintained incrementally as the
	// memo key prefix.
	chosen []bool
	state  []uint64
	nDone  int // count of chosen completed ops
	nMust  int // number of completed ops (all must be linearized)
	// writeVal[i] is the value id a write op installs (-1 for reads);
	// readVal[i] is the value id a read op returns (-1 for writes). Value
	// ids substitute smallint comparisons for byte-slice map lookups in the
	// search.
	writeVal []int
	readVal  []int
	// Ops are sorted by invocation, so the set of ops invoked after op j's
	// response is the suffix starting at succFrom[j]; predLeft[i] counts op
	// i's not-yet-linearized real-time predecessors. An op is a search
	// candidate exactly when predLeft is 0.
	succFrom []int32
	predLeft []int32
	memo     deadTable
	keyBuf   []uint64
}

// newLinChecker builds the search state; false when a completed read
// returned a value that was never written.
func newLinChecker(ops []ioa.Op, initial []byte) (*linChecker, bool) {
	// Sort by invocation for deterministic candidate order.
	sorted := append([]ioa.Op(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].InvokeStep < sorted[j].InvokeStep })
	n := len(sorted)
	words := (n + 63) / 64
	c := &linChecker{
		ops:      sorted,
		initial:  initial,
		chosen:   make([]bool, n),
		state:    make([]uint64, words),
		writeVal: make([]int, n),
		readVal:  make([]int, n),
		succFrom: make([]int32, n),
		predLeft: make([]int32, n),
		keyBuf:   make([]uint64, words+1),
	}
	c.memo.init(words + 1)
	// valueID maps each distinct written value (plus initial) to a small
	// integer; it is only needed during construction.
	valueID := map[string]int{string(initial): 0}
	for i, op := range sorted {
		if !op.Pending() {
			c.nMust++
		}
		c.writeVal[i], c.readVal[i] = -1, -1
		if op.Kind == ioa.OpWrite {
			key := string(op.Input)
			id, ok := valueID[key]
			if !ok {
				id = len(valueID)
				valueID[key] = id
			}
			c.writeVal[i] = id
		}
	}
	for i, op := range sorted {
		if op.Kind == ioa.OpRead && !op.Pending() {
			id, ok := valueID[string(op.Output)]
			if !ok {
				return nil, false
			}
			c.readVal[i] = id
		}
	}
	// Precompute the real-time precedence structure: j precedes i when j's
	// response happens before i's invocation, and (by the invocation sort)
	// those i form the suffix starting at the first op invoked after j
	// responded.
	for j, opj := range sorted {
		r := respondOrInf(opj)
		lo := sort.Search(n, func(i int) bool { return sorted[i].InvokeStep > r })
		c.succFrom[j] = int32(lo)
		for i := lo; i < n; i++ {
			c.predLeft[i]++
		}
	}
	return c, true
}

// respondOrInf treats pending ops as responding at +infinity.
func respondOrInf(op ioa.Op) int {
	if op.Pending() {
		return math.MaxInt
	}
	return op.RespondStep
}

// dfs tries to linearize all completed ops with the register holding value
// id lastVal (0 = the initial value).
func (c *linChecker) dfs(lastVal int) bool {
	if c.nDone == c.nMust {
		return true
	}
	if c.memo.contains(c.stateKey(lastVal)) {
		return false // known dead end
	}
	for i := range c.ops {
		if c.chosen[i] || c.predLeft[i] > 0 {
			continue
		}
		if w := c.writeVal[i]; w >= 0 {
			c.take(i)
			if c.dfs(w) {
				return true
			}
			c.untake(i)
		} else if c.readVal[i] == lastVal {
			c.take(i)
			if c.dfs(lastVal) {
				return true
			}
			c.untake(i)
		}
	}
	// stateKey's buffer was clobbered by the recursive calls; rebuild it
	// (take/untake restored the underlying state).
	c.memo.add(c.stateKey(lastVal))
	return false
}

func (c *linChecker) take(i int) {
	c.chosen[i] = true
	c.state[i>>6] |= 1 << (uint(i) & 63)
	for s := int(c.succFrom[i]); s < len(c.predLeft); s++ {
		c.predLeft[s]--
	}
	if !c.ops[i].Pending() {
		c.nDone++
	}
}

func (c *linChecker) untake(i int) {
	c.chosen[i] = false
	c.state[i>>6] &^= 1 << (uint(i) & 63)
	for s := int(c.succFrom[i]); s < len(c.predLeft); s++ {
		c.predLeft[s]++
	}
	if !c.ops[i].Pending() {
		c.nDone--
	}
}

// stateKey packs (chosen bitmap, last value) into the checker's reusable key
// buffer — valid only until the next stateKey call.
func (c *linChecker) stateKey(lastVal int) []uint64 {
	n := copy(c.keyBuf, c.state)
	c.keyBuf[n] = uint64(lastVal)
	return c.keyBuf
}

// deadTable is an open-addressed hash set of fixed-width uint64 keys (the
// linearizability checker's packed search states). Keys live contiguously in
// a flat arena, so inserting a state appends keyWords words instead of
// allocating a string per memo entry, and lookups are word compares with no
// hashing of intermediate allocations.
type deadTable struct {
	keyWords int
	arena    []uint64 // concatenated keys, keyWords each
	slots    []int32  // index of key in arena / keyWords, plus 1; 0 = empty
	n        int
}

const deadTableInitSlots = 256

func (t *deadTable) init(keyWords int) {
	t.keyWords = keyWords
	t.slots = make([]int32, deadTableInitSlots)
	t.arena = t.arena[:0]
	t.n = 0
}

// hash mixes the key words with a splitmix64-style finalizer.
func (t *deadTable) hash(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func (t *deadTable) keyAt(slot int32) []uint64 {
	off := int(slot-1) * t.keyWords
	return t.arena[off : off+t.keyWords]
}

func equalKeys(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// contains reports whether the key is in the set.
func (t *deadTable) contains(key []uint64) bool {
	mask := uint64(len(t.slots) - 1)
	for i := t.hash(key) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return false
		}
		if equalKeys(t.keyAt(s), key) {
			return true
		}
	}
}

// add inserts the key (assumed absent — the checker only adds after a failed
// contains).
func (t *deadTable) add(key []uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.arena = append(t.arena, key...)
	t.n++
	t.insertSlot(int32(t.n))
}

func (t *deadTable) insertSlot(s int32) {
	key := t.keyAt(s)
	mask := uint64(len(t.slots) - 1)
	i := t.hash(key) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *deadTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	for s := int32(1); s <= int32(t.n); s++ {
		t.insertSlot(s)
	}
}

// FuzzCheckAtomic decodes two bytes per operation into a small history —
// kind, pending flag and read-output selector from the first, invocation
// step and duration from the second, so steps collide freely — and holds
// the zone test to the search, from a nil initial value and from one the
// history may rewrite.
func FuzzCheckAtomic(f *testing.F) {
	f.Add([]byte{0x01, 0x05, 0x02, 0x51})
	f.Add([]byte{0x01, 0x01, 0x01, 0x23, 0x04, 0x41, 0x02, 0x61})
	f.Add([]byte{0x11, 0x00, 0x02, 0x12, 0x01, 0x34, 0x02, 0x52})
	f.Add([]byte{0x0e, 0x00, 0x01, 0x22, 0x0c, 0x30, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 32 {
			return // the search is exponential
		}
		h := &ioa.History{}
		var values [][]byte
		for i := 0; i+1 < len(data); i += 2 {
			b, when := data[i], data[i+1]
			o := ioa.Op{ID: i / 2, Client: ioa.NodeID(10 + i/2), Kind: ioa.OpRead}
			if b&0x01 != 0 {
				o.Kind = ioa.OpWrite
				o.Input = []byte(fmt.Sprintf("v%d", i/2))
				values = append(values, o.Input)
			}
			o.InvokeStep = int(when >> 4)
			o.RespondStep = o.InvokeStep + int(when&0x0f)
			if b&0x10 != 0 {
				o.RespondStep = -1
			}
			h.Ops = append(h.Ops, o)
		}
		for i := range h.Ops {
			o := &h.Ops[i]
			if o.Kind != ioa.OpRead || o.Pending() {
				continue
			}
			switch sel := int(data[2*i] >> 1 & 0x7); {
			case sel == 7:
				o.Output = []byte("never-written")
			case sel == 6 || len(values) == 0:
				o.Output = nil
			default:
				o.Output = values[sel%len(values)]
			}
		}
		for _, initial := range [][]byte{nil, []byte("v0")} {
			got := consistency.CheckAtomic(h, initial) == nil
			if want := dfsAtomic(h, initial); got != want {
				t.Fatalf("CheckAtomic = %t, search = %t, initial %q, ops:\n%v", got, want, initial, h.Ops)
			}
		}
	})
}
