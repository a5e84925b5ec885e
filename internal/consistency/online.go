package consistency

// Online windowed linearizability checking. The offline CheckAtomic holds
// the whole history and tests it at once; the OnlineChecker consumes the
// same histories as a stream (ioa.HistorySink) and retires provably
// linearized prefixes as it goes, so its memory is bounded by a sliding
// window rather than the run length. That bound, not speed, is its job: the
// zone test is O(n log n) either way.
//
// Soundness rests on a clean-cut composition rule. Call a position c in an
// invocation-ordered history a *clean cut* when every operation before c
// responds before every operation at or after c invokes (no interval
// crosses c). Splitting at a clean cut, H = P · S with no op of S real-time
// preceding or concurrent with any op of P, so every linearization of H
// orders all of P before all of S; conversely, a linearization of P ending
// with register value v composes with any linearization of S starting from
// v. Hence H linearizes iff ∃v: P linearizes ending with v and S linearizes
// from initial value v — an equivalence, not a conservative approximation.
// Chaining it across many cuts only requires carrying the *set* of
// attainable final values from segment to segment; a violation is exactly
// the set becoming empty (or the final residual window failing from every
// carried value).
//
// Two further facts keep each carried set small and each segment check
// cheap: (a) a retired segment contains no pending operations (a pending op
// responds at +inf, so no cut ever forms after it), hence every write in it
// must be linearized and the segment's final value is the input of a write
// with no write invoked entirely after it (a "maximal" write) — or, for
// write-free segments, the inherited value itself; (b) "P linearizes ending
// with u" reduces to the plain check by appending a synthetic probe read of
// u that real-time-follows the whole segment, so the CheckAtomic zone test
// is reused unchanged.
//
// Regularity (WithCondition("regular")) composes over the same cuts with
// only the segment test swapped for CheckRegular's rule. A read's allowed
// values are the last write completed before it and the writes overlapping
// it; across a clean cut every write of P completed before any op of S was
// invoked, so a read of S sees P only through P's last write, and H is
// regular from v iff P is regular from v and S is regular from P's last
// write (v when P wrote nothing). The writes are one client's and
// sequential, so that last write is P's unique maximal write and the carried
// set is a single value; the checker holds the single writer to the whole
// stream, since a retired prefix cannot be re-examined.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/ioa"
)

// DefaultWindowOps is the retirement window used when none is configured:
// once at least this many settled operations are buffered and a clean cut
// exists, the prefix up to the latest cut is checked and freed.
const DefaultWindowOps = 256

// OnlineChecker verifies atomicity, or single-writer regularity
// (WithCondition), incrementally. Feed it settled
// operations in invocation order with Observe (it implements
// ioa.HistorySink, so an ioa.OpFeed can drive it directly); it buffers them
// in a sliding window, retires the window's longest cleanly-cut prefix
// whenever the window fills, and reports the overall verdict with Result.
// Written values must be globally unique across the whole stream (the
// MakeValue contract every driver in this repository already obeys); unlike
// CheckAtomic and CheckRegular, an online checker cannot re-verify
// uniqueness against retired history it has freed.
//
// The zero value is not usable; construct with NewOnlineChecker. All
// methods are safe for concurrent use.
type OnlineChecker struct {
	mu        sync.Mutex
	windowOps int
	regular   bool       // judge regularity rather than atomicity
	writer    ioa.NodeID // the single writer under regularity, -1 before the first write

	vals       valueTable // the values of window and carry, interned on arrival
	window     []ioa.Op   // settled ops not yet retired, invocation order
	ids        []int32    // ids[i] = the value ID of window[i]
	runningMax int        // max respondOrInf over window ops
	lastCut    int        // window index of the latest clean cut (0 = none)
	lastInvoke int        // order enforcement across Observe calls
	carry      []int32    // IDs of the values the retired prefix may end with

	observed  int64
	verified  int64
	windows   int64
	maxWindow int

	violation error // sticky: set when a retired window fails to linearize
	misuse    error // sticky: ops delivered out of order or malformed
}

// OnlineOption configures an OnlineChecker.
type OnlineOption func(*OnlineChecker)

// WithWindowOps sets the retirement window size in operations.
func WithWindowOps(n int) OnlineOption {
	return func(c *OnlineChecker) {
		if n > 0 {
			c.windowOps = n
		}
	}
}

// WithCondition sets the condition the checker judges: "atomic" (the
// default) or "regular", the single-writer regularity of CheckRegular. Any
// other name is a misuse every later call reports.
func WithCondition(cond string) OnlineOption {
	return func(c *OnlineChecker) {
		switch cond {
		case "atomic", "regular":
			c.regular = cond == "regular"
		default:
			c.misuse = fmt.Errorf("consistency: online checker for unknown condition %q", cond)
		}
	}
}

// NewOnlineChecker returns an online checker for a register whose initial
// value is initial (nil for the usual fresh register); it judges atomicity
// unless WithCondition says otherwise.
func NewOnlineChecker(initial []byte, opts ...OnlineOption) *OnlineChecker {
	c := &OnlineChecker{
		windowOps:  DefaultWindowOps,
		runningMax: math.MinInt,
		writer:     -1,
	}
	for _, o := range opts {
		o(c)
	}
	c.carry = []int32{c.vals.id(initial)}
	return c
}

// Observe delivers the next operation of the history, in invocation order.
// Pending reads are discarded immediately (they constrain nothing, exactly
// as CheckAtomic drops them); pending writes are buffered and pin the
// frontier, since they may take effect arbitrarily late. When the window
// reaches its configured size and contains a clean cut, the prefix is
// verified and retired in-line on the caller's goroutine. Returns the
// sticky violation once one is found.
func (c *OnlineChecker) Observe(op ioa.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.misuse != nil {
		return c.misuse
	}
	if op.InvokeStep < c.lastInvoke {
		c.misuse = fmt.Errorf("consistency: online checker observed an op invoked at step %d after one invoked at step %d (ops must arrive in invocation order)", op.InvokeStep, c.lastInvoke)
		return c.misuse
	}
	if !op.Pending() && op.RespondStep < op.InvokeStep {
		c.misuse = fmt.Errorf("consistency: op %s responds before it invokes", op)
		return c.misuse
	}
	if c.regular && op.Kind == ioa.OpWrite {
		if c.writer >= 0 && op.Client != c.writer {
			c.misuse = fmt.Errorf("consistency: regularity requires a single writer, saw clients %d and %d", c.writer, op.Client)
			return c.misuse
		}
		c.writer = op.Client
	}
	c.lastInvoke = op.InvokeStep
	c.observed++
	if op.Pending() && op.Kind == ioa.OpRead {
		return c.violation
	}
	if len(c.window) > 0 && c.runningMax < op.InvokeStep {
		c.lastCut = len(c.window)
	}
	c.window = append(c.window, op)
	c.ids = append(c.ids, c.vals.id(opValue(&op)))
	if r := respondOrInf(op); r > c.runningMax {
		c.runningMax = r
	}
	if len(c.window) > c.maxWindow {
		c.maxWindow = len(c.window)
	}
	if len(c.window) >= c.windowOps && c.lastCut > 0 && c.violation == nil {
		c.retireLocked()
	}
	return c.violation
}

// AppendOp makes the checker an ioa.HistorySink.
func (c *OnlineChecker) AppendOp(op ioa.Op) error { return c.Observe(op) }

// Retire forces a retirement attempt at the latest clean cut, regardless of
// window occupancy, and returns the number of operations retired (0 when no
// cut exists, a violation is already recorded, or the window is empty).
func (c *OnlineChecker) Retire() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.verified
	if c.violation == nil && c.misuse == nil {
		c.retireLocked()
	}
	return int(c.verified - before)
}

// retireLocked verifies the window prefix up to the latest clean cut
// against the carried value set and frees it.
func (c *OnlineChecker) retireLocked() {
	if c.lastCut <= 0 {
		return
	}
	newCarry, viol := checkSegment(c.window[:c.lastCut], c.ids[:c.lastCut], c.carry, c.test)
	if viol != nil {
		c.windows++
		c.violation = fmt.Errorf("consistency: online window %d (after %d verified ops): %w", c.windows, c.verified, viol)
		return
	}
	c.carry = newCarry
	c.verified += int64(c.lastCut)
	c.windows++
	// Slide the survivors to the front of the same backing arrays and drop
	// what the vacated tail and the value table still hold of retired values.
	rest := c.window[:copy(c.window, c.window[c.lastCut:])]
	clear(c.window[len(rest):])
	c.window, c.ids = rest, c.ids[:copy(c.ids, c.ids[c.lastCut:])]
	c.vals.compact(c.ids, c.carry)
	// Rescan the surviving suffix for its cut structure: removing a prefix
	// preserves every cut and can only expose new ones.
	c.lastCut = 0
	c.runningMax = math.MinInt
	for i, op := range rest {
		if i > 0 && c.runningMax < op.InvokeStep {
			c.lastCut = i
		}
		if r := respondOrInf(op); r > c.runningMax {
			c.runningMax = r
		}
	}
}

// Result reports the verdict over everything observed so far without
// consuming the window: the sticky violation if a retired window already
// failed, otherwise whether the residual window linearizes from some
// carried value. extra holds operations not yet delivered to the checker —
// an OpFeed snapshot of in-flight tickets — which are checked alongside the
// window: every extra op must have been invoked no earlier than the
// retirement frontier, which feed ordering guarantees. Result may be called
// mid-stream; a nil verdict means every completed op observed so far is
// part of a single witness linearization.
func (c *OnlineChecker) Result(extra ...ioa.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.misuse != nil {
		return c.misuse
	}
	if c.violation != nil {
		return c.violation
	}
	ops, ids := c.window, c.ids
	if len(extra) > 0 {
		ops = slices.Clip(ops)
		ids = slices.Clip(ids)
		for _, op := range extra {
			if op.Pending() && op.Kind == ioa.OpRead {
				continue
			}
			ops = append(ops, op)
			ids = append(ids, c.vals.id(opValue(&op)))
		}
	}
	if len(ops) == 0 {
		return nil
	}
	var firstViol error
	for _, v := range c.carry {
		viol := c.test(ops, ids, v)
		if viol == nil {
			return nil
		}
		if firstViol == nil {
			firstViol = viol
		}
	}
	return fmt.Errorf("consistency: residual window (after %d verified ops): %w", c.verified, firstViol)
}

// WindowOps returns the retirement window in operations (WithWindowOps):
// a batch run feeding the checker syncs its drivers once per window, so every
// window is guaranteed a clean cut to retire at.
func (c *OnlineChecker) WindowOps() int { return c.windowOps }

// OpsObserved returns the number of operations delivered via Observe.
func (c *OnlineChecker) OpsObserved() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observed
}

// OpsVerified returns the number of operations retired behind the verified
// frontier (pending reads, which are dropped on arrival, count as neither
// observed-and-buffered nor verified).
func (c *OnlineChecker) OpsVerified() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verified
}

// WindowLag returns the number of buffered operations not yet retired — the
// distance between the stream head and the verified frontier.
func (c *OnlineChecker) WindowLag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.window)
}

// MaxWindow returns the high-water mark of the buffered window — the peak
// checker memory, in operations, over the whole run.
func (c *OnlineChecker) MaxWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxWindow
}

// test checks ops, starting from register value v, against the checker's
// condition: nil, or the violation. Callers hold c.mu.
func (c *OnlineChecker) test(ops []ioa.Op, ids []int32, v int32) error {
	if c.regular {
		return checkRegularOps(ops, ids, len(c.vals.vals), v)
	}
	return checkZones(ops, ids, len(c.vals.vals), v)
}

// checkSegment decides which register values the cleanly-cut segment seg
// may end with, given that it must start from one of the carry values and
// pass test; values are the IDs checkZones takes. It returns the attainable
// final-value set, or the first violation encountered if the set is empty.
// seg must contain no pending operations (guaranteed for retired segments: a
// pending op suppresses every later cut).
func checkSegment(seg []ioa.Op, ids []int32, carry []int32, test func([]ioa.Op, []int32, int32) error) ([]int32, error) {
	// The segment ends with the input of a maximal write, or, having no
	// writes, with the value it inherited.
	finals := maximalWriteValues(seg, ids)
	var out []int32
	var firstViol error
	for _, v := range carry {
		// A read of a value foreign to seg and v fails this carry only: the
		// value may be legal under another.
		if viol := test(seg, ids, v); viol != nil {
			if firstViol == nil {
				firstViol = viol
			}
			continue
		}
		ends := finals
		if ends == nil {
			ends = []int32{v}
		}
		for _, u := range ends {
			// Every write must be linearized, so a unique maximal write is
			// forced to be last; only a choice among several needs the probe.
			if !slices.Contains(out, u) && (len(ends) == 1 || endsWith(seg, ids, v, u, test) == nil) {
				out = append(out, u)
			}
		}
	}
	if len(out) == 0 {
		return nil, firstViol
	}
	return out, nil
}

// maximalWriteValues returns the inputs of the writes that may be linearized
// last in seg, or nil when seg contains no writes. A write can be last only
// if no other write is invoked entirely after it responds, i.e. its response
// is no earlier than the latest write invocation.
func maximalWriteValues(seg []ioa.Op, ids []int32) []int32 {
	maxWriteInvoke := math.MinInt
	for _, op := range seg {
		if op.Kind == ioa.OpWrite {
			maxWriteInvoke = max(maxWriteInvoke, op.InvokeStep)
		}
	}
	var finals []int32
	for i, op := range seg {
		if op.Kind == ioa.OpWrite && respondOrInf(op) >= maxWriteInvoke {
			finals = append(finals, ids[i])
		}
	}
	return finals
}

// endsWith reports whether seg, starting from register value v, passes test
// and ends with the register holding u: nil, or the violation. The
// requirement is a synthetic completed read of u appended strictly after
// every response in seg; test does the rest.
func endsWith(seg []ioa.Op, ids []int32, v, u int32, test func([]ioa.Op, []int32, int32) error) error {
	maxResp := math.MinInt
	for _, op := range seg {
		maxResp = max(maxResp, respondOrInf(op))
	}
	probe := ioa.Op{
		Client:      -1, // synthetic; the zone test reads neither Client nor Output
		Kind:        ioa.OpRead,
		InvokeStep:  maxResp + 1,
		RespondStep: maxResp + 2,
	}
	return test(append(slices.Clip(seg), probe), append(slices.Clip(ids), u), v)
}
