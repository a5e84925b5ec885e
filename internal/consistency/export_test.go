package consistency

import "repro/internal/ioa"

// CheckAtomicHashed is CheckAtomic with the value table's hash replaced, so
// the external tests can force every value onto one collision chain.
func CheckAtomicHashed(hash func([]byte) uint64, h *ioa.History, initial []byte) error {
	return checkAtomic(&valueTable{hash: hash}, h, initial)
}

// WithValueHash replaces an online checker's value hash the same way.
func WithValueHash(hash func([]byte) uint64) OnlineOption {
	return func(c *OnlineChecker) { c.vals.hash = hash }
}
