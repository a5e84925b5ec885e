// Package erasure implements an (n, k) maximum-distance-separable (MDS)
// erasure code over GF(2^8), in the style of classical Reed-Solomon codes.
//
// A value of b bytes is split into k data shards of ceil(b/k) bytes; n total
// shards are produced such that ANY k of the n shards suffice to reconstruct
// the value. Each shard therefore carries 1/k of the value's bits, which is
// the storage-cost arithmetic at the heart of the paper: a server storing one
// shard of an (n, k) code stores log2|V| / k bits of value information.
//
// The code is systematic: shards 0..k-1 are the raw data splits, and shards
// k..n-1 are parity computed from a Vandermonde-derived encoding matrix whose
// every k x k submatrix is invertible (the MDS property). The parity block is
// normalised so that its first row and first column are all ones, and
// multiplying by one is a plain vector XOR.
package erasure

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/gf"
)

// Code is an (n, k) MDS erasure coder. It is immutable after construction
// (the decode-matrix cache is internally synchronized) and safe for
// concurrent use.
type Code struct {
	n, k   int
	field  *gf.Field
	matrix *gf.Matrix // n x k; top k rows identity, row k and column 0 below it all ones

	// invCache memoizes decode matrices by shard-index set: sweeps decode
	// thousands of values under a handful of availability patterns, and
	// inverting the k x k submatrix per value dwarfs the row multiplies
	// themselves. Keys are string(indices), values are *gf.Matrix.
	invCache sync.Map
}

// Shard is one coded symbol of a value, tagged with its index in [0, n).
// A shard drawn from the pool (EncodeOne, NewShard) also carries its
// buffer's holder count; see Retain and Release.
type Shard struct {
	Index int
	Data  []byte

	buf *buffer // nil: built by hand, not pooled
	gen uint32  // buf's generation when this shard was drawn
}

// New constructs an (n, k) code. It requires 1 <= k <= n < 256.
func New(n, k int) (*Code, error) {
	if k < 1 || n < k || n >= gf.Order {
		return nil, fmt.Errorf("erasure: invalid parameters n=%d k=%d (need 1 <= k <= n < %d)", n, k, gf.Order)
	}
	field := gf.Default()
	// Build a systematic encoding matrix: start from an n x k Vandermonde
	// matrix, then multiply by the inverse of its top k x k block so the top
	// becomes the identity. The MDS property is preserved by this row basis
	// change.
	vm, err := gf.Vandermonde(field, n, k)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	topRows := make([]int, k)
	for i := range topRows {
		topRows[i] = i
	}
	top, err := vm.SubMatrix(topRows)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	topInv, err := top.Invert(field)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	g, err := vm.Mul(field, topInv)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	// Normalise the parity block P (rows k..n-1) by diagonal scaling: divide
	// each column by its entry in row k and each row by its entry in column
	// 0, leaving P[r][c] * P[k][0] / (P[k][c] * P[r][0]). The code is MDS iff
	// every square submatrix of P is nonsingular (so no entry is zero), and
	// scaling rows and columns by nonzero constants multiplies each such
	// determinant by a nonzero constant: the MDS property, and with it every
	// shard size, is unchanged. Row k and column 0 go last in their loops
	// because the other entries divide by them.
	for r := n - 1; r >= k; r-- {
		for col := k - 1; col >= 0; col-- {
			v, err := field.Div(field.Mul(g.At(r, col), g.At(k, 0)), field.Mul(g.At(k, col), g.At(r, 0)))
			if err != nil {
				return nil, fmt.Errorf("erasure: %w", err)
			}
			g.Set(r, col, v)
		}
	}
	return &Code{n: n, k: k, field: field, matrix: g}, nil
}

// N returns the total number of shards produced per value.
func (c *Code) N() int { return c.n }

// K returns the number of shards required to reconstruct a value.
func (c *Code) K() int { return c.k }

// ShardSize returns the byte length of each shard for a value of valueLen
// bytes, including the 4-byte length header amortized into the first split.
func (c *Code) ShardSize(valueLen int) int {
	return (valueLen + 4 + c.k - 1) / c.k
}

// layDown writes bytes [off, off+len(dst)) of the coded stream — a 4-byte
// big-endian length header, the value, zero padding — into dst.
func layDown(dst, value []byte, off int) {
	n := 0
	if off < 4 {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(value)))
		n = copy(dst, hdr[off:])
	}
	if v := off + n - 4; v >= 0 && v < len(value) {
		n += copy(dst[n:], value[v:])
	}
	clear(dst[n:])
}

// Encode splits value into k data shards and produces all n shards, each
// drawn from the pool on its own and none aliasing value.
func (c *Code) Encode(value []byte) ([]Shard, error) {
	shards := make([]Shard, c.n)
	for i := range shards {
		var err error
		if shards[i], err = c.EncodeOne(value, i); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// EncodeOne produces only the shard with the given index. It is used by
// writers that stream one shard per server without materializing all n. The
// shard is drawn from the pool, held once by the caller (see Release).
func (c *Code) EncodeOne(value []byte, index int) (Shard, error) {
	if index < 0 || index >= c.n {
		return Shard{}, fmt.Errorf("erasure: shard index %d out of range [0,%d)", index, c.n)
	}
	shardLen := c.ShardSize(len(value))
	shard := NewShard(index, shardLen)
	data := shard.Data
	if index < c.k {
		layDown(data, value, index*shardLen)
		return shard, nil
	}
	// Parity is sum_j row[j] * split_j. Column 0 of the parity block is all
	// ones, so split 0 is laid down as it is, overwriting whatever a reused
	// buffer held, and the other splits accumulate onto it. At positions
	// [lo, hi) every split is value bytes — no header, no padding — and is
	// read in place out of value, once; the at most 4 positions before and
	// fewer than k after go through layDown into a small buffer.
	layDown(data, value, 0)
	lo := min(4, shardLen)
	hi := max(lo, shardLen-(c.k*shardLen-4-len(value)))
	var edge [gf.Order]byte
	for j, coef := range c.matrix.Data[index*c.k+1 : (index+1)*c.k] {
		off := (j + 1) * shardLen
		if hi > lo {
			c.field.MulSlice(coef, value[off:off+hi-lo], data[lo:hi])
		}
		for _, at := range [2][2]int{{0, lo}, {hi, shardLen}} {
			split := edge[:at[1]-at[0]]
			layDown(split, value, off+at[0])
			c.field.MulSlice(coef, split, data[at[0]:at[1]])
		}
	}
	return shard, nil
}

// Decode reconstructs the original value from any k (or more) distinct
// shards. Extra shards beyond k are ignored. It returns an error if fewer
// than k distinct shard indices are supplied or the shards are inconsistent
// in length.
func (c *Code) Decode(shards []Shard) ([]byte, error) {
	// Deduplicate by index and keep the k lowest distinct indices.
	have := make([][]byte, c.n)
	for _, s := range shards {
		if s.Index < 0 || s.Index >= c.n {
			return nil, fmt.Errorf("erasure: shard index %d out of range [0,%d)", s.Index, c.n)
		}
		if have[s.Index] == nil {
			have[s.Index] = s.Data
		}
	}
	idxs := make([]int, 0, c.k)
	srcs := make([][]byte, 0, c.k)
	for i := 0; i < c.n && len(idxs) < c.k; i++ {
		if have[i] == nil {
			continue
		}
		idxs, srcs = append(idxs, i), append(srcs, have[i])
		if len(have[i]) != len(srcs[0]) {
			return nil, fmt.Errorf("erasure: inconsistent shard lengths (%d vs %d)", len(have[i]), len(srcs[0]))
		}
	}
	if len(idxs) < c.k {
		return nil, fmt.Errorf("erasure: need %d distinct shards, have %d", c.k, len(idxs))
	}
	shardLen := len(srcs[0])

	// Only the missing data splits (at most n-k, none when all k data shards
	// arrived) are rebuilt, as split_j = sum_i inv[j][i] * shard[idxs[i]].
	var inv *gf.Matrix
	if idxs[c.k-1] != c.k-1 {
		var err error
		if inv, err = c.decodeMatrix(idxs); err != nil {
			return nil, err
		}
	}
	total := c.k * shardLen
	if total < 4 {
		return nil, fmt.Errorf("erasure: decoded buffer too short (%d bytes)", total)
	}
	// The length header is the coded stream's first 4 bytes, each read from
	// its shard or, that shard missing, rebuilt on its own.
	var hdr [4]byte
	for p := range hdr {
		j, at := p/shardLen, p%shardLen
		if have[j] != nil {
			hdr[p] = have[j][at]
			continue
		}
		for i, s := range srcs {
			hdr[p] ^= byte(c.field.Mul(inv.At(j, i), gf.Elem(s[at])))
		}
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 0 || n > total-4 {
		return nil, fmt.Errorf("erasure: corrupt length header %d (buffer %d)", uint32(n), total-4)
	}
	// The value is stream bytes [4, 4+n) and split j starts at j*shardLen, so
	// each split's share of the value goes straight to its place in the
	// zeroed output: copied when the shard arrived, accumulated when not.
	out := make([]byte, n)
	for j := 0; j < c.k; j++ {
		from, to := max(4-j*shardLen, 0), min(4+n-j*shardLen, shardLen)
		if from >= to {
			continue
		}
		dst := out[j*shardLen+from-4 : j*shardLen+to-4]
		if have[j] != nil {
			copy(dst, have[j][from:to])
			continue
		}
		for i, s := range srcs {
			c.field.MulSlice(inv.At(j, i), s[from:to], dst)
		}
	}
	return out, nil
}

// decodeMatrix returns the inverse of the encoding submatrix for the given
// ascending shard-index set, memoized per availability pattern.
func (c *Code) decodeMatrix(idxs []int) (*gf.Matrix, error) {
	key := make([]byte, len(idxs))
	for i, idx := range idxs {
		key[i] = byte(idx)
	}
	if m, ok := c.invCache.Load(string(key)); ok {
		return m.(*gf.Matrix), nil
	}
	sub, err := c.matrix.SubMatrix(idxs)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	inv, err := sub.Invert(c.field)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	c.invCache.Store(string(key), inv)
	return inv, nil
}
