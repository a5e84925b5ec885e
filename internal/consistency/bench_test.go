package consistency

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/ioa"
)

// denseHistory builds a linearizable history of `rounds` rounds, each with
// two overlapping writes and three reads interleaved among them — the dense
// concurrency shape the sharded-store workloads produce. Values are unique
// 8-byte encodings of the op's global index.
func denseHistory(rounds int) *ioa.History {
	h := ioa.NewHistory()
	val := func(n int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(n+1))
		return b
	}
	add := func(client ioa.NodeID, kind ioa.OpKind, in, out []byte, inv, resp int) {
		h.Ops = append(h.Ops, ioa.Op{
			ID: len(h.Ops), Client: client, Kind: kind,
			Input: in, Output: out, InvokeStep: inv, RespondStep: resp,
		})
	}
	prev := []byte(nil) // nil history checked with initial=nil
	for r := 0; r < rounds; r++ {
		t := 10 * r
		a, bv := val(2*r), val(2*r+1)
		// Two overlapping writes: A in [t, t+5], B in [t+2, t+7];
		// linearized A then B.
		add(1, ioa.OpWrite, a, nil, t, t+5)
		add(2, ioa.OpWrite, bv, nil, t+2, t+7)
		// A read concurrent with both writes returning the previous round's
		// value (linearized before A), one returning A, one returning B.
		if prev != nil {
			add(3, ioa.OpRead, nil, prev, t, t+4)
		}
		add(4, ioa.OpRead, nil, a, t+4, t+8)
		add(5, ioa.OpRead, nil, bv, t+6, t+9)
		prev = bv
	}
	return h
}

// BenchmarkCheckAtomicDense measures the linearizability checker on the
// dense synthetic history (the checker is the verification hot path of every
// store run: one check per shard per run).
func BenchmarkCheckAtomicDense(b *testing.B) {
	h := denseHistory(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckAtomic(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckAtomicLarge runs the checker on dense histories of 10^3, 10^4
// and 10^5 operations. ns/op is per check; ns/histop divides by the history
// length, so n log n growth shows as a slowly rising column rather than the
// linear-in-n one a quadratic checker would print.
func BenchmarkCheckAtomicLarge(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		h := denseHistory(n / 5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := CheckAtomic(h, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(h.Ops)), "ns/histop")
		})
	}
}

func TestDenseHistoryIsAtomic(t *testing.T) {
	if err := CheckAtomic(denseHistory(10), nil); err != nil {
		t.Fatal(err)
	}
}
