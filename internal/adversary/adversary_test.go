package adversary

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/coded"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/register"
)

func invWrite(v []byte) ioa.Invocation {
	return ioa.Invocation{Kind: ioa.OpWrite, Value: v}
}

// twoVersionBuilder deploys the two-version coded SWSR register — the exact
// class (regular, no gossip) of Theorems 4.1 and B.1.
func twoVersionBuilder(n, f int) cluster.Builder {
	return func() (*cluster.Cluster, error) {
		return coded.Deploy(coded.Options{Servers: n, F: f, Readers: 1})
	}
}

func abdBuilder(n, f int) cluster.Builder {
	return func() (*cluster.Cluster, error) {
		return abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: 1})
	}
}

func casBuilder(n, f, writers int) cluster.Builder {
	return func() (*cluster.Cluster, error) {
		return cas.Deploy(cas.Options{Servers: n, F: f, GCDepth: -1, Writers: writers, Readers: 1})
	}
}

func values(t *testing.T, count, size int) [][]byte {
	t.Helper()
	out := make([][]byte, count)
	for i := range out {
		out[i] = register.MakeValue(size, uint64(i+1))
	}
	return out
}

func TestRunTwoWritesShape(t *testing.T) {
	cfg := Config{Build: twoVersionBuilder(5, 2), FailServers: []int{3, 4}}
	vs := values(t, 2, 16)
	tw, err := cfg.RunTwoWrites(vs[0], vs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(tw.Points) < 3 {
		t.Fatalf("execution has only %d points", len(tw.Points))
	}
	// P_0 probe returns v1; P_M probe returns v2.
	out0, err := cfg.ProbeRead(tw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out0, vs[0]) {
		t.Errorf("P_0 probe returned %q, want v1", out0)
	}
	outM, err := cfg.ProbeRead(tw, len(tw.Points)-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outM, vs[1]) {
		t.Errorf("P_M probe returned %q, want v2", outM)
	}
	if _, err := cfg.ProbeRead(tw, -1); err == nil {
		t.Error("out-of-range probe should fail")
	}
	if _, err := cfg.RunTwoWrites(vs[0], vs[0]); err == nil {
		t.Error("identical values must be rejected")
	}
}

func TestCriticalPairTwoVersion(t *testing.T) {
	cfg := Config{Build: twoVersionBuilder(5, 2), FailServers: []int{3, 4}}
	vs := values(t, 2, 16)
	tw, err := cfg.RunTwoWrites(vs[0], vs[1])
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cfg.FindCriticalPair(tw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.ProbeQ1, vs[0]) {
		t.Error("Q1 must witness v1")
	}
	if bytes.Equal(cp.ProbeQ2, vs[0]) {
		t.Error("Q2 must not witness v1")
	}
	if cp.NumChanged > 1 {
		t.Errorf("Lemma 4.8 violated: %d servers changed", cp.NumChanged)
	}
	if len(cp.Live) != 3 {
		t.Errorf("expected 3 live servers, got %d", len(cp.Live))
	}
}

func TestCriticalPairABD(t *testing.T) {
	// ABD is atomic hence regular; the same construction must work on it.
	cfg := Config{Build: abdBuilder(5, 2), FailServers: []int{0, 2}}
	vs := values(t, 2, 16)
	tw, err := cfg.RunTwoWrites(vs[0], vs[1])
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cfg.FindCriticalPair(tw)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumChanged > 1 {
		t.Errorf("Lemma 4.8 violated: %d servers changed", cp.NumChanged)
	}
}

// TestTheorem41Injectivity is the executable proof of Theorem 4.1: the map
// from ordered value pairs to critical-point state vectors is one-to-one.
func TestTheorem41Injectivity(t *testing.T) {
	for _, builder := range []struct {
		name string
		b    cluster.Builder
	}{
		{"two-version", twoVersionBuilder(5, 2)},
		{"abd-swmr", abdBuilder(5, 2)},
	} {
		t.Run(builder.name, func(t *testing.T) {
			cfg := Config{Build: builder.b, FailServers: []int{3, 4}}
			vs := values(t, 4, 16)
			res, err := cfg.RunTheorem41(vs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Injective {
				t.Errorf("mapping not injective: %d vectors for %d pairs", res.DistinctVectors, res.Pairs)
			}
			if res.Pairs != 12 {
				t.Errorf("pairs = %d, want 12", res.Pairs)
			}
			if res.MaxChangedServers > 1 {
				t.Errorf("Lemma 4.8 violated: %d", res.MaxChangedServers)
			}
			want := math.Log2(12)
			if math.Abs(res.WitnessedBitsLowerBound-want) > 1e-9 {
				t.Errorf("witnessed bits = %f, want %f", res.WitnessedBitsLowerBound, want)
			}
		})
	}
}

// TestTheorem41GossipModeProbe exercises the Theorem 5.1 probe variant
// (server-to-server channels drained before the read). The two-version
// register has no gossip, so results must agree with the plain probe.
func TestTheorem41GossipModeProbe(t *testing.T) {
	cfg := Config{Build: twoVersionBuilder(5, 2), FailServers: []int{3, 4}, Gossip: true}
	vs := values(t, 3, 16)
	res, err := cfg.RunTheorem41(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injective {
		t.Error("gossip-mode run should remain injective")
	}
}

// TestTheorem51OnGossipingRegister runs the full Theorem 5.1 machinery —
// gossip-draining valency probes, critical pairs, injectivity — against an
// algorithm that actually uses server-to-server gossip.
func TestTheorem51OnGossipingRegister(t *testing.T) {
	build := func() (*cluster.Cluster, error) {
		return coded.DeployGossip(coded.Options{Servers: 5, F: 2, Readers: 1})
	}
	cfg := Config{Build: build, FailServers: []int{3, 4}, Gossip: true}
	vs := values(t, 3, 16)
	res, err := cfg.RunTheorem41(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injective {
		t.Errorf("Theorem 5.1 mapping not injective: %d vectors for %d pairs", res.DistinctVectors, res.Pairs)
	}
	// With gossip, Lemma 5.8 still bounds per-step server changes at one.
	if res.MaxChangedServers > 1 {
		t.Errorf("Lemma 5.8 violated: %d servers changed", res.MaxChangedServers)
	}
	// Appendix B also applies unchanged.
	rb, err := cfg.RunAppendixB(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Injective {
		t.Error("Appendix B mapping should be injective on the gossiping register")
	}
}

// TestAppendixBInjectivity is the executable proof of Theorem B.1.
func TestAppendixBInjectivity(t *testing.T) {
	for _, builder := range []struct {
		name string
		b    cluster.Builder
	}{
		{"two-version", twoVersionBuilder(5, 2)},
		{"solo", func() (*cluster.Cluster, error) {
			return coded.DeploySolo(coded.Options{Servers: 5, F: 2, Readers: 1})
		}},
		{"abd", abdBuilder(5, 2)},
	} {
		t.Run(builder.name, func(t *testing.T) {
			cfg := Config{Build: builder.b, FailServers: []int{3, 4}}
			vs := values(t, 5, 16)
			res, err := cfg.RunAppendixB(vs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Injective {
				t.Errorf("mapping not injective: %d vectors for %d values", res.DistinctVectors, res.Values)
			}
			if math.Abs(res.WitnessedBitsLowerBound-math.Log2(5)) > 1e-9 {
				t.Errorf("witnessed bits = %f", res.WitnessedBitsLowerBound)
			}
		})
	}
}

// TestTheorem41MeasuredStorageRespectsBound closes the loop: the storage the
// algorithms actually use is at least the Corollary 4.2 lower bound.
func TestTheorem41MeasuredStorageRespectsBound(t *testing.T) {
	n, f := 5, 2
	valBytes := 64
	log2V := float64(8 * valBytes)
	p := core.Params{N: n, F: f}
	bound := core.Theorem41TotalBits(p, log2V)
	for _, builder := range []struct {
		name string
		b    cluster.Builder
	}{
		{"two-version", twoVersionBuilder(n, f)},
		{"abd", abdBuilder(n, f)},
	} {
		cl, err := builder.b()
		if err != nil {
			t.Fatal(err)
		}
		vs := values(t, 2, valBytes)
		for _, v := range vs {
			if _, err := cl.Sys.RunOp(cl.Writers[0], invWrite(v), 200000); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(cl.Sys.Storage().MaxTotalBits)
		if got < bound {
			t.Errorf("%s: measured %0.f bits below Corollary 4.2 bound %.0f", builder.name, got, bound)
		}
	}
}

// TestTheorem65CAS runs the executable Theorem 6.5 experiment against CAS.
func TestTheorem65CAS(t *testing.T) {
	n, f, nu := 5, 2, 2
	// The paper's alpha^v_0 fails the last f+1-nu servers.
	cfg := Config{Build: casBuilder(n, f, nu), FailServers: []int{4}}
	// Value vectors: pairs of distinct values from a pool of 4.
	pool := values(t, 4, 32)
	var vectors [][][]byte
	for i := range pool {
		for j := range pool {
			if i != j {
				vectors = append(vectors, [][]byte{pool[i], pool[j]})
			}
		}
	}
	res, err := cfg.RunTheorem65(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllRecovered {
		t.Errorf("all %d values should be recoverable from the prefix for a coded algorithm: %v", nu, res.Recovered)
	}
	if res.VectorsDistinct != res.VectorsTried {
		t.Errorf("injectivity violated: %d distinct of %d vectors", res.VectorsDistinct, res.VectorsTried)
	}
	if res.PrefixServers != n-f+nu-1 {
		t.Errorf("prefix = %d servers, want N-f+nu-1 = %d", res.PrefixServers, n-f+nu-1)
	}
	if res.WitnessedBitsLowerBound <= 0 {
		t.Error("expected a positive witnessed bound")
	}
}

// TestTheorem65ABDOverwrites documents the replication contrast: with
// uniform prefix delivery, ABD servers keep only the maximum tag, so not all
// values stay recoverable (the paper's staggered construction is needed for
// replication-style algorithms).
func TestTheorem65ABDOverwrites(t *testing.T) {
	cfg := Config{Build: func() (*cluster.Cluster, error) {
		return abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 2, Readers: 1, MultiWriter: true})
	}, FailServers: []int{4}}
	pool := values(t, 3, 32)
	vectors := [][][]byte{{pool[0], pool[1]}, {pool[0], pool[2]}}
	res, err := cfg.RunTheorem65(vectors)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, r := range res.Recovered {
		if r {
			recovered++
		}
	}
	if recovered == len(res.Recovered) {
		t.Error("expected at least one value to be lost to tag overwriting in ABD")
	}
	if recovered == 0 {
		t.Error("the maximum-tag value should remain recoverable in ABD")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Build: twoVersionBuilder(5, 2), FailServers: []int{0, 1, 2}}
	if _, err := cfg.RunTwoWrites([]byte("a"), []byte("b")); err == nil {
		t.Error("more failures than f must be rejected")
	}
	cfg = Config{Build: twoVersionBuilder(5, 2), FailServers: []int{99}}
	if _, err := cfg.RunTwoWrites([]byte("a"), []byte("b")); err == nil {
		t.Error("out-of-range failure index must be rejected")
	}
	cfg = Config{Build: twoVersionBuilder(5, 2)}
	if _, err := cfg.RunTheorem41([][]byte{[]byte("x")}); err == nil {
		t.Error("need two values")
	}
	if _, err := cfg.RunAppendixB([][]byte{[]byte("x")}); err == nil {
		t.Error("need two values")
	}
	if _, err := cfg.RunTheorem65(nil); err == nil {
		t.Error("need vectors")
	}
}
