package quorum

import (
	"strings"
	"testing"
)

func profile(phases []PhaseSpec, metaSep, blackBox bool) WriteProfile {
	return WriteProfile{Algorithm: "test", Phases: phases, MetadataSeparated: metaSep, BlackBox: blackBox}
}

func TestTheorem65Applies(t *testing.T) {
	q := System{N: 5, Size: 3}
	okPhases := []PhaseSpec{
		{Name: "query", Quorum: q, ValueDependent: false},
		{Name: "put", Quorum: q, ValueDependent: true},
		{Name: "fin", Quorum: q, ValueDependent: false},
	}
	tests := []struct {
		name    string
		p       WriteProfile
		wantOK  bool
		wantSub string
	}{
		{"canonical", profile(okPhases, true, true), true, ""},
		{"no metadata separation", profile(okPhases, false, true), false, "Assumption 1"},
		{"no phases", profile(nil, true, true), false, "Assumption 2"},
		{"non black box", profile(okPhases, true, false), false, "Assumption 3(a)"},
		{"two value phases", profile([]PhaseSpec{
			{Name: "hash", Quorum: q, ValueDependent: true},
			{Name: "code", Quorum: q, ValueDependent: true},
		}, true, true), false, "Assumption 3(b)"},
		{"value phase then metadata ok", profile([]PhaseSpec{
			{Name: "code", Quorum: q, ValueDependent: true},
			{Name: "fin", Quorum: q, ValueDependent: false},
		}, true, true), true, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Theorem65Applies()
			if (err == nil) != tt.wantOK {
				t.Fatalf("err = %v, wantOK %v", err, tt.wantOK)
			}
			if err != nil && !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q should mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestValueDependentPhases(t *testing.T) {
	q := System{N: 3, Size: 2}
	p := profile([]PhaseSpec{
		{Name: "a", Quorum: q, ValueDependent: true},
		{Name: "b", Quorum: q, ValueDependent: false},
		{Name: "c", Quorum: q, ValueDependent: true},
	}, true, true)
	if got := p.ValueDependentPhases(); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
}
