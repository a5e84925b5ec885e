package cluster

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/quorum"
)

type stubNode struct{ id ioa.NodeID }

func (n *stubNode) ID() ioa.NodeID                                       { return n.id }
func (n *stubNode) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects { return ioa.Effects{} }
func (n *stubNode) Clone() ioa.Node                                      { cp := *n; return &cp }
func (n *stubNode) Invoke(inv ioa.Invocation) ioa.Effects                { return ioa.Effects{} }
func (n *stubNode) Busy() bool                                           { return false }

// TestDeployAssemblesRoles pins what every algorithm's deployment inherits:
// the conventional id layout, constructors called servers first, then
// writers, then readers, each server seeing the full server list, and the
// role-count rule.
func TestDeployAssemblesRoles(t *testing.T) {
	var order []ioa.NodeID
	roles := Roles{
		Server: func(id ioa.NodeID, servers []ioa.NodeID) ioa.Node {
			if !slices.Equal(servers, ServerIDs(3)) {
				t.Errorf("server %d built with servers %v", id, servers)
			}
			order = append(order, id)
			return &stubNode{id}
		},
		Writer: func(id ioa.NodeID) (ioa.Client, error) { order = append(order, id); return &stubNode{id}, nil },
		Reader: func(id ioa.NodeID) (ioa.Client, error) { order = append(order, id); return &stubNode{id}, nil },
	}
	profile := quorum.WriteProfile{Algorithm: "stub"}
	c, err := Deploy(profile, 3, 1, 2, 2, roles)
	if err != nil {
		t.Fatal(err)
	}
	want := []ioa.NodeID{1, 2, 3, WriterBase, WriterBase + 1, ReaderBase, ReaderBase + 1}
	if !slices.Equal(order, want) {
		t.Errorf("constructors ran in order %v, want %v", order, want)
	}
	if !slices.Equal(c.Sys.NodeIDs(), want) || !slices.Equal(c.Sys.ServerIDs(), c.Servers) {
		t.Errorf("registered %v (servers %v), want %v", c.Sys.NodeIDs(), c.Sys.ServerIDs(), want)
	}
	if c.F != 1 || c.Profile.Algorithm != "stub" || c.Validate() != nil {
		t.Errorf("cluster %+v", c)
	}
	for _, counts := range [][2]int{{0, 1}, {1, -1}} {
		if _, err := Deploy(profile, 3, 1, counts[0], counts[1], roles); err == nil {
			t.Errorf("writers=%d readers=%d accepted", counts[0], counts[1])
		}
	}
	boom := errors.New("boom")
	roles.Reader = func(ioa.NodeID) (ioa.Client, error) { return nil, boom }
	if _, err := Deploy(profile, 3, 1, 1, 1, roles); !errors.Is(err, boom) {
		t.Errorf("reader constructor error lost: %v", err)
	}
}

func TestIDLayout(t *testing.T) {
	s := ServerIDs(3)
	w := WriterIDs(2)
	r := ReaderIDsAfter(2, 2)
	if s[0] != ServerBase || s[2] != ServerBase+2 {
		t.Errorf("server ids %v", s)
	}
	if w[0] != WriterBase || r[0] != ReaderBase {
		t.Errorf("writer/reader bases %v %v", w, r)
	}
	// Ranges must not overlap for realistic sizes.
	if ServerBase+99 >= WriterBase || WriterBase+99 >= ReaderBase {
		t.Error("id ranges overlap")
	}
}

func TestValidate(t *testing.T) {
	good := &Cluster{
		Sys:     ioa.NewSystem(),
		Servers: ServerIDs(3),
		Writers: WriterIDs(1),
		F:       1,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid cluster rejected: %v", err)
	}
	cases := []*Cluster{
		{Servers: ServerIDs(3), Writers: WriterIDs(1), F: 1},                        // nil sys
		{Sys: ioa.NewSystem(), Writers: WriterIDs(1), F: 0},                         // no servers
		{Sys: ioa.NewSystem(), Servers: ServerIDs(3), F: 1},                         // no writers
		{Sys: ioa.NewSystem(), Servers: ServerIDs(3), Writers: WriterIDs(1), F: 3},  // f >= N
		{Sys: ioa.NewSystem(), Servers: ServerIDs(3), Writers: WriterIDs(1), F: -1}, // f < 0
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestWithSystem(t *testing.T) {
	orig := &Cluster{
		Sys:     ioa.NewSystem(),
		Servers: ServerIDs(3),
		Writers: WriterIDs(1),
		F:       1,
	}
	other := ioa.NewSystem()
	cp := orig.WithSystem(other)
	if cp.Sys != other {
		t.Error("WithSystem must bind the new system")
	}
	if orig.Sys == other {
		t.Error("original must be untouched")
	}
	if cp.F != 1 || len(cp.Servers) != 3 {
		t.Error("metadata must carry over")
	}
}

func TestReaderIDsAfterAvoidsWriterCollisions(t *testing.T) {
	// Deployments that fit the fixed ranges keep their historical ids, so
	// simulator fingerprints are unchanged.
	small := ReaderIDsAfter(4, 3)
	if small[0] != ReaderBase || small[2] != ReaderBase+2 {
		t.Fatalf("small deployment moved the reader base: %v", small)
	}
	// 1000 writers used to collide with the fixed reader range ("duplicate
	// node id 201"); the shifted range must start past the last writer.
	writers := WriterIDs(1000)
	readers := ReaderIDsAfter(1000, 1000)
	if readers[0] != writers[len(writers)-1]+1 {
		t.Fatalf("reader base %d does not follow last writer %d", readers[0], writers[len(writers)-1])
	}
	seen := make(map[ioa.NodeID]bool)
	for _, id := range append(append([]ioa.NodeID{}, writers...), readers...) {
		if seen[id] {
			t.Fatalf("duplicate node id %d", id)
		}
		seen[id] = true
	}
}
