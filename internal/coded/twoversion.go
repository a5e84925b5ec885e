// Package coded implements erasure-coded single-writer single-reader (SWSR)
// REGULAR registers without server gossip — the exact algorithm class that
// Theorems 4.1 and 5.1 lower-bound.
//
// Two registers are provided:
//
//   - TwoVersion: each server stores at most two coded versions (one
//     finalized, one pending) of an (N, k=N-2f) MDS code. Its total storage
//     is ~2N/(N-2f)·log2|V| bits, INDEPENDENT of write concurrency,
//     illustrating the regime between the paper's lower bound
//     2N/(N-f+2)·log2|V| (Theorem 5.1) and what known algorithms achieve.
//
//   - Solo: each server stores exactly one coded version of an (N, k=N-f)
//     code, meeting the Singleton-style bound N/(N-f)·log2|V| of Theorem B.1
//     with equality (up to metadata) — but only live for reads when the f
//     failures happen before the written value must be recovered, which is
//     precisely why the bound of Theorem B.1 is not achievable by a general
//     algorithm and the paper's stronger bounds exist.
//
// Write protocol of TwoVersion (two phases, one value-dependent):
//
//	W1(t): send coded element i of the value to server i; await N-f acks.
//	W2(t): send finalize(t) metadata; await N-f acks; respond.
//
// Servers promote the pending version to finalized on W2. Because the writer
// is sequential and channels are FIFO, a pending version is always finalized
// before the next write's W1 arrives, so two slots suffice.
//
// Read protocol: query all servers for both slots; await N-f replies; let t*
// be the largest finalized tag observed; decode the largest tag >= t* with
// at least k coded elements among the replies; retry the query if none
// decodes yet (replies can race the write's W1 messages; a retry round after
// the states settle always succeeds — see the package tests).
package coded

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
)

// --- server ---

// slot is one stored coded version.
type slot struct {
	Used  bool
	Tag   register.Tag
	Shard erasure.Shard
}

// slots is a read ack's body: the server's finalized and pending versions
// (a solo server's one version in Fin), each a zero slot when unused.
type slots struct{ Fin, Pend slot }

// Server is a two-version coded replica: one finalized and one pending slot.
type Server struct {
	id   ioa.NodeID
	fin  slot
	pend slot
	out  ioa.Outbox
}

var (
	_ ioa.Node         = (*Server)(nil)
	_ ioa.StorageMeter = (*Server)(nil)
	_ ioa.Digester     = (*Server)(nil)
)

// NewServer returns a two-version coded server.
func NewServer(id ioa.NodeID) *Server { return &Server{id: id} }

// ID implements ioa.Node.
func (s *Server) ID() ioa.NodeID { return s.id }

// Deliver implements ioa.Node.
func (s *Server) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch msg.Kind {
	case kindW1:
		if !s.pend.Used || s.pend.Tag.Less(msg.Tag) {
			s.pend = slot{Used: true, Tag: msg.Tag, Shard: msg.Body.(register.WriteElement).Shard}
		}
		return s.out.Reply(from, ioa.Msg{Kind: kindW1Ack, RID: msg.RID})
	case kindW2:
		s.promote(msg.Tag)
		return s.out.Reply(from, ioa.Msg{Kind: kindW2Ack, RID: msg.RID})
	case kindRead:
		return s.out.Reply(from, ioa.Msg{Kind: kindReadAck, RID: msg.RID, Body: slots{Fin: s.fin, Pend: s.pend}})
	default:
		return ioa.Effects{}
	}
}

// promote finalizes the pending version when it is tag t's.
func (s *Server) promote(t register.Tag) {
	if s.pend.Used && s.pend.Tag.Equal(t) {
		s.fin = s.pend
		s.pend = slot{}
	}
}

// StorageBits implements ioa.StorageMeter: at most two coded elements plus
// their tags.
func (s *Server) StorageBits() int {
	bits := 0
	for _, sl := range []slot{s.fin, s.pend} {
		if sl.Used {
			bits += sl.Tag.Bits() + 8*len(sl.Shard.Data)
		}
	}
	return bits
}

// StateDigest implements ioa.Digester.
func (s *Server) StateDigest() string {
	return fmt.Sprintf("2v|f=%v:%s:%x|p=%v:%s:%x",
		s.fin.Used, s.fin.Tag, s.fin.Shard.Data,
		s.pend.Used, s.pend.Tag, s.pend.Shard.Data)
}

// Clone implements ioa.Node.
func (s *Server) Clone() ioa.Node {
	cp := *s
	cp.out = ioa.Outbox{}
	return &cp
}

// --- configuration ---

// Config configures a TwoVersion deployment.
type Config struct {
	Servers []ioa.NodeID
	F       int
}

// K returns the code dimension N-2f.
func (c Config) K() int { return len(c.Servers) - 2*c.F }

// Quorum returns the response-quorum size N-f.
func (c Config) Quorum() int { return len(c.Servers) - c.F }

// Validate checks N >= 2f+1 (so k >= 1).
func (c Config) Validate() error {
	if len(c.Servers) == 0 {
		return fmt.Errorf("coded: no servers configured")
	}
	if c.F < 0 || c.K() < 1 {
		return fmt.Errorf("coded: need N >= 2f+1, got N=%d f=%d", len(c.Servers), c.F)
	}
	return nil
}

// Profile returns the Section 6.1 classification of the TwoVersion write
// protocol: two phases, only W1 value-dependent.
func Profile(cfg Config) quorum.WriteProfile {
	q := quorum.System{N: len(cfg.Servers), Size: cfg.Quorum()}
	return quorum.WriteProfile{
		Algorithm: "coded-two-version",
		Phases: []quorum.PhaseSpec{
			{Name: "w1-shards", Quorum: q, ValueDependent: true},
			{Name: "w2-finalize", Quorum: q, ValueDependent: false},
		},
		MetadataSeparated: true,
		BlackBox:          true,
	}
}

// --- writer ---

// writer phases.
const (
	phaseIdle = 0
	phaseW1   = 1
	phaseW2   = 2
)

// Writer is the sequential SWSR writer.
type Writer struct {
	id      ioa.NodeID
	servers []ioa.NodeID
	q       int
	code    *erasure.Code

	busy  bool
	phase int
	rid   int64
	seq   int64
	tag   register.Tag
	value []byte
	acks  int
	out   ioa.Outbox
}

var (
	_ ioa.Client          = (*Writer)(nil)
	_ quorum.PhasedWriter = (*Writer)(nil)
)

// NewWriter returns the (single) writer client.
func NewWriter(id ioa.NodeID, cfg Config) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(len(cfg.Servers), cfg.K())
	if err != nil {
		return nil, fmt.Errorf("coded: %w", err)
	}
	return &Writer{id: id, servers: append([]ioa.NodeID(nil), cfg.Servers...), q: cfg.Quorum(), code: code}, nil
}

// ID implements ioa.Node.
func (w *Writer) ID() ioa.NodeID { return w.id }

// Busy implements ioa.Client.
func (w *Writer) Busy() bool { return w.busy }

// WritePhase implements quorum.PhasedWriter.
func (w *Writer) WritePhase() (int, bool) {
	if !w.busy {
		return 0, false
	}
	return w.phase, w.phase == phaseW1
}

// Invoke implements ioa.Client.
func (w *Writer) Invoke(inv ioa.Invocation) ioa.Effects {
	w.busy = true
	w.phase = phaseW1
	w.rid++
	w.acks = 0
	w.seq++
	w.tag = register.Tag{Seq: w.seq, Writer: w.id}
	w.value = inv.Value
	for i, s := range w.servers {
		shard, err := w.code.EncodeOne(w.value, i)
		if err != nil {
			continue // unreachable: i < n
		}
		w.out.Add(s, ioa.Msg{Kind: kindW1, RID: w.rid, Tag: w.tag, Body: register.WriteElement{Shard: shard}})
	}
	return w.out.Effects()
}

// Deliver implements ioa.Node.
func (w *Writer) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if !w.busy {
		return ioa.Effects{}
	}
	if msg.RID != w.rid {
		return ioa.Effects{}
	}
	switch msg.Kind {
	case kindW1Ack:
		if w.phase != phaseW1 {
			return ioa.Effects{}
		}
		w.acks++
		if w.acks < w.q {
			return ioa.Effects{}
		}
		w.phase = phaseW2
		w.rid++
		w.acks = 0
		return w.out.All(w.servers, ioa.Msg{Kind: kindW2, RID: w.rid, Tag: w.tag})
	case kindW2Ack:
		if w.phase != phaseW2 {
			return ioa.Effects{}
		}
		w.acks++
		if w.acks < w.q {
			return ioa.Effects{}
		}
		w.busy = false
		w.phase = phaseIdle
		return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpWrite}}
	default:
		return ioa.Effects{}
	}
}

// Clone implements ioa.Node.
func (w *Writer) Clone() ioa.Node {
	cp := *w
	cp.servers = append([]ioa.NodeID(nil), w.servers...)
	cp.out = ioa.Outbox{}
	return &cp
}

// --- reader ---

// Reader is the SWSR reader.
type Reader struct {
	id      ioa.NodeID
	servers []ioa.NodeID
	q       int
	code    *erasure.Code

	busy bool
	rid  int64
	acks int
	// collected replies for the current round
	replies []slots
	out     ioa.Outbox
}

var _ ioa.Client = (*Reader)(nil)

// NewReader returns a reader client.
func NewReader(id ioa.NodeID, cfg Config) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(len(cfg.Servers), cfg.K())
	if err != nil {
		return nil, fmt.Errorf("coded: %w", err)
	}
	return &Reader{id: id, servers: append([]ioa.NodeID(nil), cfg.Servers...), q: cfg.Quorum(), code: code}, nil
}

// ID implements ioa.Node.
func (r *Reader) ID() ioa.NodeID { return r.id }

// Busy implements ioa.Client.
func (r *Reader) Busy() bool { return r.busy }

// Invoke implements ioa.Client.
func (r *Reader) Invoke(inv ioa.Invocation) ioa.Effects {
	r.busy = true
	return r.startRound()
}

func (r *Reader) startRound() ioa.Effects {
	r.rid++
	r.acks = 0
	r.replies = r.replies[:0]
	return r.out.All(r.servers, ioa.Msg{Kind: kindRead, RID: r.rid})
}

// Deliver implements ioa.Node.
func (r *Reader) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if !r.busy {
		return ioa.Effects{}
	}
	if msg.Kind != kindReadAck || msg.RID != r.rid {
		return ioa.Effects{}
	}
	r.acks++
	r.replies = append(r.replies, msg.Body.(slots))
	if r.acks < r.q {
		return ioa.Effects{}
	}
	value, decoded := r.tryDecode()
	if !decoded {
		// Replies raced the writer's W1 messages; retry with a fresh round.
		return r.startRound()
	}
	r.busy = false
	return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: value}}
}

// tryDecode returns the decoded value of the largest tag >= t* with at least
// k coded elements among the replies, where t* is the largest finalized tag
// observed. (nil, true) is returned when no write has reached the servers at
// all (initial value).
func (r *Reader) tryDecode() ([]byte, bool) {
	var tstar register.Tag
	sawAny := false
	shardsByTag := make(map[register.Tag][]erasure.Shard)
	for _, rep := range r.replies {
		if fin := rep.Fin; fin.Used {
			tstar = register.MaxTag(tstar, fin.Tag)
			sawAny = true
			shardsByTag[fin.Tag] = append(shardsByTag[fin.Tag], fin.Shard)
		}
		if pend := rep.Pend; pend.Used {
			sawAny = true
			shardsByTag[pend.Tag] = append(shardsByTag[pend.Tag], pend.Shard)
		}
	}
	if !sawAny {
		return nil, true // initial value
	}
	// Candidate tags >= t* with >= k shards, largest first.
	cands := make([]register.Tag, 0, len(shardsByTag))
	for t, shards := range shardsByTag {
		if !t.Less(tstar) && len(shards) >= r.code.K() {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[j].Less(cands[i]) })
	for _, t := range cands {
		if value, err := r.code.Decode(shardsByTag[t]); err == nil {
			return value, true
		}
	}
	return nil, false
}

// Clone implements ioa.Node.
func (r *Reader) Clone() ioa.Node {
	cp := *r
	cp.servers = append([]ioa.NodeID(nil), r.servers...)
	cp.replies = append([]slots(nil), r.replies...)
	cp.out = ioa.Outbox{}
	return &cp
}

// --- deployment ---

// Options configures a TwoVersion deployment.
type Options struct {
	Servers int
	F       int
	Readers int
}

// Deploy builds a TwoVersion SWSR cluster (one writer, the given readers).
func Deploy(opts Options) (*cluster.Cluster, error) {
	cfg := Config{Servers: cluster.ServerIDs(opts.Servers), F: opts.F}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cluster.Deploy(Profile(cfg), opts.Servers, opts.F, 1, opts.Readers, cluster.Roles{
		Server: func(id ioa.NodeID, _ []ioa.NodeID) ioa.Node { return NewServer(id) },
		Writer: func(id ioa.NodeID) (ioa.Client, error) { return NewWriter(id, cfg) },
		Reader: func(id ioa.NodeID) (ioa.Client, error) { return NewReader(id, cfg) },
	})
}
