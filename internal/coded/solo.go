package coded

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
)

// SoloServer serves exactly one coded element of an (N, k=N-f) code: the
// minimum conceivable storage, N/(N-f)·log2|V| total, matching the Theorem
// B.1 (Singleton) bound with equality up to tag metadata. It also keeps the
// element it last replaced (prev), which no read uses but StorageBits
// meters, so its measured storage is twice that from the second write on.
//
// A server answers a read with its current element only. A read returns
// the highest tag among its N-f replies, decoded, and asks again while that
// tag has fewer than k elements; any N-f replies meet the N-f acks of the
// last completed write, so the register is regular whenever N > 2f.
//
// The catch — and the paper's point — is that k = N-f makes EVERY surviving
// shard necessary: the register is live only when the f failures occur
// before the value being read was written (the exact execution family of
// the Theorem B.1 proof). A failure after the write, or a read racing a
// write, can leave fewer than N-f matching shards reachable and the read
// retries forever. The package tests demonstrate both sides.
type SoloServer struct {
	id   ioa.NodeID
	cur  slot
	prev slot // previous version: never read, but kept and metered from the second write on
	out  ioa.Outbox
}

var (
	_ ioa.Node         = (*SoloServer)(nil)
	_ ioa.StorageMeter = (*SoloServer)(nil)
	_ ioa.Digester     = (*SoloServer)(nil)
)

// NewSoloServer returns a single-version coded server.
func NewSoloServer(id ioa.NodeID) *SoloServer { return &SoloServer{id: id} }

// ID implements ioa.Node.
func (s *SoloServer) ID() ioa.NodeID { return s.id }

// Deliver implements ioa.Node.
func (s *SoloServer) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch msg.Kind {
	case kindW1:
		if !s.cur.Used || s.cur.Tag.Less(msg.Tag) {
			s.prev = s.cur
			s.cur = slot{Used: true, Tag: msg.Tag, Shard: msg.Body.(register.WriteElement).Shard}
		}
		return s.out.Reply(from, ioa.Msg{Kind: kindW1Ack, RID: msg.RID})
	case kindRead:
		return s.out.Reply(from, ioa.Msg{Kind: kindReadAck, RID: msg.RID, Body: slots{Fin: s.cur}})
	default:
		return ioa.Effects{}
	}
}

// StorageBits implements ioa.StorageMeter: the current version and the
// previous one, each a tag plus its coded element. A write never empties
// prev, it only replaces it, so from the second write on a server holds two
// elements and is metered for both: twice the single-version storage the
// classical coding setup assumes.
func (s *SoloServer) StorageBits() int {
	bits := 0
	for _, sl := range []slot{s.cur, s.prev} {
		if sl.Used {
			bits += sl.Tag.Bits() + 8*len(sl.Shard.Data)
		}
	}
	return bits
}

// StateDigest implements ioa.Digester.
func (s *SoloServer) StateDigest() string {
	return fmt.Sprintf("solo|%v:%s:%x|%v:%s:%x",
		s.cur.Used, s.cur.Tag, s.cur.Shard.Data,
		s.prev.Used, s.prev.Tag, s.prev.Shard.Data)
}

// Clone implements ioa.Node.
func (s *SoloServer) Clone() ioa.Node {
	cp := *s
	cp.out = ioa.Outbox{}
	return &cp
}

// SoloConfig configures a Solo register.
type SoloConfig struct {
	Servers []ioa.NodeID
	F       int
}

// K returns the code dimension N-f.
func (c SoloConfig) K() int { return len(c.Servers) - c.F }

// Validate checks f < N.
func (c SoloConfig) Validate() error {
	if len(c.Servers) == 0 {
		return fmt.Errorf("coded: no servers configured")
	}
	if c.F < 0 || c.K() < 1 {
		return fmt.Errorf("coded: need f < N, got N=%d f=%d", len(c.Servers), c.F)
	}
	return nil
}

// SoloProfile returns the Section 6.1 classification: one value-dependent
// phase.
func SoloProfile(cfg SoloConfig) quorum.WriteProfile {
	q := quorum.System{N: len(cfg.Servers), Size: cfg.K()}
	return quorum.WriteProfile{
		Algorithm: "coded-solo",
		Phases: []quorum.PhaseSpec{
			{Name: "w1-shards", Quorum: q, ValueDependent: true},
		},
		MetadataSeparated: true,
		BlackBox:          true,
	}
}

// SoloWriter writes with a single shard-distribution phase.
type SoloWriter struct {
	id      ioa.NodeID
	servers []ioa.NodeID
	q       int
	code    *erasure.Code

	busy  bool
	rid   int64
	seq   int64
	acks  int
	value []byte
	out   ioa.Outbox
}

var (
	_ ioa.Client          = (*SoloWriter)(nil)
	_ quorum.PhasedWriter = (*SoloWriter)(nil)
)

// NewSoloWriter returns the single writer of a Solo register.
func NewSoloWriter(id ioa.NodeID, cfg SoloConfig) (*SoloWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(len(cfg.Servers), cfg.K())
	if err != nil {
		return nil, fmt.Errorf("coded: %w", err)
	}
	return &SoloWriter{id: id, servers: append([]ioa.NodeID(nil), cfg.Servers...), q: cfg.K(), code: code}, nil
}

// ID implements ioa.Node.
func (w *SoloWriter) ID() ioa.NodeID { return w.id }

// Busy implements ioa.Client.
func (w *SoloWriter) Busy() bool { return w.busy }

// WritePhase implements quorum.PhasedWriter.
func (w *SoloWriter) WritePhase() (int, bool) {
	if !w.busy {
		return 0, false
	}
	return 1, true
}

// Invoke implements ioa.Client.
func (w *SoloWriter) Invoke(inv ioa.Invocation) ioa.Effects {
	w.busy = true
	w.rid++
	w.acks = 0
	w.seq++
	w.value = inv.Value
	tag := register.Tag{Seq: w.seq, Writer: w.id}
	for i, s := range w.servers {
		shard, err := w.code.EncodeOne(w.value, i)
		if err != nil {
			continue // unreachable
		}
		w.out.Add(s, ioa.Msg{Kind: kindW1, RID: w.rid, Tag: tag, Body: register.WriteElement{Shard: shard}})
	}
	return w.out.Effects()
}

// Deliver implements ioa.Node.
func (w *SoloWriter) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if !w.busy {
		return ioa.Effects{}
	}
	if msg.Kind != kindW1Ack || msg.RID != w.rid {
		return ioa.Effects{}
	}
	w.acks++
	if w.acks < w.q {
		return ioa.Effects{}
	}
	w.busy = false
	return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpWrite}}
}

// Clone implements ioa.Node.
func (w *SoloWriter) Clone() ioa.Node {
	cp := *w
	cp.servers = append([]ioa.NodeID(nil), w.servers...)
	cp.out = ioa.Outbox{}
	return &cp
}

// SoloReader reads by collecting the current coded element of N-f servers.
// It returns only the highest tag among them, which needs k = N-f elements
// to decode; with fewer, that write is still landing and the reader starts
// a new round.
type SoloReader struct {
	id      ioa.NodeID
	servers []ioa.NodeID
	q       int
	code    *erasure.Code

	busy    bool
	rid     int64
	acks    int
	replies []slots
	out     ioa.Outbox
}

var _ ioa.Client = (*SoloReader)(nil)

// NewSoloReader returns a reader client for a Solo register.
func NewSoloReader(id ioa.NodeID, cfg SoloConfig) (*SoloReader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(len(cfg.Servers), cfg.K())
	if err != nil {
		return nil, fmt.Errorf("coded: %w", err)
	}
	return &SoloReader{id: id, servers: append([]ioa.NodeID(nil), cfg.Servers...), q: cfg.K(), code: code}, nil
}

// ID implements ioa.Node.
func (r *SoloReader) ID() ioa.NodeID { return r.id }

// Busy implements ioa.Client.
func (r *SoloReader) Busy() bool { return r.busy }

// Invoke implements ioa.Client.
func (r *SoloReader) Invoke(inv ioa.Invocation) ioa.Effects {
	r.busy = true
	return r.startRound()
}

func (r *SoloReader) startRound() ioa.Effects {
	r.rid++
	r.acks = 0
	r.replies = r.replies[:0]
	return r.out.All(r.servers, ioa.Msg{Kind: kindRead, RID: r.rid})
}

// Deliver implements ioa.Node.
func (r *SoloReader) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
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
	// Only the highest tag among the replies may be returned; with fewer
	// than k elements of it, its write is still landing, so ask again.
	var top register.Tag
	var shards []erasure.Shard
	for _, rep := range r.replies {
		switch cur := rep.Fin; {
		case !cur.Used:
		case len(shards) == 0 || top.Less(cur.Tag):
			top, shards = cur.Tag, append(shards[:0], cur.Shard)
		case cur.Tag == top:
			shards = append(shards, cur.Shard)
		}
	}
	if len(shards) == 0 {
		r.busy = false
		return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: nil}}
	}
	if len(shards) >= r.code.K() {
		if value, err := r.code.Decode(shards); err == nil {
			r.busy = false
			return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: value}}
		}
	}
	return r.startRound()
}

// Clone implements ioa.Node.
func (r *SoloReader) Clone() ioa.Node {
	cp := *r
	cp.servers = append([]ioa.NodeID(nil), r.servers...)
	cp.replies = append([]slots(nil), r.replies...)
	cp.out = ioa.Outbox{}
	return &cp
}

// DeploySolo builds a Solo register cluster.
func DeploySolo(opts Options) (*cluster.Cluster, error) {
	cfg := SoloConfig{Servers: cluster.ServerIDs(opts.Servers), F: opts.F}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cluster.Deploy(SoloProfile(cfg), opts.Servers, opts.F, 1, opts.Readers, cluster.Roles{
		Server: func(id ioa.NodeID, _ []ioa.NodeID) ioa.Node { return NewSoloServer(id) },
		Writer: func(id ioa.NodeID) (ioa.Client, error) { return NewSoloWriter(id, cfg) },
		Reader: func(id ioa.NodeID) (ioa.Client, error) { return NewSoloReader(id, cfg) },
	})
}
