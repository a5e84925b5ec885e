// Package cas implements a Coded Atomic Storage register in the style of
// Cadambe-Lynch-Medard-Musial [5, 6]: an erasure-coded atomic register whose
// servers store one coded element (shard) per stored version.
//
// The algorithm is the erasure-coded baseline of the paper. Its write
// protocol has three phases — query (value-independent), pre-write
// (value-DEPENDENT: server i receives coded element i), finalize
// (value-independent) — so it satisfies Assumptions 1-3 of Section 6.1 and
// Theorem 6.5 applies to it. Because a server must hold coded elements for
// every write that is concurrent with (or not yet propagated past) the
// latest finalized one, its storage grows linearly with the number of active
// writes ν: this is exactly the ν·N/k·log2|V| behaviour that Figure 1's
// "erasure-coding based algorithms" line depicts and that Theorem 6.5 shows
// is unavoidable for this protocol class.
//
// Quorums have size q = ceil((N+k)/2), so any two quorums intersect in at
// least k servers; liveness under f crashes requires k <= N-2f.
//
// Garbage collection follows CASGC [6]: with GC depth δ >= 0, a server keeps
// records only for tags at or above its (δ+1)-highest finalized tag. Reads
// whose target was collected retry with a fresh query; with at most δ
// concurrent writes the retry terminates.
package cas

import (
	"fmt"
	"sort"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
)

// --- messages ---

type queryFinMsg struct{ RID int64 }

type queryFinAck struct {
	RID int64
	Tag register.Tag // responder's highest finalized tag
}

type preWriteMsg struct {
	RID   int64
	Tag   register.Tag
	Shard erasure.Shard
}

// BearsValue implements ioa.ValueBearer: pre-write messages carry coded
// elements of the value.
func (preWriteMsg) BearsValue() bool { return true }

type preWriteAck struct{ RID int64 }

type finalizeMsg struct {
	RID int64
	Tag register.Tag
}

type finalizeAck struct{ RID int64 }

// readFinMsg is the reader's second phase: it finalizes tag at the server
// (tag propagation, needed for atomicity) and asks for the coded element.
type readFinMsg struct {
	RID int64
	Tag register.Tag
}

type readFinAck struct {
	RID      int64
	HasShard bool
	Shard    erasure.Shard
}

// --- server ---

// recordState is a stored version: an optional coded element plus a
// finalized flag.
type recordState struct {
	HasShard bool
	Shard    erasure.Shard
	Fin      bool
}

// Server is a CAS replica.
type Server struct {
	id      ioa.NodeID
	recs    map[register.Tag]recordState
	maxFin  register.Tag
	gcDepth int // -1 = never collect
}

var (
	_ ioa.Node         = (*Server)(nil)
	_ ioa.StorageMeter = (*Server)(nil)
	_ ioa.Digester     = (*Server)(nil)
	_ ioa.Recoverable  = (*Server)(nil)
)

// serverImage is the durable state a CAS replica persists across a crash:
// its version log (tag -> record) and the highest finalized tag. gcDepth is
// configuration, not state, and stays with the node.
type serverImage struct {
	recs   map[register.Tag]recordState
	maxFin register.Tag
}

// NewServer returns a CAS server. gcDepth < 0 disables garbage collection
// (plain CAS); gcDepth = δ keeps the δ+1 highest finalized versions (CASGC).
func NewServer(id ioa.NodeID, gcDepth int) *Server {
	return &Server{id: id, recs: make(map[register.Tag]recordState), gcDepth: gcDepth}
}

// ID implements ioa.Node.
func (s *Server) ID() ioa.NodeID { return s.id }

// Deliver implements ioa.Node.
func (s *Server) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch m := msg.(type) {
	case queryFinMsg:
		return reply(from, queryFinAck{RID: m.RID, Tag: s.maxFin})
	case preWriteMsg:
		rec := s.recs[m.Tag]
		if !rec.HasShard {
			rec.HasShard = true
			rec.Shard = m.Shard
			s.recs[m.Tag] = rec
			s.gc()
		}
		return reply(from, preWriteAck{RID: m.RID})
	case finalizeMsg:
		s.finalize(m.Tag)
		return reply(from, finalizeAck{RID: m.RID})
	case readFinMsg:
		s.finalize(m.Tag)
		rec, ok := s.recs[m.Tag]
		ack := readFinAck{RID: m.RID}
		if ok && rec.HasShard {
			ack.HasShard = true
			ack.Shard = rec.Shard
		}
		return reply(from, ack)
	default:
		return ioa.Effects{}
	}
}

func reply(to ioa.NodeID, msg ioa.Message) ioa.Effects {
	return ioa.Effects{Sends: []ioa.Send{{To: to, Msg: msg}}}
}

func (s *Server) finalize(t register.Tag) {
	rec := s.recs[t]
	rec.Fin = true
	s.recs[t] = rec
	if s.maxFin.Less(t) {
		s.maxFin = t
	}
	s.gc()
}

// gc drops records below the (δ+1)-highest finalized tag. It runs on every
// pre-write and finalize, so it finds that tag without allocating or
// sorting: with fins finalized records it is the (fins-δ)-th lowest, and
// since every finalization is followed by a gc that leaves δ+1 of them,
// fins-δ is at most 2 — a pass over O(δ+ν) records for the lowest and at
// most one more for the next.
func (s *Server) gc() {
	if s.gcDepth < 0 {
		return
	}
	var threshold register.Tag // the lowest finalized tag, then the next, ...
	fins := 0
	for t, rec := range s.recs {
		if rec.Fin {
			if fins == 0 || t.Less(threshold) {
				threshold = t
			}
			fins++
		}
	}
	if fins <= s.gcDepth {
		return
	}
	for nth := 2; nth <= fins-s.gcDepth; nth++ {
		var next register.Tag
		found := false
		for t, rec := range s.recs {
			if rec.Fin && threshold.Less(t) && (!found || t.Less(next)) {
				next, found = t, true
			}
		}
		threshold = next
	}
	for t := range s.recs {
		if t.Less(threshold) {
			delete(s.recs, t)
		}
	}
}

// StorageBits implements ioa.StorageMeter: per record, a tag, a fin bit and
// the shard payload; plus the maxFin tag.
func (s *Server) StorageBits() int {
	bits := s.maxFin.Bits()
	for t, rec := range s.recs {
		bits += t.Bits() + 1
		if rec.HasShard {
			bits += 8 * len(rec.Shard.Data)
		}
	}
	return bits
}

// VersionsStored returns the number of records currently held; experiments
// use it to relate storage to write concurrency.
func (s *Server) VersionsStored() int { return len(s.recs) }

// StateDigest implements ioa.Digester.
func (s *Server) StateDigest() string {
	tags := make([]register.Tag, 0, len(s.recs))
	for t := range s.recs {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Less(tags[j]) })
	out := fmt.Sprintf("cas|fin=%s", s.maxFin)
	for _, t := range tags {
		rec := s.recs[t]
		out += fmt.Sprintf("|%s:f=%v:h=%v:%x", t, rec.Fin, rec.HasShard, rec.Shard.Data)
	}
	return out
}

// Clone implements ioa.Node.
func (s *Server) Clone() ioa.Node {
	cp := &Server{id: s.id, recs: make(map[register.Tag]recordState, len(s.recs)), maxFin: s.maxFin, gcDepth: s.gcDepth}
	for t, rec := range s.recs {
		cp.recs[t] = rec // shard data immutable, shared
	}
	return cp
}

// Snapshot implements ioa.Recoverable: a copy of the version log plus the
// finalization high-water mark. Shard payloads are immutable and shared.
func (s *Server) Snapshot() ioa.NodeSnapshot {
	img := serverImage{recs: make(map[register.Tag]recordState, len(s.recs)), maxFin: s.maxFin}
	for t, rec := range s.recs {
		img.recs[t] = rec
	}
	return img
}

// Restore implements ioa.Recoverable.
func (s *Server) Restore(snap ioa.NodeSnapshot) error {
	img, ok := snap.(serverImage)
	if !ok {
		return fmt.Errorf("cas: server %d: foreign snapshot %T", s.id, snap)
	}
	s.recs = make(map[register.Tag]recordState, len(img.recs))
	for t, rec := range img.recs {
		s.recs[t] = rec
	}
	s.maxFin = img.maxFin
	return nil
}

// --- configuration ---

// Config configures a CAS deployment.
type Config struct {
	Servers []ioa.NodeID
	F       int
	K       int // code dimension; 0 means the maximum N-2f
	GCDepth int // -1 = never collect, δ >= 0 = CASGC depth
}

// EffectiveK returns the code dimension in use.
func (c Config) EffectiveK() int {
	if c.K > 0 {
		return c.K
	}
	return len(c.Servers) - 2*c.F
}

// QuorumSize returns q = ceil((N+k)/2).
func (c Config) QuorumSize() int {
	n := len(c.Servers)
	return (n + c.EffectiveK() + 1) / 2
}

// Validate checks 1 <= k <= N-2f (which implies quorum liveness under f
// crashes and pairwise quorum intersection of size >= k).
func (c Config) Validate() error {
	n := len(c.Servers)
	if n == 0 {
		return fmt.Errorf("cas: no servers configured")
	}
	k := c.EffectiveK()
	if k < 1 || k > n-2*c.F {
		return fmt.Errorf("cas: need 1 <= k <= N-2f, got N=%d f=%d k=%d", n, c.F, k)
	}
	if c.F < 0 {
		return fmt.Errorf("cas: negative f")
	}
	return nil
}

// Profile returns the Section 6.1 classification of the CAS write protocol.
func Profile(cfg Config) quorum.WriteProfile {
	q := quorum.System{N: len(cfg.Servers), Size: cfg.QuorumSize()}
	return quorum.WriteProfile{
		Algorithm: "cas",
		Phases: []quorum.PhaseSpec{
			{Name: "query", Quorum: q, ValueDependent: false},
			{Name: "pre-write", Quorum: q, ValueDependent: true},
			{Name: "finalize", Quorum: q, ValueDependent: false},
		},
		MetadataSeparated: true,
		BlackBox:          true,
	}
}

// --- client ---

// Role distinguishes reader and writer clients.
type Role int

// Client roles.
const (
	RoleWriter Role = iota + 1
	RoleReader
)

// phases of the client state machine.
const (
	phaseIdle     = 0
	phaseQuery    = 1
	phasePreWrite = 2
	phaseFinalize = 3
	phaseReadFin  = 2 // reader's shard-collection phase
)

// Client is a CAS reader or writer.
type Client struct {
	id      ioa.NodeID
	role    Role
	servers []ioa.NodeID
	q       int
	code    *erasure.Code

	busy     bool
	phase    int
	rid      int64
	writeVal []byte
	tag      register.Tag
	acks     int
	maxFin   register.Tag
	shards   []erasure.Shard
}

var (
	_ ioa.Client          = (*Client)(nil)
	_ quorum.PhasedWriter = (*Client)(nil)
)

// NewClient returns a CAS client.
func NewClient(id ioa.NodeID, role Role, cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(len(cfg.Servers), cfg.EffectiveK())
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return &Client{
		id:      id,
		role:    role,
		servers: append([]ioa.NodeID(nil), cfg.Servers...),
		q:       cfg.QuorumSize(),
		code:    code,
	}, nil
}

// ID implements ioa.Node.
func (c *Client) ID() ioa.NodeID { return c.id }

// Busy implements ioa.Client.
func (c *Client) Busy() bool { return c.busy }

// WritePhase implements quorum.PhasedWriter: only the pre-write phase sends
// value-dependent messages.
func (c *Client) WritePhase() (int, bool) {
	if !c.busy || c.role != RoleWriter {
		return 0, false
	}
	return c.phase, c.phase == phasePreWrite
}

// Invoke implements ioa.Client.
func (c *Client) Invoke(inv ioa.Invocation) ioa.Effects {
	c.busy = true
	c.writeVal = inv.Value
	return c.startQuery()
}

func (c *Client) startQuery() ioa.Effects {
	c.phase = phaseQuery
	c.rid++
	c.acks = 0
	c.maxFin = register.Tag{}
	c.shards = nil
	sends := make([]ioa.Send, 0, len(c.servers))
	for _, s := range c.servers {
		sends = append(sends, ioa.Send{To: s, Msg: queryFinMsg{RID: c.rid}})
	}
	return ioa.Effects{Sends: sends}
}

// Deliver implements ioa.Node.
func (c *Client) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if !c.busy {
		return ioa.Effects{}
	}
	switch m := msg.(type) {
	case queryFinAck:
		if c.phase != phaseQuery || m.RID != c.rid {
			return ioa.Effects{}
		}
		c.acks++
		c.maxFin = register.MaxTag(c.maxFin, m.Tag)
		if c.acks < c.q {
			return ioa.Effects{}
		}
		if c.role == RoleWriter {
			return c.startPreWrite()
		}
		if c.maxFin.IsZero() {
			// No write has ever finalized: the register still holds the
			// initial value.
			return c.respondRead(nil)
		}
		return c.startReadFin()
	case preWriteAck:
		if c.phase != phasePreWrite || m.RID != c.rid {
			return ioa.Effects{}
		}
		c.acks++
		if c.acks < c.q {
			return ioa.Effects{}
		}
		return c.startFinalize()
	case finalizeAck:
		if c.phase != phaseFinalize || m.RID != c.rid {
			return ioa.Effects{}
		}
		c.acks++
		if c.acks < c.q {
			return ioa.Effects{}
		}
		c.busy = false
		c.phase = phaseIdle
		return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpWrite}}
	case readFinAck:
		if c.role != RoleReader || c.phase != phaseReadFin || m.RID != c.rid {
			return ioa.Effects{}
		}
		c.acks++
		if m.HasShard {
			c.shards = append(c.shards, m.Shard)
		}
		if c.acks < c.q {
			return ioa.Effects{}
		}
		if len(c.shards) >= c.code.K() {
			val, err := c.code.Decode(c.shards)
			if err == nil {
				c.shards = nil // decoded: an idle reader pins no coded elements
				return c.respondRead(val)
			}
		}
		// Too few coded elements survived (possible only when garbage
		// collection raced this read): retry from the query phase.
		return c.startQuery()
	default:
		return ioa.Effects{}
	}
}

func (c *Client) startPreWrite() ioa.Effects {
	c.phase = phasePreWrite
	c.rid++
	c.acks = 0
	c.tag = c.maxFin.Next(c.id)
	sends := make([]ioa.Send, 0, len(c.servers))
	for i, s := range c.servers {
		shard, err := c.code.EncodeOne(c.writeVal, i)
		if err != nil {
			// Cannot happen: i < n by construction. Skip defensively.
			continue
		}
		sends = append(sends, ioa.Send{To: s, Msg: preWriteMsg{RID: c.rid, Tag: c.tag, Shard: shard}})
	}
	c.writeVal = nil // encoded: the value is the servers' to hold now, not the writer's
	return ioa.Effects{Sends: sends}
}

func (c *Client) startFinalize() ioa.Effects {
	c.phase = phaseFinalize
	c.rid++
	c.acks = 0
	sends := make([]ioa.Send, 0, len(c.servers))
	for _, s := range c.servers {
		sends = append(sends, ioa.Send{To: s, Msg: finalizeMsg{RID: c.rid, Tag: c.tag}})
	}
	return ioa.Effects{Sends: sends}
}

func (c *Client) startReadFin() ioa.Effects {
	c.phase = phaseReadFin
	c.rid++
	c.acks = 0
	c.tag = c.maxFin
	c.shards = nil
	sends := make([]ioa.Send, 0, len(c.servers))
	for _, s := range c.servers {
		sends = append(sends, ioa.Send{To: s, Msg: readFinMsg{RID: c.rid, Tag: c.tag}})
	}
	return ioa.Effects{Sends: sends}
}

func (c *Client) respondRead(val []byte) ioa.Effects {
	c.busy = false
	c.phase = phaseIdle
	return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: val}}
}

// Clone implements ioa.Node.
func (c *Client) Clone() ioa.Node {
	cp := *c
	cp.servers = append([]ioa.NodeID(nil), c.servers...)
	cp.shards = append([]erasure.Shard(nil), c.shards...)
	return &cp
}
