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
	"slices"
	"sort"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
)

// --- server ---

// record is one stored version: its tag, an optional coded element and a
// finalized flag.
type record struct {
	Tag      register.Tag
	HasShard bool
	Shard    erasure.Shard
	Fin      bool
}

// bits is the record's storage cost: a tag, a fin bit and the shard payload.
func (r *record) bits() int {
	b := r.Tag.Bits() + 1
	if r.HasShard {
		b += 8 * len(r.Shard.Data)
	}
	return b
}

// Server is a CAS replica. Its versions sit in a slice ascending by tag, so
// collection is a prefix cut; bits and fins are running totals over it.
//
// The server is the holder of every coded element in recs: it owns the
// count a pre-write handed it, retains one for each readFinAck it sends and
// for each record a Clone copies, and releases the records that collection
// drops, or all of them on Release.
type Server struct {
	id      ioa.NodeID
	recs    []record
	bits    int // sum of recs' bits()
	fins    int // finalized records in recs
	maxFin  register.Tag
	gcDepth int // -1 = never collect
	out     ioa.Outbox
}

var (
	_ ioa.Node         = (*Server)(nil)
	_ ioa.StorageMeter = (*Server)(nil)
	_ ioa.Digester     = (*Server)(nil)
)

// NewServer returns a CAS server. gcDepth < 0 disables garbage collection
// (plain CAS); gcDepth = δ keeps the δ+1 highest finalized versions (CASGC).
func NewServer(id ioa.NodeID, gcDepth int) *Server {
	return &Server{id: id, gcDepth: gcDepth}
}

// ID implements ioa.Node.
func (s *Server) ID() ioa.NodeID { return s.id }

// Deliver implements ioa.Node.
func (s *Server) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch msg.Kind {
	case kindQueryFin:
		return s.out.Reply(from, ioa.Msg{Kind: kindQueryFinAck, RID: msg.RID, Tag: s.maxFin})
	case kindPreWrite:
		shard := msg.Body.(register.WriteElement).Shard
		r := s.entry(msg.Tag)
		if r.HasShard {
			shard.Release() // a duplicate: the server already holds this tag's element
		} else {
			r.HasShard, r.Shard = true, shard
			s.bits += 8 * len(shard.Data)
			s.gc()
		}
		return s.out.Reply(from, ioa.Msg{Kind: kindPreWriteAck, RID: msg.RID})
	case kindFinalize:
		s.finalize(msg.Tag)
		return s.out.Reply(from, ioa.Msg{Kind: kindFinalizeAck, RID: msg.RID})
	case kindReadFin:
		s.finalize(msg.Tag)
		ack := ioa.Msg{Kind: kindReadFinAck, RID: msg.RID}
		if i, ok := s.find(msg.Tag); ok && s.recs[i].HasShard {
			s.recs[i].Shard.Retain() // the ack holds its own count: collection may drop the record first
			ack.Body = register.Element{Shard: s.recs[i].Shard}
		}
		return s.out.Reply(from, ack)
	default:
		return ioa.Effects{}
	}
}

// find returns the position of t's record, or where it would go. A new tag
// is almost always the highest, so the top is checked first.
func (s *Server) find(t register.Tag) (int, bool) {
	n := len(s.recs)
	if n == 0 || s.recs[n-1].Tag.Less(t) {
		return n, false
	}
	i := sort.Search(n, func(i int) bool { return !s.recs[i].Tag.Less(t) })
	return i, s.recs[i].Tag.Equal(t)
}

// entry returns t's record, inserting an empty one if there is none. The
// pointer is valid until the next insertion or collection.
func (s *Server) entry(t register.Tag) *record {
	i, ok := s.find(t)
	if !ok {
		s.recs = slices.Insert(s.recs, i, record{Tag: t})
		s.bits += s.recs[i].bits()
	}
	return &s.recs[i]
}

func (s *Server) finalize(t register.Tag) {
	if r := s.entry(t); !r.Fin {
		r.Fin = true
		s.fins++
	}
	if s.maxFin.Less(t) {
		s.maxFin = t
	}
	s.gc()
}

// gc drops the records below the (δ+1)-highest finalized tag. It runs on
// every pre-write and finalize; with fewer than δ+1 finalized records it
// returns at once, and otherwise it finds the threshold walking down from
// the top, over the O(δ+ν) records at or above it, and cuts the prefix below
// it, releasing the dropped elements. It allocates nothing: the kept records
// move down in place.
func (s *Server) gc() {
	if s.gcDepth < 0 || s.fins <= s.gcDepth {
		return
	}
	cut := len(s.recs)
	for seen := 0; seen <= s.gcDepth; {
		cut--
		if s.recs[cut].Fin {
			seen++
		}
	}
	if cut == 0 {
		return
	}
	for i := range s.recs[:cut] {
		r := &s.recs[i]
		s.bits -= r.bits()
		if r.Fin {
			s.fins--
		}
		r.Shard.Release()
	}
	n := copy(s.recs, s.recs[cut:])
	clear(s.recs[n:]) // the tail must not pin dropped elements
	s.recs = s.recs[:n]
}

// StorageBits implements ioa.StorageMeter: per record, a tag, a fin bit and
// the shard payload; plus the maxFin tag.
func (s *Server) StorageBits() int { return s.maxFin.Bits() + s.bits }

// StateDigest implements ioa.Digester.
func (s *Server) StateDigest() string {
	out := fmt.Sprintf("cas|fin=%s", s.maxFin)
	for _, rec := range s.recs {
		out += fmt.Sprintf("|%s:f=%v:h=%v:%x", rec.Tag, rec.Fin, rec.HasShard, rec.Shard.Data)
	}
	return out
}

// Clone implements ioa.Node. The copy holds its own count of every element:
// the two servers collect, and release, independently.
func (s *Server) Clone() ioa.Node {
	cp := *s
	cp.recs = slices.Clone(s.recs)
	for _, r := range cp.recs {
		r.Shard.Retain()
	}
	cp.out = ioa.Outbox{}
	return &cp
}

// Release lets go of the server's count of every element it holds: a
// holder of a copy set aside (a durable image) calls it once, when it drops
// the copy. The server must not be used afterwards.
func (s *Server) Release() {
	for _, r := range s.recs {
		r.Shard.Release()
	}
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
	out      ioa.Outbox
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
	c.dropShards()
	return c.out.All(c.servers, ioa.Msg{Kind: kindQueryFin, RID: c.rid})
}

// Deliver implements ioa.Node.
func (c *Client) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if msg.Kind == kindReadFinAck {
		return c.readFinAck(msg)
	}
	if !c.busy || msg.RID != c.rid {
		return ioa.Effects{}
	}
	switch msg.Kind {
	case kindQueryFinAck:
		if c.phase != phaseQuery {
			return ioa.Effects{}
		}
		c.acks++
		c.maxFin = register.MaxTag(c.maxFin, msg.Tag)
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
	case kindPreWriteAck:
		if c.phase != phasePreWrite {
			return ioa.Effects{}
		}
		c.acks++
		if c.acks < c.q {
			return ioa.Effects{}
		}
		return c.startFinalize()
	case kindFinalizeAck:
		if c.phase != phaseFinalize {
			return ioa.Effects{}
		}
		c.acks++
		if c.acks < c.q {
			return ioa.Effects{}
		}
		c.busy = false
		c.phase = phaseIdle
		return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpWrite}}
	default:
		return ioa.Effects{}
	}
}

// readFinAck takes a server's reply to the read-finalize phase. The reply
// holds a count of its element, if it has one: the reader keeps it, or lets
// go of a late or stale one.
func (c *Client) readFinAck(msg ioa.Message) ioa.Effects {
	e, has := msg.Body.(register.Element)
	if !c.busy || c.role != RoleReader || c.phase != phaseReadFin || msg.RID != c.rid {
		e.Release()
		return ioa.Effects{}
	}
	c.acks++
	if has {
		c.shards = append(c.shards, e.Shard)
	}
	if c.acks < c.q {
		return ioa.Effects{}
	}
	if len(c.shards) >= c.code.K() {
		val, err := c.code.Decode(c.shards)
		if err == nil {
			c.dropShards() // decoded into val, which the reader owns: an idle reader pins no coded elements
			return c.respondRead(val)
		}
	}
	// Too few coded elements survived (possible only when garbage
	// collection raced this read): retry from the query phase.
	return c.startQuery()
}

func (c *Client) startPreWrite() ioa.Effects {
	c.phase = phasePreWrite
	c.rid++
	c.acks = 0
	c.tag = c.maxFin.Next(c.id)
	for i, s := range c.servers {
		// Each element goes to its message with the one count EncodeOne
		// gave it; the server it reaches takes the count over.
		shard, err := c.code.EncodeOne(c.writeVal, i)
		if err != nil {
			// Cannot happen: i < n by construction. Skip defensively.
			continue
		}
		c.out.Add(s, ioa.Msg{Kind: kindPreWrite, RID: c.rid, Tag: c.tag, Body: register.WriteElement{Shard: shard}})
	}
	c.writeVal = nil // encoded: the value is the servers' to hold now, not the writer's
	return c.out.Effects()
}

func (c *Client) startFinalize() ioa.Effects {
	c.phase = phaseFinalize
	c.rid++
	c.acks = 0
	return c.out.All(c.servers, ioa.Msg{Kind: kindFinalize, RID: c.rid, Tag: c.tag})
}

func (c *Client) startReadFin() ioa.Effects {
	c.phase = phaseReadFin
	c.rid++
	c.acks = 0
	c.tag = c.maxFin
	c.dropShards()
	return c.out.All(c.servers, ioa.Msg{Kind: kindReadFin, RID: c.rid, Tag: c.tag})
}

func (c *Client) respondRead(val []byte) ioa.Effects {
	c.busy = false
	c.phase = phaseIdle
	return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: val}}
}

// dropShards releases the coded elements collected so far.
func (c *Client) dropShards() {
	for _, s := range c.shards {
		s.Release()
	}
	c.shards = nil
}

// Clone implements ioa.Node. A mid-read copy holds its own count of every
// element collected so far.
func (c *Client) Clone() ioa.Node {
	cp := *c
	cp.servers = append([]ioa.NodeID(nil), c.servers...)
	cp.shards = append([]erasure.Shard(nil), c.shards...)
	for _, s := range cp.shards {
		s.Retain()
	}
	cp.out = ioa.Outbox{}
	return &cp
}
