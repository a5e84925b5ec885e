// Package abd implements the Attiya–Bar-Noy–Dolev replication-based atomic
// register [3] over the ioa simulation kernel, in both single-writer (SWMR)
// and multi-writer (MWMR) forms.
//
// ABD is the replication baseline of the paper: every server stores one full
// copy of the latest value it has seen, so per-server storage is
// log2|V| + O(tag) bits regardless of write concurrency. Its write protocol
// satisfies Assumptions 1-3 of Section 6.1 (one or two phases, exactly one of
// which sends value-dependent messages), so Theorem 6.5 applies to it.
//
// Protocol summary:
//
//	write (SWMR):  put(tag,v) to all, await N-f acks.           [1 phase]
//	write (MWMR):  query tags, await N-f; put(max+1,v), await N-f. [2 phases]
//	read:          query (tag,value), await N-f. If all N-f acks carry one
//	               tag, return its value.                       [1 phase]
//	               Otherwise write back the maximum (tag,value) to all,
//	               await N-f acks, and return it.               [2 phases]
//
// Quorums of size N-f with N >= 2f+1 pairwise intersect, which yields
// atomicity; liveness holds with up to f crashes. A read's write-back exists
// to leave a quorum holding the tag it returns, so that every later
// operation's query quorum meets a server with that tag or a higher one.
// When the N-f servers of its query quorum all reported the maximum tag, that
// quorum already holds it: a server's tag only grows (a put lowers nothing,
// and a recovered server restarts from an image taken before its reply left
// it), so the write-back would change no server's state and is skipped.
// Writes, servers and the Section 6.1 write profile are the same either way.
package abd

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/register"
)

// --- server ---

// Server is an ABD replica storing the highest-tagged (tag, value) pair it
// has received.
type Server struct {
	id    ioa.NodeID
	tag   register.Tag
	value []byte
	out   ioa.Outbox
}

var (
	_ ioa.Node         = (*Server)(nil)
	_ ioa.StorageMeter = (*Server)(nil)
	_ ioa.Digester     = (*Server)(nil)
)

// NewServer returns an ABD server automaton.
func NewServer(id ioa.NodeID) *Server { return &Server{id: id} }

// ID implements ioa.Node.
func (s *Server) ID() ioa.NodeID { return s.id }

// Deliver implements ioa.Node.
func (s *Server) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	switch msg.Kind {
	case kindQuery:
		return s.out.Reply(from, ioa.Msg{Kind: kindQueryAck, RID: msg.RID, Tag: s.tag, Body: register.Value(s.value)})
	case kindPut:
		if s.tag.Less(msg.Tag) {
			s.tag = msg.Tag
			s.value = msg.Body.(register.WriteValue)
		}
		return s.out.Reply(from, ioa.Msg{Kind: kindPutAck, RID: msg.RID})
	default:
		return ioa.Effects{}
	}
}

// Clone implements ioa.Node. The stored value is immutable and shared.
func (s *Server) Clone() ioa.Node {
	cp := *s
	cp.out = ioa.Outbox{}
	return &cp
}

// StorageBits implements ioa.StorageMeter: one value plus one tag.
func (s *Server) StorageBits() int {
	return register.ValueBits(s.value) + s.tag.Bits()
}

// StateDigest implements ioa.Digester.
func (s *Server) StateDigest() string {
	return fmt.Sprintf("abd|%s|%x", s.tag, s.value)
}

// --- client ---

// Role distinguishes reader and writer clients.
type Role int

// Client roles.
const (
	RoleWriter Role = iota + 1
	RoleReader
)

// phase numbers of the client state machine.
const (
	phaseIdle  = 0
	phaseQuery = 1
	phasePut   = 2
)

// Client is an ABD reader or writer.
type Client struct {
	id          ioa.NodeID
	role        Role
	servers     []ioa.NodeID
	quorum      int
	multiWriter bool // writers run a query phase to discover the max tag

	// Operation state.
	busy     bool
	phase    int
	rid      int64
	writeVal []byte
	acks     int
	agree    int // query acks carrying bestTag; a higher tag resets it
	bestTag  register.Tag
	bestVal  []byte
	localSeq int64 // SWMR writer's own sequence counter
	out      ioa.Outbox
}

var (
	_ ioa.Client          = (*Client)(nil)
	_ quorum.PhasedWriter = (*Client)(nil)
)

// Config configures an ABD register deployment.
type Config struct {
	Servers     []ioa.NodeID
	F           int  // tolerated crash failures
	MultiWriter bool // MWMR write protocol (query before put)
}

// Quorum returns the response-quorum size N-f.
func (c Config) Quorum() int { return len(c.Servers) - c.F }

// Validate checks the liveness/safety requirements (N >= 2f+1).
func (c Config) Validate() error {
	n := len(c.Servers)
	if n == 0 {
		return fmt.Errorf("abd: no servers configured")
	}
	if c.F < 0 || 2*c.F+1 > n {
		return fmt.Errorf("abd: need N >= 2f+1, got N=%d f=%d", n, c.F)
	}
	return nil
}

// NewClient returns an ABD client with the given role.
func NewClient(id ioa.NodeID, role Role, cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		id:          id,
		role:        role,
		servers:     append([]ioa.NodeID(nil), cfg.Servers...),
		quorum:      cfg.Quorum(),
		multiWriter: cfg.MultiWriter,
	}, nil
}

// ID implements ioa.Node.
func (c *Client) ID() ioa.NodeID { return c.id }

// Busy implements ioa.Client.
func (c *Client) Busy() bool { return c.busy }

// WritePhase implements quorum.PhasedWriter.
func (c *Client) WritePhase() (int, bool) {
	if !c.busy || c.role != RoleWriter {
		return 0, false
	}
	if !c.multiWriter {
		return 1, true // single phase, value-dependent
	}
	switch c.phase {
	case phaseQuery:
		return 1, false
	case phasePut:
		return 2, true
	default:
		return 0, false
	}
}

// Profile returns the Section 6.1 write-protocol classification of ABD.
func Profile(cfg Config) quorum.WriteProfile {
	q := quorum.System{N: len(cfg.Servers), Size: cfg.Quorum()}
	phases := []quorum.PhaseSpec{}
	if cfg.MultiWriter {
		phases = append(phases, quorum.PhaseSpec{Name: "query", Quorum: q, ValueDependent: false})
	}
	phases = append(phases, quorum.PhaseSpec{Name: "put", Quorum: q, ValueDependent: true})
	name := "abd-swmr"
	if cfg.MultiWriter {
		name = "abd-mwmr"
	}
	return quorum.WriteProfile{
		Algorithm:         name,
		Phases:            phases,
		MetadataSeparated: true,
		BlackBox:          true,
	}
}

// Invoke implements ioa.Client.
func (c *Client) Invoke(inv ioa.Invocation) ioa.Effects {
	c.busy = true
	c.writeVal = inv.Value
	c.bestTag = register.Tag{}
	c.bestVal = nil
	switch {
	case inv.Kind == ioa.OpWrite && !c.multiWriter:
		// SWMR write: straight to the put phase with a local sequence.
		c.localSeq++
		return c.startPut(register.Tag{Seq: c.localSeq, Writer: c.id}, c.writeVal)
	default:
		// Reads, and MWMR writes, start with a query phase.
		return c.startQuery()
	}
}

func (c *Client) startQuery() ioa.Effects {
	c.phase = phaseQuery
	c.rid++
	c.acks, c.agree = 0, 0
	return c.out.All(c.servers, ioa.Msg{Kind: kindQuery, RID: c.rid})
}

func (c *Client) startPut(tag register.Tag, value []byte) ioa.Effects {
	c.phase = phasePut
	c.rid++
	c.acks = 0
	c.bestTag = tag
	c.bestVal = value
	return c.out.All(c.servers, ioa.Msg{Kind: kindPut, RID: c.rid, Tag: tag, Body: register.WriteValue(value)})
}

// Deliver implements ioa.Node.
func (c *Client) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	if !c.busy {
		return ioa.Effects{}
	}
	if msg.RID != c.rid {
		return ioa.Effects{}
	}
	switch msg.Kind {
	case kindQueryAck:
		if c.phase != phaseQuery {
			return ioa.Effects{}
		}
		c.acks++
		switch {
		case c.bestTag.Less(msg.Tag):
			c.bestTag = msg.Tag
			c.bestVal = msg.Body.(register.Value)
			c.agree = 1
		case c.bestTag.Equal(msg.Tag):
			c.agree++
		}
		if c.acks < c.quorum {
			return ioa.Effects{}
		}
		if c.role == RoleWriter {
			// MWMR write: advance to the put phase with a fresh tag.
			return c.startPut(c.bestTag.Next(c.id), c.writeVal)
		}
		if c.agree == c.acks {
			// Read whose whole query quorum holds the maximum tag: the
			// write-back would change nothing, so respond now.
			return c.finish()
		}
		// Read: write back the maximum (tag, value) observed.
		return c.startPut(c.bestTag, c.bestVal)
	case kindPutAck:
		if c.phase != phasePut {
			return ioa.Effects{}
		}
		c.acks++
		if c.acks < c.quorum {
			return ioa.Effects{}
		}
		return c.finish()
	default:
		return ioa.Effects{}
	}
}

// finish ends the operation: a write responds, a read returns bestVal.
func (c *Client) finish() ioa.Effects {
	c.busy = false
	c.phase = phaseIdle
	if c.role == RoleWriter {
		return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpWrite}}
	}
	return ioa.Effects{Response: &ioa.Response{Kind: ioa.OpRead, Value: c.bestVal}}
}

// Clone implements ioa.Node.
func (c *Client) Clone() ioa.Node {
	cp := *c
	cp.servers = append([]ioa.NodeID(nil), c.servers...)
	cp.out = ioa.Outbox{}
	return &cp
}
