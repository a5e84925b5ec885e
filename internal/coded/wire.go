package coded

import (
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/wire"
)

// Message kinds (wire's 0x30–0x3f range). The solo register reuses W1, read
// and read ack, so these seven kinds cover the whole package. W1 carries a
// coded element and a read ack the server's slots; every other message is
// its header alone.
const (
	kindW1      ioa.Kind = 0x30 // body register.WriteElement
	kindW1Ack   ioa.Kind = 0x31
	kindW2      ioa.Kind = 0x32
	kindW2Ack   ioa.Kind = 0x33
	kindRead    ioa.Kind = 0x34
	kindReadAck ioa.Kind = 0x35 // body slots
	kindFinNote ioa.Kind = 0x36 // server-to-server gossip: tag is finalized
)

// slotsBody is the codec of a read ack's slots: per slot, a presence byte,
// the tag and the coded element.
var slotsBody = wire.Body{
	Encode: func(b *wire.Buffer, body any) bool {
		s, ok := body.(slots)
		for _, sl := range [2]slot{s.Fin, s.Pend} {
			b.Bool(sl.Used)
			b.Tag(sl.Tag)
			b.Shard(sl.Shard)
		}
		return ok
	},
	Decode: func(r *wire.Reader) any {
		fin := slot{Used: r.Bool(), Tag: r.Tag(), Shard: r.Shard()}
		return slots{Fin: fin, Pend: slot{Used: r.Bool(), Tag: r.Tag(), Shard: r.Shard()}}
	},
	Sample: func(seed uint64) any {
		var s slots
		if seed%2 == 0 {
			s.Fin = slot{Used: true, Tag: register.Tag{Seq: int64(seed % 256), Writer: ioa.NodeID(seed % 3)}, Shard: wire.SampleShard(seed)}
		}
		if seed%3 == 0 {
			s.Pend = slot{Used: true, Tag: register.Tag{Seq: int64(seed%256) + 1, Writer: ioa.NodeID(seed % 3)}, Shard: wire.SampleShard(seed + 1)}
		}
		return s
	},
}

func init() {
	wire.Register(kindW1, "coded.w1Msg", &wire.WriteElement)
	wire.Register(kindW1Ack, "coded.w1Ack", nil)
	wire.Register(kindW2, "coded.w2Msg", nil)
	wire.Register(kindW2Ack, "coded.w2Ack", nil)
	wire.Register(kindRead, "coded.readMsg", nil)
	wire.Register(kindReadAck, "coded.readAck", &slotsBody)
	wire.Register(kindFinNote, "coded.finNote", nil)
}
