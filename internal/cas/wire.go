package cas

import (
	"repro/internal/ioa"
	"repro/internal/wire"
)

// Message kinds (wire's 0x20–0x2f range). Every message is its header alone
// — the request id and, where the phase names one, a tag — but a pre-write,
// which carries the server's coded element, and a read-finalize ack, which
// carries the element the server holds for the tag, if any.
const (
	kindQueryFin    ioa.Kind = 0x20
	kindQueryFinAck ioa.Kind = 0x21 // tag: the responder's highest finalized tag
	kindPreWrite    ioa.Kind = 0x22 // body register.WriteElement
	kindPreWriteAck ioa.Kind = 0x23
	kindFinalize    ioa.Kind = 0x24
	kindFinalizeAck ioa.Kind = 0x25
	kindReadFin     ioa.Kind = 0x26 // the reader's second phase: finalize tag, and ask for its element
	kindReadFinAck  ioa.Kind = 0x27 // body register.Element, nil when the server holds none
)

func init() {
	wire.Register(kindQueryFin, "cas.queryFinMsg", nil)
	wire.Register(kindQueryFinAck, "cas.queryFinAck", nil)
	wire.Register(kindPreWrite, "cas.preWriteMsg", &wire.WriteElement)
	wire.Register(kindPreWriteAck, "cas.preWriteAck", nil)
	wire.Register(kindFinalize, "cas.finalizeMsg", nil)
	wire.Register(kindFinalizeAck, "cas.finalizeAck", nil)
	wire.Register(kindReadFin, "cas.readFinMsg", nil)
	wire.Register(kindReadFinAck, "cas.readFinAck", &wire.Element)
}
