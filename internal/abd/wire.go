package abd

import (
	"repro/internal/ioa"
	"repro/internal/wire"
)

// Message kinds (wire's 0x10–0x1f range). Queries and put acks are their
// header alone; a query ack carries the server's tag and value, a put the
// tag and value written.
const (
	kindQuery    ioa.Kind = 0x10
	kindQueryAck ioa.Kind = 0x11 // body register.Value
	kindPut      ioa.Kind = 0x12 // body register.WriteValue
	kindPutAck   ioa.Kind = 0x13
)

func init() {
	wire.Register(kindQuery, "abd.queryMsg", nil)
	wire.Register(kindQueryAck, "abd.queryAck", &wire.Value)
	wire.Register(kindPut, "abd.putMsg", &wire.WriteValue)
	wire.Register(kindPutAck, "abd.putAck", nil)
}
