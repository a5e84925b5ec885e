package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzReadFrames drives arbitrary byte streams through the buffered inbound
// path: it must never panic, never allocate past one MaxFrame payload plus a
// bounded multiple of the input, hand the handler exactly the members of the
// well-formed envelopes, and count every envelope that fails to split in
// Stats.Malformed.
func FuzzReadFrames(f *testing.F) {
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	raw := frame(wire.AppendRaw(nil, []byte("one")))
	compound := frame(wire.AppendCompound(nil, [][]byte{[]byte("a"), {}, []byte("bcd")}))
	f.Add([]byte{})
	f.Add(raw)
	f.Add(append(append([]byte{}, raw...), compound...))
	f.Add(append(frame([]byte{0x7f, 'x'}), raw...))     // unknown tag, then a good envelope
	f.Add(append(frame([]byte{wire.FrameCompound}), 0)) // truncated count, then a stray byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})         // length over MaxFrame
	f.Add([]byte{0x00, 0xff, 0x00, 0x00, 0x00})         // length under MaxFrame, payload missing
	f.Fuzz(func(t *testing.T, data []byte) {
		e := &Endpoint{done: make(chan struct{})}
		var handed uint64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.readFrames(bytes.NewReader(data), func([]byte) { handed++ })
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame+64*uint64(len(data))+64<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}

		// The stream walked by hand: whole envelopes up to the first bad
		// length or truncation.
		var frames, malformed uint64
		for rest := data; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			if n > MaxFrame || uint64(n) > uint64(len(rest)-4) {
				break
			}
			if members, err := wire.SplitFrames(rest[4 : 4+n]); err != nil {
				malformed++
			} else {
				frames += uint64(len(members))
			}
			rest = rest[4+n:]
		}
		s := e.Stats()
		if s.Malformed != malformed || s.FramesReceived != frames || handed != frames {
			t.Fatalf("stream of %d bytes: malformed %d, received %d, handed %d; want malformed %d, frames %d",
				len(data), s.Malformed, s.FramesReceived, handed, malformed, frames)
		}
	})
}
