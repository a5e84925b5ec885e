package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadFrames drives arbitrary byte streams through the buffered inbound
// path: it must never panic, never allocate past one MaxFrame payload plus a
// bounded multiple of the input, hand the handler exactly the whole frames
// before the first bad length or truncation, and count a stream refused at a
// length over MaxFrame in Stats.Malformed.
func FuzzReadFrames(f *testing.F) {
	one := AppendFrame(nil, []byte("one"))
	tooLong := []byte{0xff, 0xff, 0xff, 0xff}
	f.Add([]byte{})
	f.Add(one)
	f.Add(AppendFrame(AppendFrame(AppendFrame(nil, []byte("a")), nil), []byte("bcd"))) // back to back, one empty
	f.Add(append(append(append([]byte{}, one...), tooLong...), one...))                // the frame after a bad length is never read
	f.Add(append(AppendFrame(nil, []byte("x")), 0))                                    // a stray byte: truncated length
	f.Add(append(tooLong, 0x00))                                                       // length over MaxFrame
	f.Add([]byte{0x00, 0xff, 0x00, 0x00, 0x00})                                        // length under MaxFrame, payload missing
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

		// The stream walked by hand: whole frames up to the first length
		// over MaxFrame, which is malformed, or the first truncation, which
		// is not.
		var frames, malformed uint64
		for rest := data; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			if n > MaxFrame {
				malformed = 1
				break
			}
			if uint64(n) > uint64(len(rest)-4) {
				break
			}
			frames++
			rest = rest[4+n:]
		}
		s := e.Stats()
		if s.Malformed != malformed || s.FramesReceived != frames || handed != frames {
			t.Fatalf("stream of %d bytes: malformed %d, received %d, handed %d; want malformed %d, frames %d",
				len(data), s.Malformed, s.FramesReceived, handed, malformed, frames)
		}
	})
}
