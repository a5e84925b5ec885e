package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
)

// FuzzReadFrames drives arbitrary byte streams through the accept path: the
// hello, then the buffered frame reader. It must never panic, never allocate
// past one MaxFrame payload plus a bounded multiple of the input, pool the
// connection under the hello's address, never hand the hello to the handler
// or count it as a frame, hand the handler exactly the whole frames after it
// up to the first bad length or truncation, and count a stream refused at a
// hello over maxHello or a length over MaxFrame in Stats.Malformed.
func FuzzReadFrames(f *testing.F) {
	hello := appendFrame(nil, []byte("127.0.0.1:7000"))
	one := appendFrame(nil, []byte("one"))
	tooLong := []byte{0xff, 0xff, 0xff, 0xff}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	f.Add(cat(hello, one))
	f.Add(cat(hello, appendFrame(nil, []byte("a")), appendFrame(nil, nil), appendFrame(nil, []byte("bcd")))) // back to back, one empty
	f.Add(cat(hello, one, tooLong, one))                                                                     // the frame after a bad length is never read
	f.Add(cat(hello, appendFrame(nil, []byte("x")), []byte{0}))                                              // a stray byte: truncated length
	f.Add(cat(hello, tooLong, []byte{0x00}))                                                                 // length over MaxFrame
	f.Add(cat(hello, []byte{0x00, 0xff, 0x00, 0x00, 0x00}))                                                  // length under MaxFrame, payload missing
	f.Add(cat(appendFrame(nil, make([]byte, maxHello+1)), one))                                              // hello over its cap
	f.Add(one)                                                                                               // a hello and nothing after it
	f.Fuzz(func(t *testing.T, data []byte) {
		e := &Endpoint{cfg: Config{}.withDefaults(), conns: make(map[string]*peerConn), open: make(map[*peerConn]struct{})}
		var handed uint64
		e.handler = func([]byte, bool) { handed++ }
		local, remote := net.Pipe()
		pc := &peerConn{c: local}
		e.open[pc] = struct{}{}
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			remote.Write(data) // fails once the reader refuses the stream and closes its end
			remote.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.wg.Add(1)
		e.serveConn(pc, true)
		runtime.ReadMemStats(&after)
		<-wrote
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame+64*uint64(len(data))+64<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}

		// The stream walked by hand: the hello, refused over maxHello; then
		// whole frames up to the first length over MaxFrame, which is
		// malformed, or the first truncation, which is not.
		var frames, malformed uint64
		var greeted bool
		var addr string
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n > maxHello {
				malformed = 1
			} else if uint64(n) <= uint64(len(data)-4) {
				greeted, addr = true, string(data[4:4+n])
				for rest := data[4+n:]; len(rest) >= 4; {
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
			}
		}
		s := e.Stats()
		if s.Malformed.Load() != malformed || s.FramesReceived.Load() != frames || handed != frames || s.FramesSent.Load() != 0 {
			t.Fatalf("stream of %d bytes: malformed %d, received %d, handed %d, sent %d; want malformed %d, frames %d, none sent",
				len(data), s.Malformed.Load(), s.FramesReceived.Load(), handed, s.FramesSent.Load(), malformed, frames)
		}
		if greeted && (len(e.conns) != 1 || e.conns[addr] != pc) || !greeted && len(e.conns) != 0 {
			t.Fatalf("greeted %t as %q: pool %v, want the connection pooled under the hello's address, or nothing pooled", greeted, addr, e.conns)
		}
		if !pc.dead.Load() || len(e.open) != 0 {
			t.Fatal("the stream ended but its connection was not retired")
		}
	})
}
