package wire

import (
	"encoding/binary"
	"fmt"
)

// Compound-frame envelope. A transport connection's flusher coalesces every
// frame pending when it writes (up to the transport's batch caps) into one
// length-prefixed compound frame per socket write — memberlist's
// MakeCompoundMessage idiom — so frames queued behind a write cost one
// syscall together instead of one each. The first byte of every transport
// payload is an envelope tag:
//
//	raw:      0x00 | payload
//	compound: 0x01 | uvarint count | count x uvarint length | payloads
//
// Member lengths precede the payloads (not interleaved) so a decoder can
// validate the whole shape before touching any payload bytes.
const (
	// FrameRaw tags a payload carrying exactly one frame.
	FrameRaw byte = 0x00
	// FrameCompound tags a payload carrying a batch of frames.
	FrameCompound byte = 0x01
)

// AppendRaw appends the raw-frame envelope for payload to dst.
func AppendRaw(dst, payload []byte) []byte {
	dst = append(dst, FrameRaw)
	return append(dst, payload...)
}

// AppendCompound appends the compound-frame envelope for the batch to dst.
// A batch of one still round-trips, but callers should prefer AppendRaw for
// it (two bytes cheaper and the common case under light load).
func AppendCompound(dst []byte, frames [][]byte) []byte {
	dst = append(dst, FrameCompound)
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
	}
	for _, f := range frames {
		dst = append(dst, f...)
	}
	return dst
}

// SplitFrames decodes a tagged transport payload into its member frames: a
// raw payload yields one frame, a compound payload yields the batch in
// order. The returned subslices alias data — callers that retain a frame
// past the payload's lifetime must copy it. Malformed envelopes (unknown
// tag, truncated lengths, lengths overrunning the payload) are errors; the
// count is bounded by the payload size before any allocation, so a hostile
// header cannot force one.
func SplitFrames(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty transport payload")
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case FrameRaw:
		return [][]byte{rest}, nil
	case FrameCompound:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("wire: compound frame: bad member count")
		}
		rest = rest[n:]
		// Each member costs at least one length byte, so a legitimate count
		// never exceeds the remaining payload size.
		if count > uint64(len(rest)) {
			return nil, fmt.Errorf("wire: compound frame: count %d exceeds payload", count)
		}
		lengths := make([]uint64, count)
		var total uint64
		for i := range lengths {
			l, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("wire: compound frame: truncated length %d/%d", i+1, count)
			}
			rest = rest[n:]
			lengths[i] = l
			// Bound l before summing: a near-2^64 length could wrap total
			// past the overrun check.
			if l > uint64(len(rest)) {
				return nil, fmt.Errorf("wire: compound frame: members overrun payload")
			}
			total += l
			if total > uint64(len(rest)) {
				return nil, fmt.Errorf("wire: compound frame: members overrun payload")
			}
		}
		if total != uint64(len(rest)) {
			return nil, fmt.Errorf("wire: compound frame: %d payload bytes, members declare %d", len(rest), total)
		}
		frames := make([][]byte, count)
		for i, l := range lengths {
			frames[i] = rest[:l:l]
			rest = rest[l:]
		}
		return frames, nil
	default:
		return nil, fmt.Errorf("wire: unknown frame envelope tag 0x%02x", tag)
	}
}
