package netchan

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stripe/internal/packet"
)

// FuzzDecodeFrame hardens the channel framing parser against arbitrary
// bytes: it must never panic, and structurally valid frames must
// round-trip.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 42})
	p := packet.NewData([]byte("seed payload"))
	p.Seq, p.HasSeq = 7, true
	f.Add(EncodeFrame(nil, p))
	f.Add(EncodeFrame(nil, packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 2, Deficit: -3})))
	// Regression seeds at the codepoint bound: the highest declared
	// kind must decode, one past it must be rejected. The stale-bound
	// bug (bound left at Marker when Credit landed) lived exactly here.
	f.Add([]byte{byte(packet.Telemetry), 0})
	f.Add([]byte{byte(packet.Telemetry) + 1, 0})
	// A frame as TCPChannel's header writer lays it out (it does not go
	// through EncodeFrame), less the length prefix.
	f.Add(wireOf(f, p)[recordLn:])

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to the same bytes.
		re := EncodeFrame(nil, q)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", data, re)
		}
		// ...and so must the TCP write path, behind its length prefix.
		wire := wireOf(t, q)
		if n := binary.BigEndian.Uint32(wire); int(n) != len(data) || !bytes.Equal(wire[recordLn:], data) {
			t.Fatalf("TCP wire mismatch:\n in: %x\nout: %x (length prefix %d)", data, wire[recordLn:], n)
		}
	})
}

// FuzzDecodeMarker hardens the marker parser: no panics, and anything
// that decodes must re-encode identically (the CRC pins this down).
func FuzzDecodeMarker(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, packet.MarkerWireLen))
	m := packet.MarkerBlock{Channel: 3, Round: 99, Deficit: -500, Credits: 1 << 40}
	f.Add(m.Encode(nil))
	// Sent edge values: the reconcile path converts Sent to int64, so
	// seed zero, the signed wrap point (1<<63, negative after the cast),
	// and the maximum, where off-by-one bugs and sign flips live.
	for _, sent := range []uint64{0, 1 << 63, ^uint64(0)} {
		edge := packet.MarkerBlock{Channel: 1, Round: 2, Sent: sent}
		f.Add(edge.Encode(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := packet.DecodeMarker(data)
		if err != nil {
			return
		}
		re := got.Encode(nil)
		if !bytes.Equal(re, data[:packet.MarkerWireLen]) {
			t.Fatalf("marker re-encode mismatch")
		}
	})
}

// FuzzDecodeCredit does the same for credit blocks.
func FuzzDecodeCredit(f *testing.F) {
	f.Add([]byte{})
	c := packet.CreditBlock{Channel: 2, Grant: 1 << 33}
	f.Add(c.Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := packet.DecodeCredit(data)
		if err != nil {
			return
		}
		re := got.Encode(nil)
		if !bytes.Equal(re, data[:packet.CreditWireLen]) {
			t.Fatalf("credit re-encode mismatch")
		}
	})
}
