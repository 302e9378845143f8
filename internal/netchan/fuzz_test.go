package netchan

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

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

// FuzzUDPDatagram hardens the datagram parser — splitRecord under
// UDPChannel.ReadPacket — against arbitrary bytes arriving as one
// datagram: it never panics, stops at the first record it cannot trust,
// never hands out a payload that aliases the read buffer (the next
// datagram overwrites it), and never yields more payload bytes than the
// datagram held.
func FuzzUDPDatagram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	// The write path's own output: one record, and a run with its marker.
	p := packet.NewData([]byte("seed payload"))
	p.Seq, p.HasSeq = 7, true
	one := wireOf(f, p)
	f.Add(one)
	run := append(append(append([]byte(nil), one...), one...),
		wireOf(f, packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 2, Deficit: -3}))...)
	f.Add(run)
	f.Add(run[:len(run)-1])                                         // last record cut short
	f.Add(append(append([]byte(nil), one...), 0, 0, 0, 2, 0xee, 0)) // bad codepoint after a good record

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &scriptedConn{steps: []scriptStep{{data: data}, {timeout: true}}}
		ch := newUDPChannel(conn)
		var got []*packet.Packet
		payload := 0
		for {
			q, err := ch.ReadPacket(time.Second)
			if q == nil && err == nil {
				break // the scripted timeout: the datagram is used up
			}
			if err != nil {
				continue // a bad frame skips one record, a bad length the rest
			}
			got = append(got, q)
			payload += len(q.Payload)
		}
		if payload > len(data) {
			t.Fatalf("%d payload bytes out of a %d-byte datagram", payload, len(data))
		}
		// Overwrite the read buffer, as the next datagram would: whatever
		// was handed out must re-encode to the bytes it was parsed from.
		var want []byte
		for _, q := range got {
			want = append(want, wireOf(t, q)...)
		}
		for i := range ch.rbuf {
			ch.rbuf[i] ^= 0xff
		}
		var after []byte
		for _, q := range got {
			after = append(after, wireOf(t, q)...)
		}
		if !bytes.Equal(want, after) {
			t.Fatal("a returned packet aliases the channel's read buffer")
		}
	})
}
