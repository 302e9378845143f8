package netchan

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"stripe/internal/packet"
)

func TestFrameRoundTrip(t *testing.T) {
	check := func(kind uint8, seq uint64, hasSeq bool, payload []byte) bool {
		p := &packet.Packet{Kind: packet.Kind(kind % 4), Payload: payload}
		if hasSeq {
			p.Seq, p.HasSeq = seq, true
		}
		got, err := DecodeFrame(EncodeFrame(nil, p))
		if err != nil {
			return false
		}
		return got.Kind == p.Kind &&
			got.HasSeq == p.HasSeq &&
			(!p.HasSeq || got.Seq == p.Seq) &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameInstrumentationNotTransmitted(t *testing.T) {
	p := packet.NewDataSized(10)
	p.ID = 42
	p.Ingress = 7
	got, err := DecodeFrame(EncodeFrame(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0 || got.Ingress != 0 {
		t.Fatalf("instrumentation metadata leaked onto the wire: %+v", got)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := DecodeFrame(nil); err != ErrFrameTooShort {
		t.Errorf("nil frame: %v", err)
	}
	if _, err := DecodeFrame([]byte{0}); err != ErrFrameTooShort {
		t.Errorf("1-byte frame: %v", err)
	}
	// Sequence flag set but no sequence bytes.
	if _, err := DecodeFrame([]byte{0, flagSeq, 1, 2}); err != ErrFrameTooShort {
		t.Errorf("truncated seq: %v", err)
	}
}

func TestUDPChannelRoundTrip(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	want := [][]byte{[]byte("alpha"), []byte("beta"), make([]byte, 1400)}
	for _, pl := range want {
		if err := send.Send(packet.NewData(pl)); err != nil {
			t.Fatal(err)
		}
	}
	for i, pl := range want {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("packet %d timed out", i)
		}
		if !bytes.Equal(p.Payload, pl) {
			t.Fatalf("packet %d payload mismatch", i)
		}
	}
}

func TestUDPChannelMarker(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	m := packet.MarkerBlock{Channel: 3, Round: 17, Deficit: -42}
	if err := send.Send(packet.NewMarker(m)); err != nil {
		t.Fatal(err)
	}
	p, err := recv.ReadPacket(2 * time.Second)
	if err != nil || p == nil {
		t.Fatalf("recv: %v %v", p, err)
	}
	if p.Kind != packet.Marker {
		t.Fatalf("kind = %v", p.Kind)
	}
	got, err := packet.MarkerOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("marker = %+v, want %+v", got, m)
	}
}

func TestUDPReadTimeout(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p, err := recv.ReadPacket(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("unexpected packet %v", p)
	}
}

func TestTCPChannelFIFOBulk(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	const n = 500
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p := packet.NewDataSized(100 + i%1300)
			p.Seq, p.HasSeq = uint64(i), true
			if err := send.Send(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		p, err := recv.ReadPacket(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("packet %d timed out", i)
		}
		if !p.HasSeq || p.Seq != uint64(i) {
			t.Fatalf("packet %d has seq %d (FIFO violated?)", i, p.Seq)
		}
		if p.Len() != 100+i%1300 {
			t.Fatalf("packet %d length %d", i, p.Len())
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPReadTimeout(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p, err := recv.ReadPacket(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("unexpected packet %v", p)
	}
}

func TestTCPOversizeRejected(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p := packet.NewDataSized(MaxFrame + 1)
	if err := send.Send(p); err != ErrFrameTooBig {
		t.Fatalf("Send = %v, want ErrFrameTooBig", err)
	}
}

func TestDecodeFrameStrictness(t *testing.T) {
	// Unknown codepoints and reserved flag bits are rejected, keeping
	// decode/encode canonical (pinned by the fuzzers).
	if _, err := DecodeFrame([]byte{9, 0, 1, 2}); err != ErrBadCodepoint {
		t.Errorf("bad codepoint: %v", err)
	}
	if _, err := DecodeFrame([]byte{0, 0x30, 1, 2}); err != ErrBadFlags {
		t.Errorf("reserved flags: %v", err)
	}
}

// TestDecodeFrameBound pins the decode bound to the highest declared
// codepoint: a frame carrying the max kind decodes, one past it is
// ErrBadCodepoint. The wiresym pass enforces this statically; this test
// catches the same drift at run time (the bound was once left at the
// previous max when Telemetry landed, killing read pumps on valid
// frames).
func TestDecodeFrameBound(t *testing.T) {
	p, err := DecodeFrame([]byte{byte(packet.Telemetry), 0})
	if err != nil {
		t.Fatalf("frame at the codepoint bound rejected: %v", err)
	}
	if p.Kind != packet.Telemetry {
		t.Fatalf("decoded Kind = %v, want Telemetry", p.Kind)
	}
	p.Release()
	if _, err := DecodeFrame([]byte{byte(packet.Telemetry) + 1, 0}); err != ErrBadCodepoint {
		t.Fatalf("frame one past the bound: err = %v, want ErrBadCodepoint", err)
	}
}

func TestUDPSendAfterCloseFails(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	recv.Close()
	send.Close()
	if err := send.Send(packet.NewDataSized(10)); err == nil {
		t.Fatal("send on closed socket succeeded")
	}
	if _, err := recv.ReadPacket(10 * time.Millisecond); err == nil {
		t.Fatal("read on closed socket succeeded")
	}
}

func TestUDPLocalAddr(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	if send.LocalAddr() == nil || recv.LocalAddr() == nil {
		t.Fatal("nil local address")
	}
}

func TestTCPTruncatedRecord(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// Write a length prefix promising 100 bytes, deliver 3, then close.
	raw := send.conn
	raw.Write([]byte{0, 0, 0, 100, 1, 2, 3})
	raw.Close()
	if _, err := recv.ReadPacket(2 * time.Second); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestTCPOversizeRecordRejectedOnRead(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	defer send.Close()
	// A length prefix beyond MaxFrame must be rejected before any
	// allocation.
	send.conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := recv.ReadPacket(2 * time.Second); err != ErrFrameTooBig {
		t.Fatalf("oversize read: %v", err)
	}
}

// --- Framing-desync regression tests ------------------------------------

// scriptedConn is a net.Conn whose Read follows a script: each step
// either delivers a chunk of bytes or injects a deadline-style timeout
// error. It reproduces, deterministically, a read deadline firing at an
// arbitrary byte position inside a record.
type scriptedConn struct {
	steps []scriptStep

	// log records, in order, every socket read ("read") and every read
	// deadline armed ("arm") or cleared ("clear"); writes counts Write
	// calls, whose bytes go to sink (and their sizes to wrote, so the
	// write boundaries can be found again) when it is set and nowhere
	// otherwise.
	log    []string
	writes int
	sink   *bytes.Buffer
	wrote  []int
	// writeErr, when set, fails every Write.
	writeErr error
}

type scriptStep struct {
	data    []byte
	timeout bool
}

type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (c *scriptedConn) Read(b []byte) (int, error) {
	c.log = append(c.log, "read")
	if len(c.steps) == 0 {
		return 0, io.EOF
	}
	s := c.steps[0]
	if s.timeout {
		c.steps = c.steps[1:]
		return 0, timeoutError{}
	}
	n := copy(b, s.data)
	if n < len(s.data) {
		c.steps[0].data = s.data[n:]
	} else {
		c.steps = c.steps[1:]
	}
	return n, nil
}

func (c *scriptedConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	if c.sink != nil {
		c.sink.Write(b)
		c.wrote = append(c.wrote, len(b))
	}
	return len(b), nil
}

func (c *scriptedConn) SetReadDeadline(d time.Time) error {
	if d.IsZero() {
		c.log = append(c.log, "clear")
	} else {
		c.log = append(c.log, "arm")
	}
	return nil
}

func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// record builds one length-prefixed wire record for p.
func record(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	frame := EncodeFrame(nil, p)
	rec := make([]byte, recordLn+len(frame))
	binary.BigEndian.PutUint32(rec, uint32(len(frame)))
	copy(rec[recordLn:], frame)
	return rec
}

// TestTCPTimeoutMidPrefixKeepsSync reproduces the framing desync where
// a read deadline fired after part of the 4-byte length prefix had been
// consumed: the old ReadPacket returned (nil, nil) and discarded the
// partial prefix, so the next call misparsed mid-record bytes as a
// fresh prefix and every subsequent frame on the connection was lost.
// With partial-read state persisted, the timeout is reported as
// idleness and the record — and every record after it — decodes intact.
func TestTCPTimeoutMidPrefixKeepsSync(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("first-record"), Seq: 7, HasSeq: true}
	b := &packet.Packet{Kind: packet.Data, Payload: []byte("second-record")}
	recA, recB := record(t, a), record(t, b)
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: recA[:2]}, // half the length prefix...
		{timeout: true},  // ...then the deadline fires
		{data: recA[2:]},
		{data: recB},
	}})

	p, err := ch.ReadPacket(time.Second)
	if err != nil || p != nil {
		t.Fatalf("timeout mid-prefix: got (%v, %v), want (nil, nil)", p, err)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if p == nil || string(p.Payload) != "first-record" || !p.HasSeq || p.Seq != 7 {
		t.Fatalf("resumed read returned %+v, want the first record intact", p)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("follow-up read: %v", err)
	}
	if p == nil || string(p.Payload) != "second-record" {
		t.Fatalf("stream desynced after timeout: follow-up record %+v", p)
	}
}

// TestTCPTimeoutMidBodyKeepsSync reproduces the second desync: a
// deadline firing mid-record was reported as a permanent "truncated
// record" error even though the connection was healthy and the rest of
// the record was still in flight. It must read as idleness, and the
// record must complete on the next call.
func TestTCPTimeoutMidBodyKeepsSync(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("slow-but-whole")}
	b := &packet.Packet{Kind: packet.Marker, Payload: []byte("after")}
	recA, recB := record(t, a), record(t, b)
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: recA[:recordLn+5]}, // prefix plus a body fragment...
		{timeout: true},           // ...then the deadline fires mid-body
		{timeout: true},           // (twice: the poller polls again)
		{data: recA[recordLn+5:]},
		{data: recB},
	}})

	for i := 0; i < 2; i++ {
		p, err := ch.ReadPacket(time.Second)
		if err != nil || p != nil {
			t.Fatalf("timeout mid-body #%d: got (%v, %v), want (nil, nil)", i, p, err)
		}
	}
	p, err := ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if p == nil || string(p.Payload) != "slow-but-whole" {
		t.Fatalf("resumed read returned %+v, want the full record", p)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil || p == nil || p.Kind != packet.Marker || string(p.Payload) != "after" {
		t.Fatalf("stream desynced after mid-body timeout: got (%+v, %v)", p, err)
	}
}

// TestTCPDribbledStreamKeepsSync drives a whole multi-record stream
// byte by byte with a timeout injected between every byte — the
// worst-case deadline placement — and requires every record to arrive
// intact and in order.
func TestTCPDribbledStreamKeepsSync(t *testing.T) {
	var wire []byte
	want := make([]string, 5)
	for i := range want {
		want[i] = string(rune('a'+i)) + "-payload"
		wire = append(wire, record(t, &packet.Packet{Kind: packet.Data, Payload: []byte(want[i])})...)
	}
	var steps []scriptStep
	for i := range wire {
		steps = append(steps, scriptStep{data: wire[i : i+1]}, scriptStep{timeout: true})
	}
	ch := NewTCPChannel(&scriptedConn{steps: steps})

	var got []string
	for i := 0; i < 2*len(wire) && len(got) < len(want); i++ {
		p, err := ch.ReadPacket(time.Second)
		if err != nil {
			t.Fatalf("after %d records: %v", len(got), err)
		}
		if p != nil {
			got = append(got, string(p.Payload))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (stream desynced)", i, got[i], want[i])
		}
	}
}

// TestTCPReadBufferReuseDoesNotAlias pins DecodeFrame's copy semantics:
// ReadPacket reuses one channel-owned record buffer, so the packets it
// returns must not alias it — an earlier packet's payload must survive
// later reads.
func TestTCPReadBufferReuseDoesNotAlias(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("aaaaaaaa")}
	b := &packet.Packet{Kind: packet.Data, Payload: []byte("bbbbbbbb")}
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: record(t, a)}, {data: record(t, b)},
	}})
	pa, err := ch.ReadPacket(time.Second)
	if err != nil || pa == nil {
		t.Fatalf("first read: (%v, %v)", pa, err)
	}
	pb, err := ch.ReadPacket(time.Second)
	if err != nil || pb == nil {
		t.Fatalf("second read: (%v, %v)", pb, err)
	}
	if string(pa.Payload) != "aaaaaaaa" {
		t.Fatalf("first payload corrupted by buffer reuse: %q", pa.Payload)
	}
}

// TestTCPSendBatchRoundTrip drives the batched TCP send path over a
// real socket pair: one SendBatch flush, every record delivered FIFO.
func TestTCPSendBatchRoundTrip(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		pl := make([]byte, 64)
		binary.BigEndian.PutUint64(pl, uint64(i))
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: pl, Seq: uint64(i), HasSeq: true}
	}
	n, err := send.SendBatch(pkts)
	if err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
	}
	for i := range pkts {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil {
			t.Fatalf("read %d: (%v, %v)", i, p, err)
		}
		if got := binary.BigEndian.Uint64(p.Payload); got != uint64(i) || p.Seq != uint64(i) {
			t.Fatalf("record %d arrived as payload %d seq %d", i, got, p.Seq)
		}
		p.Release()
	}
}

// TestUDPSendBatchRoundTrip covers the per-datagram batched UDP path.
func TestUDPSendBatchRoundTrip(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pl := make([]byte, 32)
		binary.BigEndian.PutUint64(pl, uint64(i))
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: pl}
	}
	n, err := send.SendBatch(pkts)
	if err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
	}
	for i := range pkts {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil {
			t.Fatalf("read %d: (%v, %v)", i, p, err)
		}
		if got := binary.BigEndian.Uint64(p.Payload); got != uint64(i) {
			t.Fatalf("datagram %d arrived as %d", i, got)
		}
	}
}

// --- Lazy read deadline --------------------------------------------------

func dataRecords(t *testing.T, n int) []byte {
	t.Helper()
	var wire []byte
	for i := 0; i < n; i++ {
		p := &packet.Packet{Kind: packet.Data, Payload: []byte{byte(i), 1, 2, 3}, Seq: uint64(i), HasSeq: true}
		wire = append(wire, record(t, p)...)
	}
	return wire
}

func readAll(t *testing.T, ch *TCPChannel, n int, timeout time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := ch.ReadPacket(timeout)
		if err != nil || p == nil || p.Seq != uint64(i) {
			t.Fatalf("record %d: (%+v, %v)", i, p, err)
		}
		p.Release()
	}
}

// TestDeadlineNotTouchedOnBufferedRecords: records one socket read
// delivered cost one SetReadDeadline between them, not one each — the
// calls after the first are served from the bufio.Reader and must not
// touch the conn at all.
func TestDeadlineNotTouchedOnBufferedRecords(t *testing.T) {
	const n = 64
	conn := &scriptedConn{steps: []scriptStep{{data: dataRecords(t, n)}}}
	ch := NewTCPChannel(conn)
	readAll(t, ch, n, time.Second)
	if got, want := strings.Join(conn.log, " "), "arm read"; got != want {
		t.Fatalf("%d buffered records: conn saw %q, want %q", n, got, want)
	}
}

// TestDeadlineArmedOncePerBlockingCall: a call whose record arrives in
// several socket reads arms once, before the first of them.
func TestDeadlineArmedOncePerBlockingCall(t *testing.T) {
	rec := dataRecords(t, 1)
	conn := &scriptedConn{steps: []scriptStep{
		{data: rec[:2]}, {data: rec[2 : recordLn+3]}, {data: rec[recordLn+3:]},
	}}
	ch := NewTCPChannel(conn)
	readAll(t, ch, 1, time.Second)
	if got, want := strings.Join(conn.log, " "), "arm read read read"; got != want {
		t.Fatalf("dribbled record: conn saw %q, want %q", got, want)
	}
}

// TestDeadlineClearedBeforeBlockingForever: after a call with a timeout
// armed the conn, a call without one must clear the deadline before it
// reaches the socket — or the stale deadline would end a wait that was
// to last forever — and must not clear one that is not set.
func TestDeadlineClearedBeforeBlockingForever(t *testing.T) {
	rec := dataRecords(t, 3)
	one := len(rec) / 3
	conn := &scriptedConn{steps: []scriptStep{
		{data: rec[:one]}, {data: rec[one : 2*one]}, {data: rec[2*one:]},
	}}
	ch := NewTCPChannel(conn)
	for i, timeout := range []time.Duration{time.Second, 0, 0} {
		p, err := ch.ReadPacket(timeout)
		if err != nil || p == nil || p.Seq != uint64(i) {
			t.Fatalf("record %d: (%+v, %v)", i, p, err)
		}
	}
	if got, want := strings.Join(conn.log, " "), "arm read clear read read"; got != want {
		t.Fatalf("conn saw %q, want %q", got, want)
	}

	fresh := &scriptedConn{steps: []scriptStep{{data: dataRecords(t, 1)}}}
	readAll(t, NewTCPChannel(fresh), 1, 0)
	if got, want := strings.Join(fresh.log, " "), "read"; got != want {
		t.Fatalf("never-armed conn saw %q, want %q", got, want)
	}
}

// TestDeadlineRearmedAfterTimeout: the call after a timeout is a new
// wait and arms afresh.
func TestDeadlineRearmedAfterTimeout(t *testing.T) {
	conn := &scriptedConn{steps: []scriptStep{{timeout: true}, {data: dataRecords(t, 1)}}}
	ch := NewTCPChannel(conn)
	if p, err := ch.ReadPacket(time.Second); p != nil || err != nil {
		t.Fatalf("idle read: (%v, %v)", p, err)
	}
	readAll(t, ch, 1, time.Second)
	if got, want := strings.Join(conn.log, " "), "arm read arm read"; got != want {
		t.Fatalf("conn saw %q, want %q", got, want)
	}
}

// --- Write path: flush boundary, allocations, wire format ----------------

func testBatch(n int, hasSeq bool) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: make([]byte, 200+i), Seq: uint64(i), HasSeq: hasSeq}
	}
	return pkts
}

// TestBufferedRecordsShareOneFlush: Buffer defers the write, Flush is
// one write for everything buffered and none for nothing, and SendBatch
// leaves nothing behind.
func TestBufferedRecordsShareOneFlush(t *testing.T) {
	conn := &scriptedConn{}
	ch := NewTCPChannel(conn)
	pkts := testBatch(16, true)
	for run := 0; run < 4; run++ {
		if n, err := ch.Buffer(pkts[4*run : 4*run+4]); n != 4 || err != nil {
			t.Fatalf("Buffer = (%d, %v)", n, err)
		}
	}
	if conn.writes != 0 {
		t.Fatalf("Buffer wrote to the conn %d times before Flush", conn.writes)
	}
	if err := ch.Flush(); err != nil || conn.writes != 1 {
		t.Fatalf("Flush: err %v, %d writes for four buffered runs, want 1", err, conn.writes)
	}
	if err := ch.Flush(); err != nil || conn.writes != 1 {
		t.Fatalf("empty Flush: err %v, %d writes, want still 1", err, conn.writes)
	}
	if n, err := ch.SendBatch(pkts); n != len(pkts) || err != nil || conn.writes != 2 {
		t.Fatalf("SendBatch = (%d, %v) in %d writes, want one more", n, err, conn.writes-1)
	}
	if ch.bw.Buffered() != 0 {
		t.Fatalf("SendBatch left %d bytes buffered", ch.bw.Buffered())
	}
}

// TestBufferedRefusalKeepsStreamWhole: a packet that cannot be encoded
// is refused without a byte of it buffered, and SendBatch still pushes
// out the complete records before it.
func TestBufferedRefusalKeepsStreamWhole(t *testing.T) {
	conn := &scriptedConn{sink: new(bytes.Buffer)}
	ch := NewTCPChannel(conn)
	good := &packet.Packet{Kind: packet.Data, Payload: []byte("ok")}
	pkts := []*packet.Packet{good, packet.NewDataSized(MaxFrame), good}
	if n, err := ch.SendBatch(pkts); n != 1 || err != ErrFrameTooBig {
		t.Fatalf("SendBatch = (%d, %v), want (1, ErrFrameTooBig)", n, err)
	}
	if want := record(t, good); !bytes.Equal(conn.sink.Bytes(), want) {
		t.Fatalf("wire holds %x, want exactly the first record %x", conn.sink.Bytes(), want)
	}
}

// TestTCPSendZeroAlloc: the TCP write path allocates nothing per packet
// or per call, with and without a sequence number.
func TestTCPSendZeroAlloc(t *testing.T) {
	for _, hasSeq := range []bool{false, true} {
		ch := NewTCPChannel(&scriptedConn{})
		pkts := testBatch(64, hasSeq)
		if a := testing.AllocsPerRun(100, func() { ch.SendBatch(pkts) }); a != 0 {
			t.Errorf("SendBatch (HasSeq=%v): %v allocs per 64-packet batch, want 0", hasSeq, a)
		}
		if a := testing.AllocsPerRun(100, func() { ch.Buffer(pkts) }); a != 0 {
			t.Errorf("Buffer (HasSeq=%v): %v allocs per 64-packet batch, want 0", hasSeq, a)
		}
		if a := testing.AllocsPerRun(100, func() { ch.Send(pkts[0]) }); a != 0 {
			t.Errorf("Send (HasSeq=%v): %v allocs per packet, want 0", hasSeq, a)
		}
	}
}

// TestDecodedControlFrameIsPooled: a control frame is decoded into a
// pooled packet like a data frame, so once its consumer releases it (the
// resequencer does) the next decode allocates nothing; and the payload
// is a copy, never an alias of the frame.
func TestDecodedControlFrameIsPooled(t *testing.T) {
	if a := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			packet.Get().Release()
		}
	}); a != 0 {
		t.Skipf("the packet pool itself allocates here (%v per 64 cycles; sync.Pool sheds under -race)", a)
	}
	for _, p := range []*packet.Packet{
		packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 7, Credits: 1 << 20}),
		packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 1 << 20}),
	} {
		frame := EncodeFrame(nil, p)
		if a := testing.AllocsPerRun(50, func() {
			for i := 0; i < 64; i++ {
				q, err := DecodeFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				q.Release()
			}
		}); a != 0 {
			t.Errorf("decoding and releasing 64 %s frames: %v allocations, want 0", p.Kind, a)
		}
		q, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if q.Kind != p.Kind || !bytes.Equal(q.Payload, p.Payload) {
			t.Errorf("%s frame decoded to (%s, %x)", p.Kind, q.Kind, q.Payload)
		}
		if &q.Payload[0] == &frame[hdrBase] {
			t.Errorf("%s payload aliases the frame", p.Kind)
		}
	}
}

// wireOf returns the bytes TCPChannel puts on the wire for p. It sends a
// copy: a control packet is the channel's once sent.
func wireOf(t testing.TB, p *packet.Packet) []byte {
	t.Helper()
	conn := &scriptedConn{sink: new(bytes.Buffer)}
	if err := NewTCPChannel(conn).Send(p.Clone()); err != nil {
		t.Fatal(err)
	}
	return conn.sink.Bytes()
}

// TestBufferedWireFormatMatchesEncodeFrame pins the header writer to
// the codec it no longer calls: length prefix, then EncodeFrame's bytes.
func TestBufferedWireFormatMatchesEncodeFrame(t *testing.T) {
	for _, p := range []*packet.Packet{
		{Kind: packet.Data},
		{Kind: packet.Data, Payload: []byte("payload"), Seq: 1<<63 + 5, HasSeq: true},
		packet.NewMarker(packet.MarkerBlock{Channel: 2, Round: 9, Deficit: -7}),
		{Kind: packet.Telemetry, Payload: make([]byte, 300)},
	} {
		if got, want := wireOf(t, p), record(t, p); !bytes.Equal(got, want) {
			t.Errorf("%v: wire %x, want %x", p.Kind, got, want)
		}
	}
}

// TestChannelOwnsAcceptedControlPackets: a control packet a socket
// channel accepts is the channel's, and goes back to the pool as soon as
// its record is copied — through Send, SendBatch or Buffer, over TCP and
// UDP alike. A data packet never does: its payload is its sender's. And
// a packet the channel refused is still the caller's, untouched.
func TestChannelOwnsAcceptedControlPackets(t *testing.T) {
	type sender interface {
		Send(*packet.Packet) error
		SendBatch([]*packet.Packet) (int, error)
		Buffer([]*packet.Packet) (int, error)
	}
	transports := []struct {
		name string
		open func(net.Conn) sender
	}{
		{"TCP", func(c net.Conn) sender { return NewTCPChannel(c) }},
		{"UDP", func(c net.Conn) sender { return newUDPChannel(c) }},
	}
	calls := []struct {
		name string
		hand func(sender, *packet.Packet) error
	}{
		{"Send", func(ch sender, p *packet.Packet) error { return ch.Send(p) }},
		{"SendBatch", func(ch sender, p *packet.Packet) error { _, err := ch.SendBatch([]*packet.Packet{p}); return err }},
		{"Buffer", func(ch sender, p *packet.Packet) error { _, err := ch.Buffer([]*packet.Packet{p}); return err }},
	}
	marker := func() *packet.Packet { return packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 7}) }
	released := func(p *packet.Packet) bool { return p.Kind == packet.Data && len(p.Payload) == 0 }
	intactMarker := func(p *packet.Packet) bool {
		m, err := packet.MarkerOf(p)
		return err == nil && m.Round == 7
	}

	for _, tr := range transports {
		for _, call := range calls {
			ch := tr.open(&scriptedConn{})
			m, d := marker(), packet.NewData([]byte("payload"))
			for _, p := range []*packet.Packet{m, d} {
				if err := call.hand(ch, p); err != nil {
					t.Fatalf("%s %s: %v", tr.name, call.name, err)
				}
			}
			if !released(m) {
				t.Errorf("%s %s: an accepted marker was not released", tr.name, call.name)
			}
			if d.Kind != packet.Data || string(d.Payload) != "payload" {
				t.Errorf("%s %s: an accepted data packet came back as (%v, %q)", tr.name, call.name, d.Kind, d.Payload)
			}
		}

		// A record larger than any buffer forces a write, and the conn
		// fails it: the marker behind it cannot be buffered, and a Send
		// whose write fails has not delivered its packet either.
		ch := tr.open(&scriptedConn{writeErr: io.ErrClosedPipe})
		_, _ = ch.Buffer([]*packet.Packet{packet.NewDataSized(70_000)})
		m := marker()
		if n, err := ch.Buffer([]*packet.Packet{m}); n != 0 || err == nil {
			t.Fatalf("%s: Buffer behind a failed write = (%d, %v), want a refusal", tr.name, n, err)
		}
		if !intactMarker(m) {
			t.Errorf("%s: a marker Buffer refused was released", tr.name)
		}
		m = marker()
		if err := ch.Send(m); err == nil {
			t.Fatalf("%s: Send over a failing conn succeeded", tr.name)
		}
		if !intactMarker(m) {
			t.Errorf("%s: a marker whose Send failed was released", tr.name)
		}
	}
}
