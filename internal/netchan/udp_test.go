package netchan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"stripe/internal/packet"
)

// These tests drive UDPChannel over a scriptedConn: every Write is one
// datagram out (counted, and kept when the conn has a sink), every
// scripted step one datagram in. Counts, not timings.

func smallPackets(n, size int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pl := make([]byte, size)
		binary.BigEndian.PutUint32(pl, uint32(i))
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: pl}
	}
	return pkts
}

// datagrams cuts the conn's sink back into the datagrams written.
func datagrams(conn *scriptedConn) [][]byte {
	var out [][]byte
	b := conn.sink.Bytes()
	for _, n := range conn.wrote {
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// readBack feeds datagrams to a fresh channel and returns every packet
// they hold, failing on any read error.
func readBack(t *testing.T, grams [][]byte) []*packet.Packet {
	t.Helper()
	conn := &scriptedConn{}
	for _, g := range grams {
		conn.steps = append(conn.steps, scriptStep{data: g})
	}
	conn.steps = append(conn.steps, scriptStep{timeout: true})
	ch := newUDPChannel(conn)
	var out []*packet.Packet
	for {
		p, err := ch.ReadPacket(time.Second)
		if err != nil {
			t.Fatalf("packet %d: %v", len(out), err)
		}
		if p == nil {
			return out
		}
		out = append(out, p)
	}
}

// TestUDPRunSharesOneDatagram: a service run of small packets and the
// marker behind it, buffered in two calls as the striper does, cross
// the conn in one write, and all of them come out the other end.
func TestUDPRunSharesOneDatagram(t *testing.T) {
	conn := &scriptedConn{sink: new(bytes.Buffer)}
	ch := newUDPChannel(conn)
	run := smallPackets(5, 256) // a 1500 B quantum of 256 B packets, overdraft included
	marker := packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 7})
	if n, err := ch.Buffer(run); n != len(run) || err != nil {
		t.Fatalf("Buffer(run) = (%d, %v)", n, err)
	}
	if n, err := ch.Buffer([]*packet.Packet{marker}); n != 1 || err != nil {
		t.Fatalf("Buffer(marker) = (%d, %v)", n, err)
	}
	if conn.writes != 0 {
		t.Fatalf("Buffer wrote %d datagrams before Flush", conn.writes)
	}
	if err := ch.Flush(); err != nil || conn.writes != 1 {
		t.Fatalf("Flush: err %v, %d writes for one run and its marker, want 1", err, conn.writes)
	}
	if err := ch.Flush(); err != nil || conn.writes != 1 {
		t.Fatalf("empty Flush: err %v, %d writes, want still 1", err, conn.writes)
	}
	got := readBack(t, datagrams(conn))
	if len(got) != len(run)+1 {
		t.Fatalf("%d packets out of the datagram, want %d", len(got), len(run)+1)
	}
	for i, p := range got[:len(run)] {
		if p.Kind != packet.Data || !bytes.Equal(p.Payload, run[i].Payload) {
			t.Fatalf("packet %d came out as %v %x", i, p.Kind, p.Payload[:4])
		}
	}
	if m, err := packet.MarkerOf(got[len(run)]); err != nil || m.Round != 7 {
		t.Fatalf("marker came out as (%+v, %v)", m, err)
	}
	// Send is the degenerate case: one record, one datagram, each time.
	for i := 0; i < 3; i++ {
		if err := ch.Send(run[i]); err != nil || conn.writes != 2+i {
			t.Fatalf("Send %d: err %v, %d writes", i, err, conn.writes)
		}
	}
}

// TestUDPOversizeRecordTravelsAlone: a record larger than the budget is
// neither split nor allowed to drag its neighbours past the budget — it
// gets a datagram of its own, in order.
func TestUDPOversizeRecordTravelsAlone(t *testing.T) {
	conn := &scriptedConn{sink: new(bytes.Buffer)}
	ch := newUDPChannel(conn)
	small, big := smallPackets(2, 100), smallPackets(1, 4000)[0]
	pkts := []*packet.Packet{small[0], big, small[1]}
	if n, err := ch.SendBatch(pkts); n != 3 || err != nil {
		t.Fatalf("SendBatch = (%d, %v)", n, err)
	}
	grams := datagrams(conn)
	if len(grams) != 3 {
		t.Fatalf("%d datagrams, want 3 (small, oversize alone, small)", len(grams))
	}
	if want := recordLn + hdrBase + 4000; len(grams[1]) != want {
		t.Fatalf("oversize datagram is %d bytes, want its one record's %d", len(grams[1]), want)
	}
	got := readBack(t, grams)
	for i, p := range got {
		if !bytes.Equal(p.Payload, pkts[i].Payload) {
			t.Fatalf("packet %d reordered or damaged", i)
		}
	}
}

// TestUDPBudgetSplitKeepsRecordsWhole: a batch longer than one budget
// goes out as several datagrams, none over the budget, each a whole
// number of records — so each parses on its own, in any order, and
// losing one loses only the packets inside it.
func TestUDPBudgetSplitKeepsRecordsWhole(t *testing.T) {
	conn := &scriptedConn{sink: new(bytes.Buffer)}
	ch := newUDPChannel(conn)
	pkts := smallPackets(40, 300)
	if n, err := ch.SendBatch(pkts); n != len(pkts) || err != nil {
		t.Fatalf("SendBatch = (%d, %v)", n, err)
	}
	grams := datagrams(conn)
	perGram := udpBudget / (recordLn + hdrBase + 300)
	if want := (len(pkts) + perGram - 1) / perGram; len(grams) != want {
		t.Fatalf("%d datagrams for %d packets, want %d (%d records each)", len(grams), len(pkts), want, perGram)
	}
	next := uint32(0)
	for i, g := range grams {
		if len(g) > udpBudget {
			t.Fatalf("datagram %d is %d bytes, over the %d budget", i, len(g), udpBudget)
		}
		for _, p := range readBack(t, [][]byte{g}) { // alone: no state from its neighbours
			if got := binary.BigEndian.Uint32(p.Payload); got != next {
				t.Fatalf("datagram %d yielded packet %d, want %d", i, got, next)
			}
			next++
		}
	}
	if int(next) != len(pkts) {
		t.Fatalf("%d packets out, want %d", next, len(pkts))
	}
}

// TestUDPBadDatagramDoesNotPoisonTheNext: a record length that runs
// past the datagram, or a prefix cut short, is an error for that
// datagram — reported once, after the whole records before it — and the
// next datagram parses from its first byte.
func TestUDPBadDatagramDoesNotPoisonTheNext(t *testing.T) {
	good := record(t, &packet.Packet{Kind: packet.Data, Payload: []byte("good")})
	overlong := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(overlong, uint32(len(good))) // claims more than is there
	huge := append([]byte{0xff, 0xff, 0xff, 0xff}, good...)
	for name, bad := range map[string][]byte{
		"truncated record": append(append([]byte(nil), good...), good[:len(good)-1]...),
		"truncated prefix": append(append([]byte(nil), good...), 0, 0),
		"over-long length": append(append([]byte(nil), good...), overlong...),
		"length over max":  append(append([]byte(nil), good...), huge...),
	} {
		ch := newUDPChannel(&scriptedConn{steps: []scriptStep{{data: bad}, {data: good}, {timeout: true}}})
		if p, err := ch.ReadPacket(time.Second); err != nil || p == nil || string(p.Payload) != "good" {
			t.Fatalf("%s: whole record before the damage: (%v, %v)", name, p, err)
		}
		if p, err := ch.ReadPacket(time.Second); err == nil {
			t.Fatalf("%s: damaged record read as %+v", name, p)
		}
		if p, err := ch.ReadPacket(time.Second); err != nil || p == nil || string(p.Payload) != "good" {
			t.Fatalf("%s: next datagram: (%v, %v)", name, p, err)
		}
		if p, err := ch.ReadPacket(time.Second); p != nil || err != nil {
			t.Fatalf("%s: idle read: (%v, %v)", name, p, err)
		}
	}
	if _, _, err := splitRecord(huge); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("length over MaxFrame: %v, want ErrFrameTooBig", err)
	}
}

// TestUDPDeadlineArmedPerDatagram: the read deadline is touched by the
// call that reads a datagram and by no call served from one, and a
// deadline left armed is cleared before a wait that is to last forever.
func TestUDPDeadlineArmedPerDatagram(t *testing.T) {
	gram := dataRecords(t, 5)
	conn := &scriptedConn{steps: []scriptStep{{data: gram}, {data: gram}, {data: gram}}}
	ch := newUDPChannel(conn)
	for i, timeout := range []time.Duration{time.Second, 0, 0} {
		for j := 0; j < 5; j++ {
			p, err := ch.ReadPacket(timeout)
			if err != nil || p == nil || p.Seq != uint64(j) {
				t.Fatalf("datagram %d record %d: (%+v, %v)", i, j, p, err)
			}
			p.Release()
		}
	}
	if got, want := strings.Join(conn.log, " "), "arm read clear read read"; got != want {
		t.Fatalf("conn saw %q, want %q", got, want)
	}
}

// TestUDPReadZeroAlloc: reading a datagram and serving its records
// allocates nothing once the pool is warm — no per-datagram address, no
// per-record buffer.
func TestUDPReadZeroAlloc(t *testing.T) {
	gram := dataRecords(t, 5)
	conn := &scriptedConn{}
	ch := newUDPChannel(conn)
	step := []scriptStep{{data: gram}}
	read := func() {
		conn.steps, conn.log = step, conn.log[:0]
		for j := 0; j < 5; j++ {
			p, err := ch.ReadPacket(time.Second)
			if err != nil || p == nil {
				t.Fatalf("record %d: (%v, %v)", j, p, err)
			}
			p.Release()
		}
	}
	read() // warm the pool and the conn's log
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			packet.Get().Release()
		}
	}); a != 0 {
		t.Skipf("the packet pool itself allocates here (%v per 8 cycles; sync.Pool sheds under -race), so the channel's share cannot be told apart", a)
	}
	if a := testing.AllocsPerRun(100, read); a != 0 {
		t.Errorf("%v allocs per 5-record datagram, want 0", a)
	}
}

// TestUDPSendZeroAlloc: the UDP write path allocates nothing either.
func TestUDPSendZeroAlloc(t *testing.T) {
	ch := newUDPChannel(&scriptedConn{})
	pkts := testBatch(16, true)
	if a := testing.AllocsPerRun(100, func() { ch.SendBatch(pkts) }); a != 0 {
		t.Errorf("SendBatch: %v allocs per 16-packet batch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { ch.Send(pkts[0]) }); a != 0 {
		t.Errorf("Send: %v allocs per packet, want 0", a)
	}
}

// TestUDPSocketRunSharesOneDatagram is the same count over real
// loopback sockets: five buffered records arrive with one socket read.
func TestUDPSocketRunSharesOneDatagram(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := smallPackets(5, 256)
	if n, err := send.Buffer(pkts); n != len(pkts) || err != nil {
		t.Fatalf("Buffer = (%d, %v)", n, err)
	}
	if err := send.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, err := recv.ReadPacket(2 * time.Second); err != nil || p == nil {
		t.Fatalf("first record: (%v, %v)", p, err)
	}
	// The rest are already in the channel: no datagram is left to wait for.
	if got, want := len(recv.rest), 4*(recordLn+hdrBase+256); got != want {
		t.Fatalf("%d bytes of records pending after the first, want %d: the run did not share a datagram", got, want)
	}
	for i := 1; i < len(pkts); i++ {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil || binary.BigEndian.Uint32(p.Payload) != uint32(i) {
			t.Fatalf("record %d: (%v, %v)", i, p, err)
		}
	}
}
