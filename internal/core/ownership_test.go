package core

import (
	"encoding/binary"
	"testing"
	"time"

	"stripe/internal/channel"
	"stripe/internal/netchan"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// Packet ownership at the engines' seams (see internal/packet/pool.go):
// a control packet has one owner at a time and its last owner releases
// it; a data packet is never released by the engines. A released packet
// is recognisable — Release zeroes it and empties its payload — which is
// what these tests look at; none of them reads a clock.

// released reports whether p has been through Release.
func released(p *packet.Packet) bool {
	return len(p.Payload) == 0 && p.Kind == packet.Data && p.ID == 0 && p.Ingress == 0 && p.Seq == 0 && !p.HasSeq
}

// poolSheds reports whether the packet pool itself allocates in this
// process (sync.Pool drops a share of its Puts under -race), in which
// case no allocation count says anything about the code around it.
func poolSheds() bool {
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			packet.Get().Release()
		}
	}) != 0
}

// TestResetPayloadsAreDistinct: Reset broadcasts one packet per channel
// and no two of them share a payload array — each has its own consumer
// to release it, and a shared array would enter the pool twice.
func TestResetPayloadsAreDistinct(t *testing.T) {
	const nch = 4
	g := channel.NewGroup(nch, channel.Impairments{})
	st := mustStriper(t, StriperConfig{Sched: sched.MustSRR(sched.UniformQuanta(nch, 1500)), Channels: g.Senders()})
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	arrays := make(map[*byte]int)
	for c, q := range g.Queues {
		p, ok := q.Recv()
		if !ok || p.Kind != packet.Reset || len(p.Payload) != 8 || binary.BigEndian.Uint64(p.Payload) != st.Epoch() {
			t.Fatalf("channel %d carries %v, want the reset for epoch %d", c, p, st.Epoch())
		}
		if prev, dup := arrays[&p.Payload[0]]; dup {
			t.Errorf("channels %d and %d share one reset payload array", prev, c)
		}
		arrays[&p.Payload[0]] = c
	}
}

// TestControlPathZeroAlloc: in steady state a marker costs no allocation
// end to end. Over sockets the striper builds it in a pooled packet, the
// channel releases it once it has copied the record — a bare TCPChannel,
// or one behind a wrapper that forwards only SendBatch — the reader
// decodes it into a pooled packet, and the resequencer releases that as
// it consumes it. Over in-process lines the pointer itself travels: the
// sender lets go of it (its batch-of-one slot is empty again) and the
// resequencer is the one to release it.
func TestControlPathZeroAlloc(t *testing.T) {
	const nch = 2
	quanta := sched.UniformQuanta(nch, 1500)
	out := make([]*packet.Packet, 8)

	overTCP := func(t *testing.T, wrap func(*netchan.TCPChannel) channel.Sender) {
		senders := make([]channel.Sender, nch)
		readers := make([]*netchan.TCPChannel, nch)
		for c := range senders {
			tx, rx, err := netchan.TCPPair()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			defer rx.Close()
			senders[c], readers[c] = wrap(tx), rx
		}
		st := mustStriper(t, StriperConfig{Sched: sched.MustSRR(quanta), Channels: senders})
		rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
		cycle := func() {
			st.EmitMarkers()
			for c, rx := range readers {
				p, err := rx.ReadPacket(5 * time.Second)
				if err != nil || p == nil || p.Kind != packet.Marker {
					t.Fatalf("channel %d: read (%v, %v), want a marker", c, p, err)
				}
				rs.Arrive(c, p)
				if !released(p) {
					t.Fatalf("channel %d: the resequencer consumed a marker without releasing it", c)
				}
			}
			if n := rs.NextBatch(out); n != 0 {
				t.Fatalf("%d deliveries from markers alone", n)
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if got := rs.Stats().Markers; got != 8*nch {
			t.Fatalf("%d markers consumed, want %d", got, 8*nch)
		}
		if st.ctl[0] != nil {
			t.Fatal("the striper still holds the last control packet it buffered")
		}
		if poolSheds() {
			t.Skip("the packet pool itself allocates here (sync.Pool sheds under -race)")
		}
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("%v allocations per batch of %d markers over TCP, want 0", a, nch)
		}
	}
	t.Run("TCP", func(t *testing.T) {
		overTCP(t, func(tx *netchan.TCPChannel) channel.Sender { return tx })
	})
	t.Run("SendBatchOnlyTCP", func(t *testing.T) {
		overTCP(t, func(tx *netchan.TCPChannel) channel.Sender { return struct{ channel.BatchSender }{tx} })
	})

	t.Run("Queue", func(t *testing.T) {
		g := channel.NewGroup(nch, channel.Impairments{})
		st := mustStriper(t, StriperConfig{Sched: sched.MustSRR(quanta), Channels: g.Senders()})
		rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
		// One quantum-sized packet per channel, so a marker cut behind
		// them is buffered behind data and consumed by the scan rather
		// than at arrival.
		data := []*packet.Packet{packet.NewDataSized(1500), packet.NewDataSized(1500)}
		// round stripes the data (and a marker batch behind it, when
		// asked), moves everything across and delivers; it returns the
		// marker pointers that travelled.
		round := func(cut bool) (markers [nch]*packet.Packet) {
			if n, err := st.SendBatch(data); n != len(data) || err != nil {
				t.Fatalf("SendBatch = (%d, %v)", n, err)
			}
			if cut {
				st.EmitMarkers()
			}
			for c, q := range g.Queues {
				for p, ok := q.Recv(); ok; p, ok = q.Recv() {
					if p.Kind == packet.Marker {
						markers[c] = p
					}
					rs.Arrive(c, p)
				}
			}
			if n := rs.NextBatch(out); n != len(data) {
				t.Fatalf("%d deliveries, want %d", n, len(data))
			}
			return markers
		}
		// The scan stops at the first empty channel, so the last marker
		// waits at the head of its buffer for the next round's scan — a
		// round that builds no control packet, so a released marker is
		// still recognisable (nothing has drawn it from the pool again).
		markers := round(true)
		round(false)
		for c, m := range markers {
			if m == nil || !released(m) {
				t.Fatalf("channel %d: marker %v was not consumed and released by the resequencer", c, m)
			}
		}
		if st.ctl[0] != nil || rs.Buffered() != 0 {
			t.Fatalf("the striper holds %v, the resequencer %d packets; want nothing held", st.ctl[0], rs.Buffered())
		}
		for _, p := range data {
			if released(p) {
				t.Fatal("a delivered data packet was released by the engine")
			}
		}
		for i := 0; i < 8; i++ {
			round(true)
		}
		if poolSheds() {
			t.Skip("the packet pool itself allocates here (sync.Pool sheds under -race)")
		}
		if a := testing.AllocsPerRun(100, func() { round(true) }); a != 0 {
			t.Errorf("%v allocations per batch of %d markers over queues, want 0", a, nch)
		}
	})
}

// TestDiscardedDataIsNotReleased: whatever fate the receiver gives a
// data packet it does not deliver — overflow, an old epoch (at arrival
// or flushed from a buffer by the reset), a removed slot — the packet
// never reaches the pool: its payload may be the application's. A
// control packet dropped the same way does.
func TestDiscardedDataIsNotReleased(t *testing.T) {
	const nch = 2
	quanta := sched.UniformQuanta(nch, 1500)
	newData := func(id uint64) *packet.Packet {
		p := packet.GetSized(300)
		p.ID = id
		return p
	}
	reset := func(epoch uint64) *packet.Packet {
		p := packet.Get()
		p.Kind = packet.Reset
		p.Payload = binary.BigEndian.AppendUint64(p.Payload[:0], epoch)
		return p
	}
	intact := func(t *testing.T, what string, p *packet.Packet, id uint64) {
		t.Helper()
		if released(p) || p.ID != id || len(p.Payload) != 300 {
			t.Errorf("%s: the dropped data packet came back as %v; it must be left alone", what, p)
		}
	}

	t.Run("Overflow", func(t *testing.T) {
		rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical, MaxBuffered: 1})
		// Channel 0 stays silent, so channel 1's arrivals pile up to the
		// hard cap (twice MaxBuffered) and the next ones are dropped.
		rs.Arrive(1, newData(0))
		rs.Arrive(1, newData(1))
		d := newData(2)
		m := packet.NewMarker(packet.MarkerBlock{Channel: 1, Round: 1})
		rs.Arrive(1, d)
		rs.Arrive(1, m)
		if got := rs.Stats().OverflowDrops; got != 2 {
			t.Fatalf("OverflowDrops = %d, want 2", got)
		}
		intact(t, "overflow", d, 2)
		if !released(m) {
			t.Error("overflow: the dropped marker was not released")
		}
	})

	t.Run("OldEpoch", func(t *testing.T) {
		rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
		// Buffered on channel 1 behind a silent channel 0 when the reset
		// lands: flushed as old-epoch traffic.
		buffered := newData(1)
		rs.Arrive(1, buffered)
		rs.Arrive(0, reset(1))
		rs.Next() // the scan applies the reset where it stands in channel 0's stream
		// Still ahead of channel 1's own reset boundary: dropped at arrival.
		late := newData(2)
		rs.Arrive(1, late)
		if got := rs.Stats().OldEpochDrops; got != 2 {
			t.Fatalf("OldEpochDrops = %d, want 2", got)
		}
		intact(t, "flushed by the reset", buffered, 1)
		intact(t, "old epoch at arrival", late, 2)
	})

	t.Run("RemovedSlot", func(t *testing.T) {
		rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
		// A backlog abandoned when the slot retires, then an arrival on
		// the retired slot.
		abandoned := newData(1)
		rs.Arrive(1, abandoned)
		if err := rs.RemoveChannel(1); err != nil {
			t.Fatal(err)
		}
		if err := rs.AddChannel(1, 5); err != nil { // a rejoin retires the draining slot first
			t.Fatal(err)
		}
		if err := rs.RemoveChannel(1); err != nil {
			t.Fatal(err)
		}
		stray := newData(2)
		rs.Arrive(1, stray)
		s := rs.Stats()
		if s.MemberLost != 1 || s.MemberDrops != 1 {
			t.Fatalf("MemberLost = %d, MemberDrops = %d, want 1 and 1", s.MemberLost, s.MemberDrops)
		}
		intact(t, "abandoned at retirement", abandoned, 1)
		intact(t, "arrival on a removed slot", stray, 2)
	})
}
