package core

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// TestAccessorsAndEdgeArrivals covers the observability accessors and
// the defensive edges of Arrive/WaitingOn across modes.
func TestAccessorsAndEdgeArrivals(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{300, 100}),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 1, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{300, 100}), Mode: ModeLogical})

	if st.N() != 2 {
		t.Fatalf("N = %d", st.N())
	}
	var total int64
	for i := 0; i < 40; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
		total += 100
	}
	if st.Round() == 0 {
		t.Fatal("rounds never advanced")
	}
	if st.Stats().DataBytes != total {
		t.Fatalf("SentBytes = %d, want %d", st.Stats().DataBytes, total)
	}
	p0, b0 := st.SentOn(0)
	p1, b1 := st.SentOn(1)
	if b0+b1 != total || p0+p1 != 40 {
		t.Fatalf("per-channel %d/%d bytes %d/%d packets do not sum", b0, b1, p0, p1)
	}
	// 3:1 quanta with uniform packets: channel 0 carries ~3x.
	if p0 < 2*p1 {
		t.Fatalf("split %d:%d not ~3:1", p0, p1)
	}

	// Defensive arrivals: out-of-range channels are dropped silently.
	rs.Arrive(-1, packet.NewDataSized(10))
	rs.Arrive(99, packet.NewDataSized(10))
	got := pumpAll(g, rs)
	if len(got) != 40 {
		t.Fatalf("delivered %d", len(got))
	}
	if rs.DeliveredBytesOn(0)+rs.DeliveredBytesOn(1) != total {
		t.Fatal("DeliveredBytesOn does not sum to the stream size")
	}

	// WaitingOn per mode.
	if w := rs.WaitingOn(); w < 0 || w > 1 {
		t.Fatalf("logical WaitingOn = %d", w)
	}
	rn := mustReseq(t, ResequencerConfig{N: 2, Mode: ModeNone})
	if rn.WaitingOn() != -1 {
		t.Fatal("ModeNone WaitingOn should be -1")
	}
}

// TestSequenceModeControlPackets covers the marker/reset/credit paths
// of the sequence-mode scan and Drain with control residue.
func TestSequenceModeControlPackets(t *testing.T) {
	rs := mustReseq(t, ResequencerConfig{N: 2, Mode: ModeSequence})
	seen := 0
	rs.onGrant = func(int, uint64) { seen++ }

	mk := func(seq uint64) *packet.Packet {
		p := packet.NewDataSized(50)
		p.Seq, p.HasSeq = seq, true
		p.ID = seq
		return p
	}
	rs.Arrive(0, packet.NewMarker(packet.MarkerBlock{Channel: 0, Round: 1}))
	rs.Arrive(0, mk(0))
	rs.Arrive(1, packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 10}))
	rs.Arrive(1, mk(1))
	bad := packet.NewMarker(packet.MarkerBlock{Channel: 1})
	bad.Payload[5] ^= 0xff
	rs.Arrive(1, bad)

	var ids []uint64
	for {
		p, ok := rs.Next()
		if !ok {
			break
		}
		ids = append(ids, p.ID)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("delivered %v", ids)
	}
	if seen != 1 {
		t.Fatalf("marker hook saw %d", seen)
	}
	if rs.Stats().BadMarkers != 1 {
		t.Fatalf("bad markers = %d", rs.Stats().BadMarkers)
	}
	// Unstamped data delivers eagerly.
	rs.Arrive(0, packet.NewDataSized(9))
	if p, ok := rs.Next(); !ok || p.Len() != 9 {
		t.Fatalf("unstamped packet: %v %v", p, ok)
	}
	// Drain with only control packets buffered.
	rs.Arrive(0, packet.NewCredit(packet.CreditBlock{Channel: 0, Grant: 1}))
	rs.Arrive(1, packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 1}))
	if out := rs.Drain(); len(out) != 0 {
		t.Fatalf("Drain yielded %d from control-only buffers", len(out))
	}
	if rs.Buffered() != 0 {
		t.Fatalf("Drain left %d buffered", rs.Buffered())
	}
}

// TestResetEpochShortPayload covers resetEpoch's defensive branch.
func TestResetEpochShortPayload(t *testing.T) {
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{100, 100}), Mode: ModeLogical})
	// A malformed reset (short payload) decodes as epoch 0 and is
	// treated as stale; nothing breaks.
	rs.Arrive(0, &packet.Packet{Kind: packet.Reset, Payload: []byte{1, 2}})
	rs.Arrive(0, func() *packet.Packet { p := packet.NewDataSized(100); p.ID = 0; return p }())
	rs.Arrive(1, func() *packet.Packet { p := packet.NewDataSized(100); p.ID = 1; return p }())
	var ids []uint64
	for {
		p, ok := rs.Next()
		if !ok {
			break
		}
		ids = append(ids, p.ID)
	}
	if len(ids) != 2 || rs.Stats().Resets != 0 {
		t.Fatalf("short reset mishandled: ids=%v stats=%+v", ids, rs.Stats())
	}
}

// TestCausalModeMarkersIgnoredButObserved covers nextCausal's control
// branches: markers and credits on a causal receiver are consumed
// without touching the simulation.
func TestCausalModeMarkersIgnoredButObserved(t *testing.T) {
	rx, _ := sched.NewRFQ([]int64{1, 1}, 5)
	tx, _ := sched.NewRFQ([]int64{1, 1}, 5)
	seen := 0
	rs, err := NewResequencer(ResequencerConfig{
		Mode:        ModeLogical,
		CausalSched: rx,
		OnGrant:     func(int, uint64) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	g := channel.NewGroup(2, channel.Impairments{})
	st := mustStriper(t, StriperConfig{CausalSched: tx, Channels: g.Senders()})
	for i := 0; i < 6; i++ {
		if err := st.Send(packet.NewDataSized(80)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject control traffic mid-stream on both channels.
	rs.Arrive(0, packet.NewMarker(packet.MarkerBlock{Channel: 0, Round: 3}))
	rs.Arrive(1, packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 9}))
	bad := packet.NewMarker(packet.MarkerBlock{Channel: 0})
	bad.Payload[6] ^= 0x01
	rs.Arrive(0, bad)
	got := pumpAll(g, rs)
	if len(got) != 6 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, p := range got {
		if p.ID != uint64(i) {
			t.Fatalf("causal order broken at %d", i)
		}
	}
	if seen != 1 || rs.Stats().BadMarkers != 1 {
		t.Fatalf("marker accounting: seen=%d stats=%+v", seen, rs.Stats())
	}
}
