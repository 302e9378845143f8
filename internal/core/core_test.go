package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// dropSender drops specific packets by ingress ID, for deterministic
// loss placement in walkthrough tests.
type dropSender struct {
	inner channel.Sender
	drop  map[uint64]bool
}

func (d *dropSender) Send(p *packet.Packet) error {
	if p.Kind == packet.Data && d.drop[p.ID] {
		return nil
	}
	return d.inner.Send(p)
}

func mustStriper(t *testing.T, cfg StriperConfig) *Striper {
	t.Helper()
	st, err := NewStriper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustReseq(t *testing.T, cfg ResequencerConfig) *Resequencer {
	t.Helper()
	r, err := NewResequencer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pumpAll moves every queued packet from the channels into the
// resequencer and returns all deliveries that unblock.
func pumpAll(g *channel.Group, r *Resequencer) []*packet.Packet {
	var out []*packet.Packet
	for {
		moved := false
		for c, q := range g.Queues {
			if p, ok := q.Recv(); ok {
				r.Arrive(c, p)
				moved = true
			}
		}
		for {
			p, ok := r.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		if !moved {
			return out
		}
	}
}

// TestMarkerWalkthroughFigures8to13 reproduces the Section 5
// walkthrough exactly: two equal channels, packet size == quantum (so
// SRR reduces to RR), packets numbered 1..18 in the paper (0..17 here),
// the paper's packet 7 (our ID 6) lost, and a marker batch cut before
// the paper's round 7 (our round 6) carrying G=7 (our Round=6).
//
// The expected delivery sequence shows all three phases: in-order
// delivery before the loss, persistent misordering after it, and full
// restoration of FIFO delivery from the marker onward (Figure 13).
func TestMarkerWalkthroughFigures8to13(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	senders := g.Senders()
	senders[0] = &dropSender{inner: senders[0], drop: map[uint64]bool{6: true}}

	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 6, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR([]int64{100, 100}),
		Mode:  ModeLogical,
	})

	for i := 0; i < 18; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Markers != 2 {
		t.Fatalf("sent %d markers, want 2 (one per channel)", st.Stats().Markers)
	}

	got := pumpAll(g, rs)
	want := []uint64{0, 1, 2, 3, 4, 5, 8, 7, 10, 9, 11, 12, 13, 14, 15, 16, 17}
	if len(got) != len(want) {
		ids := make([]uint64, len(got))
		for i, p := range got {
			ids[i] = p.ID
		}
		t.Fatalf("delivered %d packets %v, want %d", len(got), ids, len(want))
	}
	for i, p := range got {
		if p.ID != want[i] {
			ids := make([]uint64, len(got))
			for j, q := range got {
				ids[j] = q.ID
			}
			t.Fatalf("delivery sequence %v, want %v", ids, want)
		}
	}
	s := rs.Stats()
	if s.Markers != 2 {
		t.Fatalf("receiver consumed %d markers, want 2", s.Markers)
	}
	if s.Resyncs == 0 {
		t.Fatal("marker did not trigger a resynchronization")
	}
}

// TestTheorem41FIFOWithoutLoss is Theorem 4.1 as a property test: with
// no loss, any SRR striper paired with a logical-reception receiver
// built from the same automaton delivers exactly the sent sequence,
// regardless of quanta, packet sizes, and arrival interleaving.
func TestTheorem41FIFOWithoutLoss(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nch := 2 + rng.Intn(6)
		quanta := make([]int64, nch)
		for i := range quanta {
			quanta[i] = int64(200 + rng.Intn(3000))
		}
		g := channel.NewGroup(nch, channel.Impairments{})
		st, err := NewStriper(StriperConfig{
			Sched:    sched.MustSRR(quanta),
			Channels: g.Senders(),
			Markers:  MarkerPolicy{Every: 1 + uint64(rng.Intn(5)), Position: rng.Intn(nch)},
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewResequencer(ResequencerConfig{
			Sched: sched.MustSRR(quanta),
			Mode:  ModeLogical,
		})
		if err != nil {
			t.Fatal(err)
		}

		n := 200 + rng.Intn(600)
		var delivered []*packet.Packet
		for i := 0; i < n; i++ {
			if err := st.Send(packet.NewDataSized(1 + rng.Intn(1500))); err != nil {
				t.Fatal(err)
			}
			// Interleave arrivals irregularly to exercise buffering: move
			// a random number of packets from random channels.
			for k := 0; k < rng.Intn(4); k++ {
				c := rng.Intn(nch)
				if p, ok := g.Queues[c].Recv(); ok {
					rs.Arrive(c, p)
				}
			}
			for {
				p, ok := rs.Next()
				if !ok {
					break
				}
				delivered = append(delivered, p)
			}
		}
		delivered = append(delivered, pumpAll(g, rs)...)
		if len(delivered) != n {
			return false
		}
		for i, p := range delivered {
			if p.ID != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem51MarkerRecovery is the Theorem 5.1 property: under heavy
// random loss (up to 80%), once losses stop and a marker has been
// delivered on every channel, delivery is FIFO from that point on, and
// no post-recovery packet is missing.
func TestTheorem51MarkerRecovery(t *testing.T) {
	for _, lossPct := range []float64{0.1, 0.3, 0.5, 0.8} {
		lossPct := lossPct
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(lossPct * 1000)))
			const nch = 3
			quanta := []int64{1500, 1500, 1500}
			g := channel.NewGroup(nch, channel.Impairments{})

			// Lossy prefix: drop each of the first `lossyCount` data
			// packets with probability lossPct.
			const lossyCount = 600
			const total = 1200
			drop := map[uint64]bool{}
			for i := uint64(0); i < lossyCount; i++ {
				if rng.Float64() < lossPct {
					drop[i] = true
				}
			}
			senders := g.Senders()
			for i := range senders {
				senders[i] = &dropSender{inner: senders[i], drop: drop}
			}

			st := mustStriper(t, StriperConfig{
				Sched:    sched.MustSRR(quanta),
				Channels: senders,
				Markers:  MarkerPolicy{Every: 4, Position: 0},
			})
			rs := mustReseq(t, ResequencerConfig{
				Sched: sched.MustSRR(quanta),
				Mode:  ModeLogical,
			})

			var delivered []*packet.Packet
			for i := 0; i < total; i++ {
				if err := st.Send(packet.NewDataSized(100 + rng.Intn(1400))); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 2; k++ {
					c := rng.Intn(nch)
					if p, ok := g.Queues[c].Recv(); ok {
						rs.Arrive(c, p)
					}
				}
				for {
					p, ok := rs.Next()
					if !ok {
						break
					}
					delivered = append(delivered, p)
				}
			}
			delivered = append(delivered, pumpAll(g, rs)...)
			delivered = append(delivered, rs.Drain()...)

			// Recovery must complete within a couple of marker periods
			// after the loss stops. The marker period here is 4 rounds ~=
			// 12+ packets; give it a generous margin of 100 packets.
			const recoveredBy = lossyCount + 100
			var tail []uint64
			for _, p := range delivered {
				if p.ID >= recoveredBy {
					tail = append(tail, p.ID)
				}
			}
			if len(tail) != total-recoveredBy {
				t.Fatalf("loss %.0f%%: %d post-recovery packets delivered, want %d",
					lossPct*100, len(tail), total-recoveredBy)
			}
			for i := 1; i < len(tail); i++ {
				if tail[i] != tail[i-1]+1 {
					t.Fatalf("loss %.0f%%: post-recovery delivery out of order: %d after %d",
						lossPct*100, tail[i], tail[i-1])
				}
			}
			if rs.Stats().Resyncs == 0 && lossPct > 0 && len(drop) > 0 {
				t.Fatalf("loss %.0f%%: no resynchronizations recorded", lossPct*100)
			}
		})
	}
}

// TestModeNoneArrivalOrder checks the no-resequencing baseline.
func TestModeNoneArrivalOrder(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 2, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{N: 2, Mode: ModeNone})
	for i := 0; i < 10; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain channel 1 first: ModeNone must deliver in arrival order,
	// i.e. all odd IDs then all even IDs.
	var got []uint64
	for _, c := range []int{1, 0} {
		for {
			p, ok := g.Queues[c].Recv()
			if !ok {
				break
			}
			rs.Arrive(c, p)
		}
	}
	for {
		p, ok := rs.Next()
		if !ok {
			break
		}
		got = append(got, p.ID)
	}
	want := []uint64{1, 3, 5, 7, 9, 0, 2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("delivered %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if rs.Stats().Markers == 0 {
		t.Fatal("ModeNone did not consume markers")
	}
}

// TestModeSequenceGuaranteedFIFO checks the "with header" variant:
// exact FIFO despite adversarial arrival interleaving, and gap skipping
// after loss.
func TestModeSequenceGuaranteedFIFO(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	senders := g.Senders()
	senders[0] = &dropSender{inner: senders[0], drop: map[uint64]bool{4: true}}
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: senders,
		AddSeq:   true,
	})
	rs := mustReseq(t, ResequencerConfig{N: 2, Mode: ModeSequence})
	for i := 0; i < 12; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	got := pumpAll(g, rs)
	got = append(got, rs.Drain()...)
	want := []uint64{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11} // 4 lost, order exact
	if len(got) != len(want) {
		ids := make([]uint64, len(got))
		for i, p := range got {
			ids[i] = p.ID
		}
		t.Fatalf("delivered %v, want %v", ids, want)
	}
	for i, p := range got {
		if p.ID != want[i] {
			t.Fatalf("delivery %d = %d, want %d", i, p.ID, want[i])
		}
	}
}

// TestLogicalReceptionEqualsFairQueuing cross-checks Section 4's core
// claim at the code level: feeding the striper's channel outputs into
// the sched.FQ engine (the forward direction) produces the same sequence
// as the Resequencer's logical reception.
func TestLogicalReceptionEqualsFairQueuing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	quanta := []int64{900, 2100, 1300}
	g := channel.NewGroup(3, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
	})
	const n = 400
	for i := 0; i < n; i++ {
		if err := st.Send(packet.NewDataSized(1 + rng.Intn(1500))); err != nil {
			t.Fatal(err)
		}
	}

	// Copy channel contents for both consumers.
	perChannel := make([][]*packet.Packet, 3)
	for c, q := range g.Queues {
		for {
			p, ok := q.Recv()
			if !ok {
				break
			}
			perChannel[c] = append(perChannel[c], p)
		}
	}

	fq := sched.NewFQ(sched.MustSRR(quanta))
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
	for c, pkts := range perChannel {
		for _, p := range pkts {
			fq.Enqueue(c, p)
			rs.Arrive(c, p)
		}
	}
	fqOut := fq.DrainBacklogged()
	var lrOut []*packet.Packet
	for {
		p, ok := rs.Next()
		if !ok {
			break
		}
		lrOut = append(lrOut, p)
	}
	if len(fqOut) != n || len(lrOut) != n {
		t.Fatalf("fq delivered %d, logical reception %d, want %d", len(fqOut), len(lrOut), n)
	}
	for i := range fqOut {
		if fqOut[i].ID != lrOut[i].ID {
			t.Fatalf("position %d: FQ %d vs logical reception %d", i, fqOut[i].ID, lrOut[i].ID)
		}
	}
}

// TestResetRecovery checks epoch reset: after a reset both ends restart
// from s0 and old-epoch traffic in flight is discarded.
func TestResetRecovery(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: g.Senders(),
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{100, 100}), Mode: ModeLogical})

	for i := 0; i < 7; i++ { // odd count: sender state is mid-round
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	// Old-epoch traffic never reaches the receiver (crash scenario):
	// drop it from the channels.
	for _, q := range g.Queues {
		for {
			if _, ok := q.Recv(); !ok {
				break
			}
		}
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch())
	}
	for i := 0; i < 8; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	got := pumpAll(g, rs)
	if len(got) != 8 {
		t.Fatalf("delivered %d packets after reset, want 8", len(got))
	}
	for i, p := range got {
		if p.ID != uint64(7+i) {
			t.Fatalf("delivery %d = ID %d, want %d", i, p.ID, 7+i)
		}
	}
	if rs.Stats().Resets != 1 {
		t.Fatalf("resets = %d, want 1", rs.Stats().Resets)
	}
}

// TestResetDiscardsBufferedOldEpoch checks that packets already buffered
// at the receiver are flushed by a reset.
func TestResetDiscardsBufferedOldEpoch(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: g.Senders(),
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{100, 100}), Mode: ModeLogical})

	for i := 0; i < 6; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer channel 1's packets at the receiver but lose channel 0's,
	// so the receiver is desynchronized and blocked.
	for {
		p, ok := g.Queues[1].Recv()
		if !ok {
			break
		}
		rs.Arrive(1, p)
	}
	for {
		if _, ok := g.Queues[0].Recv(); !ok {
			break
		}
	}
	if p, ok := rs.Next(); ok {
		t.Fatalf("unexpected delivery %v before reset", p)
	}

	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	got := pumpAll(g, rs)
	if len(got) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(got))
	}
	for i, p := range got {
		if p.ID != uint64(6+i) {
			t.Fatalf("delivery %d = ID %d, want %d", i, p.ID, 6+i)
		}
	}
	if drops := rs.Stats().OldEpochDrops; drops == 0 {
		t.Fatal("no old-epoch packets were discarded")
	}
}

// TestStriperConfigValidation covers constructor errors.
func TestStriperConfigValidation(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	if _, err := NewStriper(StriperConfig{Channels: g.Senders()}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewStriper(StriperConfig{Sched: sched.MustSRR([]int64{1, 2, 3}), Channels: g.Senders()}); err == nil {
		t.Error("channel count mismatch accepted")
	}
	if _, err := NewStriper(StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 1, Position: 5},
	}); err == nil {
		t.Error("out-of-range marker position accepted")
	}
	if _, err := NewResequencer(ResequencerConfig{Mode: ModeLogical}); err == nil {
		t.Error("ModeLogical without scheduler accepted")
	}
	if _, err := NewResequencer(ResequencerConfig{Mode: ModeNone}); err == nil {
		t.Error("ModeNone without channel count accepted")
	}
}

// TestCorruptMarkerIgnored checks that a corrupted marker is discarded
// (detectable corruption) rather than poisoning the receiver state.
func TestCorruptMarkerIgnored(t *testing.T) {
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{100, 100}), Mode: ModeLogical})
	m := packet.NewMarker(packet.MarkerBlock{Channel: 0, Round: 99, Deficit: 5})
	m.Payload[8] ^= 0xff // corrupt the round field; CRC now fails
	rs.Arrive(0, m)
	rs.Arrive(0, func() *packet.Packet { p := packet.NewDataSized(100); p.ID = 0; return p }())
	rs.Arrive(1, func() *packet.Packet { p := packet.NewDataSized(100); p.ID = 1; return p }())
	var got []uint64
	for {
		p, ok := rs.Next()
		if !ok {
			break
		}
		got = append(got, p.ID)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("delivered %v, want [0 1]", got)
	}
	if rs.Stats().BadMarkers != 1 {
		t.Fatalf("BadMarkers = %d, want 1", rs.Stats().BadMarkers)
	}
	if rs.Stats().Resyncs != 0 {
		t.Fatalf("corrupt marker changed state: %d resyncs", rs.Stats().Resyncs)
	}
}

// TestStriperGate checks flow-control gating: a vetoed send leaves the
// scheduler untouched so the retry targets the same channel.
type fixedGate struct {
	admit   bool
	consume int
}

func (g *fixedGate) Admit(int, int) bool { return g.admit }
func (g *fixedGate) Consume(int, int)    { g.consume++ }

// Remaining mirrors Admit: everything or nothing.
func (g *fixedGate) Remaining(int) int64 {
	if g.admit {
		return math.MaxInt64
	}
	return 0
}

func TestStriperGate(t *testing.T) {
	grp := channel.NewGroup(2, channel.Impairments{})
	gate := &fixedGate{admit: false}
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100}),
		Channels: grp.Senders(),
		Gate:     gate,
	})
	p := packet.NewDataSized(100)
	if err := st.Send(p); err != ErrGated {
		t.Fatalf("Send = %v, want ErrGated", err)
	}
	if st.Stats().DataPackets != 0 {
		t.Fatal("gated send was counted")
	}
	gate.admit = true
	if err := st.Send(p); err != nil {
		t.Fatal(err)
	}
	if gate.consume != 1 {
		t.Fatalf("consume = %d, want 1", gate.consume)
	}
	if got := grp.Queues[0].Len(); got != 1 {
		t.Fatalf("channel 0 has %d packets, want 1 (retry must reuse the selection)", got)
	}
}

// TestDrainFlushesTail checks end-of-stream draining in logical mode.
func TestDrainFlushesTail(t *testing.T) {
	g := channel.NewGroup(3, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR([]int64{100, 100, 100}),
		Channels: g.Senders(),
	})
	for i := 0; i < 7; i++ { // not a multiple of 3: tail blocks mid-round
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR([]int64{100, 100, 100}), Mode: ModeLogical})
	got := pumpAll(g, rs)
	got = append(got, rs.Drain()...)
	if len(got) != 7 {
		t.Fatalf("delivered %d, want 7", len(got))
	}
	for i, p := range got {
		if p.ID != uint64(i) {
			t.Fatalf("delivery %d = %d", i, p.ID)
		}
	}
	if rs.Buffered() != 0 {
		t.Fatalf("Drain left %d packets buffered", rs.Buffered())
	}
}
