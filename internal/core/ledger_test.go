package core

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// TestConservationAcrossFaults drives one striper/resequencer pair
// through every way a received packet can end — in-flight loss and
// marker resync, hard-cap overflow, an epoch reset, a graceful removal,
// a dead-link removal, a rejoin, and injected corrupt, foreign and
// unknown control traffic — with the conservation check evaluated at
// every flush. Every fate must have a name on every channel at every
// flush, and the script must actually have exercised the named drops.
func TestConservationAcrossFaults(t *testing.T) {
	const nch = 3
	quanta := sched.UniformQuanta(nch, 100)
	g := channel.NewGroup(nch, channel.Impairments{})
	col := obs.NewCollector(nch)
	k := obs.NewChecker()
	k.OnViolation = func(v obs.Violation) { t.Errorf("%v", v) }
	col.SetChecker(k)

	senders := g.Senders()
	senders[0] = &dropSender{inner: senders[0], drop: map[uint64]bool{6: true, 9: true}}
	kill := &killSender{inner: senders[2]}
	senders[2] = kill
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 3, Position: 0},
		Obs:      col,
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched:       sched.MustSRR(quanta),
		Mode:        ModeLogical,
		MaxBuffered: 4,
		Obs:         col,
	})

	// Loss and marker resync.
	sendN(t, st, 30)
	pumpAll(g, rs)

	// Overflow: arrivals pile up undelivered past twice the cap.
	sendN(t, st, 30)
	for c := range g.Queues {
		arriveAll(g, rs, c)
	}
	pumpAll(g, rs)

	// Injected control traffic: corrupt marker, mis-addressed marker,
	// corrupt and foreign member blocks, corrupt telemetry, a stray
	// credit, an unknown codepoint.
	bad := packet.NewMarker(packet.MarkerBlock{Channel: 0})
	bad.Payload[8] ^= 0xff
	rs.Arrive(0, bad)
	rs.Arrive(0, packet.NewMarker(packet.MarkerBlock{Channel: 1}))
	badMember := packet.NewMember(packet.MemberBlock{Seq: 99, N: nch, Active: 7})
	badMember.Payload[len(badMember.Payload)-1] ^= 0xff
	rs.Arrive(1, badMember)
	rs.Arrive(1, packet.NewMember(packet.MemberBlock{Seq: 99, N: nch + 1, Active: 7}))
	badTelemetry := packet.NewTelemetry(packet.TelemetryBlock{Seq: 1})
	badTelemetry.Payload[len(badTelemetry.Payload)-1] ^= 0xff
	rs.Arrive(1, badTelemetry)
	rs.Arrive(1, packet.NewTelemetry(rs.TelemetryBlock()))
	rs.Arrive(1, packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 1}))
	rs.Arrive(2, &packet.Packet{Kind: packet.Telemetry + 1, Payload: []byte{1}})
	pumpAll(g, rs)

	// Reset with old-epoch traffic still in flight on the other channels.
	sendN(t, st, 9)
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 9)
	arriveAll(g, rs, 0) // channel 0's reset lands first; the others still carry the old epoch
	pumpAll(g, rs)

	// Graceful removal and rejoin of channel 1.
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 9)
	pumpAll(g, rs)
	if _, err := st.AddChannel(1, nil); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 12)
	pumpAll(g, rs)

	// Flap-back: channel 1 is removed and re-added so quickly that the
	// receiver learns both from channel 2 while channel 1's tail is
	// buffered and undelivered; the rejoin retires the old incarnation
	// and declares that tail lost.
	sendN(t, st, 6)
	arriveAll(g, rs, 1)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddChannel(1, nil); err != nil {
		t.Fatal(err)
	}
	arriveAll(g, rs, 2)
	sendN(t, st, 12)
	pumpAll(g, rs)

	// Channel 2 is declared dead locally, and late traffic still lands on
	// the removed slot.
	sendN(t, st, 6)
	kill.dead = true
	if err := rs.RemoveChannel(2); err != nil {
		t.Fatal(err)
	}
	kill.dead = false
	sendN(t, st, 6)
	pumpAll(g, rs)
	rs.Drain()

	s := rs.Stats() // flushes, so the final state is checked too
	if n := k.ViolationCount(); n != 0 {
		t.Fatalf("%d conservation violations", n)
	}
	for c := range s.PerChannel {
		if gap := s.PerChannel[c].Unaccounted(); gap != 0 {
			t.Errorf("channel %d: %d packets unaccounted: %+v", c, gap, s.PerChannel[c])
		}
	}
	for name, v := range map[string]int64{
		"OverflowDrops": s.OverflowDrops, "OldEpochDrops": s.OldEpochDrops,
		"MemberDrops": s.MemberDrops, "MemberLost": s.MemberLost, "BadMarkers": s.BadMarkers,
		"BadMembers": s.BadMembers, "BadTelemetry": s.BadTelemetry,
		"UnknownKinds": s.UnknownKinds, "Control": s.Control,
		"Telemetry": s.Telemetry, "Resyncs": s.Resyncs,
		"MemberJoins": s.MemberJoins, "MemberDrains": s.MemberDrains,
		"LostBytes": s.LostBytes,
	} {
		if v == 0 {
			t.Errorf("the script never exercised %s: %+v", name, s.RecvChannel)
		}
	}
	if s.BadMarkers != 2 || s.BadMembers != 2 {
		t.Errorf("BadMarkers=%d BadMembers=%d, want 2 and 2 (corrupt + mis-addressed/foreign)", s.BadMarkers, s.BadMembers)
	}
	if int(s.Occupancy) != rs.Buffered() || s.Occupancy != s.Buffered {
		t.Errorf("occupancy %d, Buffered() %d, row sum %d disagree", s.Occupancy, rs.Buffered(), s.Buffered)
	}
	if snap := col.Snapshot(); snap.Rx != s.RecvChannel {
		t.Errorf("published totals %+v != engine totals %+v", snap.Rx, s.RecvChannel)
	}
}

// arriveAll hands the resequencer everything queued on channel c
// without running the delivery scan.
func arriveAll(g *channel.Group, rs *Resequencer, c int) {
	for {
		p, ok := g.Queues[c].Recv()
		if !ok {
			return
		}
		rs.Arrive(c, p)
	}
}
