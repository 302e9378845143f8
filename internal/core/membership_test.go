package core

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// killSender is a channel transport with a cut switch: while dead it
// silently destroys everything handed to it — in-flight loss, not a
// transport error — which models a link that died without telling the
// sender.
type killSender struct {
	inner channel.Sender
	dead  bool
	lost  int
}

func (k *killSender) Send(p *packet.Packet) error {
	if k.dead {
		if p.Kind == packet.Data {
			k.lost++
		}
		return nil
	}
	return k.inner.Send(p)
}

func membershipStriper(t *testing.T, senders []channel.Sender) *Striper {
	t.Helper()
	return mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(len(senders), 100)),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 4, Position: 0},
	})
}

func membershipPair(t *testing.T, nch int) (*channel.Group, *Striper, *Resequencer) {
	t.Helper()
	g := channel.NewGroup(nch, channel.Impairments{})
	st := membershipStriper(t, g.Senders())
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(sched.UniformQuanta(nch, 100)),
		Mode:  ModeLogical,
	})
	return g, st, rs
}

// killPair is membershipPair with channel 1's transport wrapped in a
// kill switch.
func killPair(t *testing.T, nch int) (*channel.Group, *killSender, *Striper, *Resequencer) {
	t.Helper()
	g := channel.NewGroup(nch, channel.Impairments{})
	senders := g.Senders()
	kill := &killSender{inner: senders[1]}
	senders[1] = kill
	st := membershipStriper(t, senders)
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(sched.UniformQuanta(nch, 100)),
		Mode:  ModeLogical,
	})
	return g, kill, st, rs
}

// TestStriperUniverseIsSixtyFourSlots: the membership bitmap and the
// flush masks hold one bit per slot, so NewStriper refuses a 65th
// channel whatever the scheduler, and a striper at the bound removes,
// re-adds, buffers and flushes its last slot like any other.
func TestStriperUniverseIsSixtyFourSlots(t *testing.T) {
	over := channel.NewGroup(65, channel.Impairments{}).Senders()
	if _, err := NewStriper(StriperConfig{Sched: sched.MustSRR(sched.UniformQuanta(65, 100)), Channels: over}); err == nil {
		t.Error("NewStriper accepted 65 channels under SRR")
	}
	rfq, err := sched.NewRFQ(sched.UniformQuanta(65, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStriper(StriperConfig{CausalSched: rfq, Channels: over}); err == nil {
		t.Error("NewStriper accepted 65 channels under a round-less scheduler")
	}

	const nch, last = 64, 63
	chans, senders := bufChans(nch)
	st := membershipStriper(t, senders)
	dataOn := func(c int) int {
		n := 0
		for _, p := range chans[c].wire {
			if p.Kind == packet.Data {
				n++
			}
		}
		return n
	}
	sendN(t, st, 2*nch)
	requireNothingHeld(t, "after the sends", chans)
	if got := dataOn(last); got != 2 {
		t.Fatalf("slot %d carried %d data packets of %d sent over %d slots, want 2", last, got, 2*nch, nch)
	}
	if err := st.RemoveChannel(last); err != nil {
		t.Fatalf("RemoveChannel(%d): %v", last, err)
	}
	if m, err := packet.MemberOf(chans[last].wire[len(chans[last].wire)-1]); err != nil || m.Op != packet.MemberLeave || m.Target != last {
		t.Fatalf("slot %d's last packet is (%+v, %v), want its departure delimiter", last, m, err)
	}
	sendN(t, st, 2*nch)
	if got := dataOn(last); got != 2 {
		t.Fatalf("slot %d carried data while removed: %d packets", last, got)
	}
	if _, err := st.AddChannel(last, nil); err != nil {
		t.Fatalf("AddChannel(%d): %v", last, err)
	}
	sendN(t, st, 2*nch)
	requireNothingHeld(t, "after the rejoin", chans)
	if got := dataOn(last); got <= 2 {
		t.Fatalf("slot %d carried no data after rejoining", last)
	}
	if b := chans[last]; b.flushes == 0 || b.writes == 0 {
		t.Fatalf("slot %d: %d flushes, %d writes; it must buffer and flush like the others", last, b.flushes, b.writes)
	}
}

func sendN(t *testing.T, st *Striper, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
}

func assertAscending(t *testing.T, got []*packet.Packet) []uint64 {
	t.Helper()
	ids := make([]uint64, len(got))
	last := int64(-1)
	for i, p := range got {
		ids[i] = p.ID
		if int64(p.ID) <= last {
			t.Fatalf("FIFO violated: delivery sequence %v", ids[:i+1])
		}
		last = int64(p.ID)
	}
	return ids
}

// TestGracefulRemoveLosslessDrain removes a healthy channel mid-stream:
// the MemberLeave delimiter sent down the departing channel proves its
// stream complete, so every packet buffered from it is delivered in
// order before the slot retires — nothing is declared lost.
func TestGracefulRemoveLosslessDrain(t *testing.T) {
	g, st, rs := membershipPair(t, 3)

	sendN(t, st, 12)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 12)

	got := pumpAll(g, rs)
	ids := assertAscending(t, got)
	if len(ids) != 24 {
		t.Fatalf("delivered %d packets %v, want all 24", len(ids), ids)
	}
	s := rs.Stats()
	if s.MemberDrains != 1 || s.MemberLost != 0 || s.MemberDrops != 0 {
		t.Fatalf("drains=%d lost=%d drops=%d, want 1/0/0", s.MemberDrains, s.MemberLost, s.MemberDrops)
	}
	if st.Member(1) != MemberRemoved || st.ActiveN() != 2 {
		t.Fatalf("sender state: Member(1)=%v ActiveN=%d", st.Member(1), st.ActiveN())
	}
	if rs.MemberState(1) != MemberRemoved {
		t.Fatalf("receiver state: MemberState(1)=%v, want removed", rs.MemberState(1))
	}
}

// TestDelayedTailSurvivesScanBlockage is the deterministic form of the
// lossless-drain race: the survivors' departure announcements out-run
// the departing channel's in-flight tail, so the delivery scan reaches
// the draining slot while its buffer is still empty. Blocking there is
// not evidence of death — the slot must wait for its own FIFO delimiter
// — so when the tail and delimiter land, everything is delivered in
// order and nothing is dropped on a prematurely removed slot.
func TestDelayedTailSurvivesScanBlockage(t *testing.T) {
	g, st, rs := membershipPair(t, 3)

	sendN(t, st, 12)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 12)

	// Pump only the survivors to exhaustion: channel 1's share of the
	// first 12, its final marker and its delimiter all stay in flight.
	var got []*packet.Packet
	deliver := func() {
		for {
			p, ok := rs.Next()
			if !ok {
				return
			}
			got = append(got, p)
		}
	}
	for _, c := range []int{0, 2} {
		for {
			p, ok := g.Queues[c].Recv()
			if !ok {
				break
			}
			rs.Arrive(c, p)
		}
		deliver()
	}
	if len(got) >= 12 || rs.MemberState(1) != MemberDraining {
		t.Fatalf("scan delivered %d packets with channel 1 %v; want it blocked on the draining slot",
			len(got), rs.MemberState(1))
	}

	// Now the delayed tail lands, delimiter last.
	got = append(got, pumpAll(g, rs)...)
	ids := assertAscending(t, got)
	if len(ids) != 24 {
		t.Fatalf("delivered %d packets %v, want all 24", len(ids), ids)
	}
	s := rs.Stats()
	if s.MemberDrops != 0 || s.MemberLost != 0 || s.MemberDrains != 1 {
		t.Fatalf("drops=%d lost=%d drains=%d, want 0/0/1; channel 1 row %+v",
			s.MemberDrops, s.MemberLost, s.MemberDrains, s.PerChannel[1])
	}
	if rs.MemberState(1) != MemberRemoved {
		t.Fatalf("MemberState(1) = %v, want removed after the delimiter", rs.MemberState(1))
	}
}

// TestStaleDelimiterDoesNotCompleteNextDeparture flaps a channel out
// and back so quickly that the receiver learns both transitions from
// the survivors while the first departure's delimiter is still in
// flight on the flapped channel. That delimiter speaks about the old
// incarnation: it must not mark the rejoined channel's stream complete,
// or the next departure would retire the slot ahead of its in-flight
// tail.
func TestStaleDelimiterDoesNotCompleteNextDeparture(t *testing.T) {
	g, st, rs := membershipPair(t, 3)
	var got []*packet.Packet
	survivors := func() {
		arriveAll(g, rs, 0)
		arriveAll(g, rs, 2)
		for {
			p, ok := rs.Next()
			if !ok {
				return
			}
			got = append(got, p)
		}
	}

	sendN(t, st, 6)
	got = append(got, pumpAll(g, rs)...)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddChannel(1, nil); err != nil {
		t.Fatal(err)
	}
	survivors() // both announcements overtake channel 1's delimiter
	if rs.MemberState(1) != MemberActive {
		t.Fatalf("MemberState(1) = %v after the rejoin announcement, want active", rs.MemberState(1))
	}
	sendN(t, st, 12)
	got = append(got, pumpAll(g, rs)...) // the stale delimiter lands here

	sendN(t, st, 6)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 6)
	survivors() // the second departure's announcement out-runs channel 1's tail
	got = append(got, pumpAll(g, rs)...)

	if ids := assertAscending(t, got); len(ids) != 30 {
		t.Fatalf("delivered %d packets %v, want all 30", len(ids), ids)
	}
	if s := rs.Stats(); s.MemberDrops != 0 || s.MemberLost != 0 {
		t.Fatalf("drops=%d lost=%d, want 0/0; channel 1 row %+v", s.MemberDrops, s.MemberLost, s.PerChannel[1])
	}
}

// TestOvertakenDelimiterStillCompletesItsDeparture removes two channels
// in a row and lets the survivors deliver both announcements first, so
// channel 1's delimiter (seq N) lands after the announcement of channel
// 2's departure (seq N+1) was applied. The later announcement says
// nothing about channel 1's stream: staleness is judged against the
// slot's own last admission, not the newest applied block, so the
// overtaken delimiter still completes its departure.
func TestOvertakenDelimiterStillCompletesItsDeparture(t *testing.T) {
	g, st, rs := membershipPair(t, 4)

	sendN(t, st, 8)
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 8)
	if err := st.RemoveChannel(2); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 8)

	var got []*packet.Packet
	for _, c := range []int{0, 3} { // both announcements out-run both tails
		arriveAll(g, rs, c)
	}
	for p, ok := rs.Next(); ok; p, ok = rs.Next() {
		got = append(got, p)
	}
	if rs.MemberState(1) != MemberDraining || rs.MemberState(2) != MemberDraining {
		t.Fatalf("states %v/%v after the survivors' announcements, want both draining",
			rs.MemberState(1), rs.MemberState(2))
	}

	got = append(got, pumpAll(g, rs)...)
	if ids := assertAscending(t, got); len(ids) != 24 {
		t.Fatalf("delivered %d packets %v, want all 24", len(ids), ids)
	}
	s := rs.Stats()
	if s.MemberDrops != 0 || s.MemberLost != 0 || s.MemberDrains != 2 || rs.Buffered() != 0 {
		t.Fatalf("drops=%d lost=%d drains=%d buffered=%d, want 0/0/2/0; rows %+v %+v",
			s.MemberDrops, s.MemberLost, s.MemberDrains, rs.Buffered(), s.PerChannel[1], s.PerChannel[2])
	}
	if rs.MemberState(1) != MemberRemoved || rs.MemberState(2) != MemberRemoved {
		t.Fatalf("states %v/%v, want both removed after their delimiters", rs.MemberState(1), rs.MemberState(2))
	}
}

// TestDeadLinkRemovalNeverReorders cuts a link cold (silent in-flight
// destruction, including the would-be delimiter), then removes the
// channel on the transmit side. The survivors' announcements begin the
// receiver's drain, but the delimiter died with the link, so the scan
// waits on the empty slot until this end declares the link dead — what
// the session does after MemberAnnounceBatches marker batches. Then
// every surviving packet is delivered in order, the destroyed ones are
// simply absent, and nothing is ever reordered.
func TestDeadLinkRemovalNeverReorders(t *testing.T) {
	g, kill, st, rs := killPair(t, 3)

	sendN(t, st, 9) // IDs 0..8; channel 1 carries 1, 4, 7
	if got := assertAscending(t, pumpAll(g, rs)); len(got) != 9 {
		t.Fatalf("healthy phase delivered %d packets, want 9", len(got))
	}

	kill.dead = true
	sendN(t, st, 9) // IDs 9..17; 10, 13, 16 destroyed in flight
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	sendN(t, st, 6) // IDs 18..23, striped over the survivors

	got := pumpAll(g, rs)
	if rs.MemberState(1) != MemberDraining {
		t.Fatalf("MemberState(1) = %v before death is declared, want draining", rs.MemberState(1))
	}
	if err := rs.RemoveChannel(1); err != nil { // the death evidence
		t.Fatal(err)
	}
	ids := assertAscending(t, append(got, pumpAll(g, rs)...))
	if want := 24 - 9 - kill.lost; len(ids) != want {
		t.Fatalf("delivered %d packets %v, want %d (all survivors)", len(ids), ids, want)
	}
	for _, id := range ids {
		if id == 10 || id == 13 || id == 16 {
			t.Fatalf("destroyed packet %d was delivered", id)
		}
	}
	s := rs.Stats()
	if s.MemberDrains != 1 {
		t.Fatalf("MemberDrains = %d, want 1", s.MemberDrains)
	}
	if rs.MemberState(1) != MemberRemoved {
		t.Fatalf("MemberState(1) = %v, want removed", rs.MemberState(1))
	}
}

// TestLocalRemoveDeclaresDeadLink exercises the receiver-side removal
// path the health monitor uses when it observes a link dead locally: no
// peer announcement at all, just RemoveChannel on the resequencer. The
// simulation must drop the slot and keep delivering the survivors in
// order.
func TestLocalRemoveDeclaresDeadLink(t *testing.T) {
	g, kill, st, rs := killPair(t, 3)

	sendN(t, st, 9)
	if got := assertAscending(t, pumpAll(g, rs)); len(got) != 9 {
		t.Fatalf("healthy phase delivered %d packets, want 9", len(got))
	}
	kill.dead = true
	sendN(t, st, 9) // channel 1's share destroyed; sender unaware
	if err := rs.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	ids := assertAscending(t, pumpAll(g, rs))
	if want := 18 - 9 - kill.lost; len(ids) != want {
		t.Fatalf("delivered %d survivors %v, want %d", len(ids), ids, want)
	}
	if rs.MemberState(1) != MemberRemoved {
		t.Fatalf("MemberState(1) = %v, want removed", rs.MemberState(1))
	}
}

// TestRejoinAtRoundBoundaryFIFO is the regression test for the
// mid-round join race. The receiver's simulation advances eagerly on
// arrivals, so by the time a join announcement lands it can already
// have scanned past the joining slot within the current round — here
// that state is built deterministically by pumping the receiver after
// the sender has served channel 0 in its current round. A join
// announced for the *current* round would then deliver the newcomer's
// packets one round late forever; the striper must instead announce and
// defer to the next round boundary.
func TestRejoinAtRoundBoundaryFIFO(t *testing.T) {
	g, st, rs := membershipPair(t, 3)

	sendN(t, st, 6) // two full rounds over three channels
	if err := st.RemoveChannel(1); err != nil {
		t.Fatal(err)
	}
	// One more send: channel 0 is served in the current round, and the
	// pump walks the receiver's scan past removed slot 1 to block on
	// channel 2 — the exact state the race needs.
	sendN(t, st, 1)
	if got := assertAscending(t, pumpAll(g, rs)); len(got) != 7 {
		t.Fatalf("pre-join phase delivered %d packets, want 7", len(got))
	}

	roundBefore := st.Round()
	join, err := st.AddChannel(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if join != roundBefore+1 {
		t.Fatalf("join round = %d, want next boundary %d", join, roundBefore+1)
	}
	// Re-adding while the join is still pending must report the same
	// round, not push the boundary out again.
	if again, err := st.AddChannel(1, nil); err != nil || again != join {
		t.Fatalf("repeated AddChannel = %d, %v; want %d", again, err, join)
	}

	sendN(t, st, 11)
	ids := assertAscending(t, pumpAll(g, rs))
	if len(ids) != 11 {
		t.Fatalf("post-join delivered %d packets %v, want 11", len(ids), ids)
	}
	s := rs.Stats()
	if s.MemberJoins != 1 || s.MemberDrains != 1 || s.MemberLost != 0 {
		t.Fatalf("joins=%d drains=%d lost=%d, want 1/1/0", s.MemberJoins, s.MemberDrains, s.MemberLost)
	}
	if st.Member(1) != MemberActive || rs.MemberState(1) != MemberActive {
		t.Fatalf("states after rejoin: tx=%v rx=%v, want active/active", st.Member(1), rs.MemberState(1))
	}
}

// TestMembershipErrors pins the guard rails: the live set can never be
// emptied, out-of-range channels are rejected, and redundant
// transitions are no-ops.
func TestMembershipErrors(t *testing.T) {
	_, st, rs := membershipPair(t, 2)

	if err := st.RemoveChannel(5); err == nil {
		t.Fatal("RemoveChannel(5) accepted an out-of-range slot")
	}
	if _, err := st.AddChannel(-1, nil); err == nil {
		t.Fatal("AddChannel(-1) accepted an out-of-range slot")
	}
	if err := st.RemoveChannel(0); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveChannel(0); err != nil {
		t.Fatalf("removing a removed channel: %v, want no-op", err)
	}
	if err := st.RemoveChannel(1); err != ErrLastChannel {
		t.Fatalf("removing the last channel: %v, want ErrLastChannel", err)
	}
	if err := rs.RemoveChannel(7); err == nil {
		t.Fatal("resequencer RemoveChannel(7) accepted an out-of-range slot")
	}
	if err := rs.AddChannel(0, 3); err != nil {
		t.Fatalf("re-admitting an active channel: %v, want no-op", err)
	}
}
