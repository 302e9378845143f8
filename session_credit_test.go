package stripe

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/core"
)

// kindCounter is a ChannelSender shim on the credit-return path: it
// counts what the session sends by kind and can swallow every credit
// packet, the way a lossy reverse link would.
type kindCounter struct {
	ChannelSender
	dropCredits      bool
	credits, members atomic.Int64
}

func (k *kindCounter) Send(p *Packet) error {
	switch p.Kind {
	case KindCredit:
		k.credits.Add(1)
		if k.dropCredits {
			return nil
		}
	case KindMember:
		k.members.Add(1)
	}
	return k.ChannelSender.Send(p)
}

// floodInOrder sends n sequence-stamped packets of size bytes from a
// while a consumer drains b, and fails the test if they do not all
// arrive, in order, within the deadline. midway, when non-nil, runs on
// the sending goroutine before packet n/2.
func floodInOrder(t *testing.T, a, b *Session, n, size int, midway func()) {
	t.Helper()
	var delivered, misordered atomic.Int64
	go func() {
		for i := 0; ; i++ {
			p := b.Recv()
			if p == nil {
				return
			}
			if binary.BigEndian.Uint64(p.Payload) != uint64(i) {
				misordered.Add(1)
			}
			delivered.Add(1)
		}
	}()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if i == n/2 && midway != nil {
				midway()
			}
			payload := make([]byte, size)
			binary.BigEndian.PutUint64(payload, uint64(i))
			if err := a.SendBytes(payload); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	deadline := time.After(20 * time.Second)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	case <-deadline:
		t.Fatalf("sender parked on credit: %d/%d delivered, a's remaining credit %v",
			delivered.Load(), n, remaining(a, a.n))
	}
	for delivered.Load() < int64(n) {
		select {
		case <-deadline:
			t.Fatalf("delivered %d/%d", delivered.Load(), n)
		case <-time.After(time.Millisecond):
		}
	}
	if m := misordered.Load(); m != 0 {
		t.Fatalf("%d packets out of order", m)
	}
}

func creditConfig(nch int, window int64, interval time.Duration) func(*Collector) SessionConfig {
	return func(col *Collector) SessionConfig {
		col.SetChecker(NewChecker())
		return SessionConfig{
			Config:         Config{Quanta: UniformQuanta(nch, 1500), Collector: col},
			CreditWindow:   window,
			MarkerInterval: interval,
		}
	}
}

func assertCreditsClean(t *testing.T, ends ...*Session) {
	t.Helper()
	for i, s := range ends {
		snap := s.Snapshot()
		if snap.InvariantViolations != 0 || snap.CreditRejects != 0 {
			t.Errorf("end %d: %d invariant violations %v, %d grants rejected; credit return must never over-grant",
				i, snap.InvariantViolations, snap.Violations, snap.CreditRejects)
		}
	}
}

// TestCreditReturnsWithoutTimer floods one way, many windows' worth,
// with the marker timer off and the reverse direction idle: no reverse
// data means no round-based markers either, so nothing but a credit
// packet can carry a grant back. Before credit return the sender parked
// in txCond.Wait for good once the initial windows were spent.
func TestCreditReturnsWithoutTimer(t *testing.T) {
	const nch, window = 2, 4 * 1024
	shims := make([]*kindCounter, nch)
	a, b, cleanup := wireShimmedSessions(t, nch, 200*time.Microsecond, 0, creditConfig(nch, window, -1),
		func(c int, tx ChannelSender) ChannelSender {
			shims[c] = &kindCounter{ChannelSender: tx}
			return shims[c]
		})
	defer cleanup()

	const n, size = 2000, 256 // 500 KiB through 2 x 4 KiB of window
	floodInOrder(t, a, b, n, size, nil)

	if m := b.SendStats().Markers; m != 0 {
		t.Errorf("the idle direction cut %d markers; credits were meant to travel alone", m)
	}
	// A round of credits goes out when some channel has earned half a
	// window and covers every channel that has earned anything, so there
	// are at most as many rounds as half windows in the drained bytes,
	// and no credit returns more than a window.
	var credits int64
	for _, k := range shims {
		credits += k.credits.Load()
	}
	if most, least := int64(nch*n*size/(window/2)), int64(n*size/window); credits < least || credits > most {
		t.Errorf("%d credit packets for %d bytes drained, want between one per window (%d) and %d per half window (%d)",
			credits, n*size, least, nch, most)
	}
	assertCreditsClean(t, a, b)
}

// TestCreditRoundsKeepTheirDistance floods over channels with no delay,
// where half a window is earned again microseconds after it was
// returned: credit packets still leave a channel at most once per
// creditGap (counted against the wall clock around the whole flood, so
// the bound cannot be missed by a slow machine), the credit held back in
// between goes out on its own — the sender has stopped and no delivery
// will come to carry it — and the transfer completes with the marker
// timer off.
func TestCreditRoundsKeepTheirDistance(t *testing.T) {
	const nch, window = 2, 4 * 1024
	shims := make([]*kindCounter, nch)
	a, b, cleanup := wireShimmedSessions(t, nch, 0, 0, creditConfig(nch, window, -1),
		func(c int, tx ChannelSender) ChannelSender {
			shims[c] = &kindCounter{ChannelSender: tx}
			return shims[c]
		})
	defer cleanup()

	const n, size = 1000, 256
	start := time.Now()
	floodInOrder(t, a, b, n, size, nil)
	rounds := int64(time.Since(start)/creditGap) + 1

	for c, k := range shims {
		got := k.credits.Load()
		if got > rounds {
			t.Errorf("channel %d carried %d credit packets in %d credit gaps", c, got, rounds)
		}
		// No credit can return more than a window.
		if least := int64(n * size / nch / window); got < least-1 {
			t.Errorf("channel %d carried %d credit packets, too few to have returned %d windows", c, got, least)
		}
	}
	assertCreditsClean(t, a, b)
}

// TestLostCreditPacketCostsOneMarkerInterval drops every credit packet
// on the reverse path: the markers' copy of the grant, on the timer, is
// then the only one that arrives, and the transfer still completes.
func TestLostCreditPacketCostsOneMarkerInterval(t *testing.T) {
	const nch, window = 2, 4 * 1024
	shims := make([]*kindCounter, nch)
	a, b, cleanup := wireShimmedSessions(t, nch, 200*time.Microsecond, 0, creditConfig(nch, window, time.Millisecond),
		func(c int, tx ChannelSender) ChannelSender {
			shims[c] = &kindCounter{ChannelSender: tx, dropCredits: true}
			return shims[c]
		})
	defer cleanup()

	floodInOrder(t, a, b, 600, 256, nil)

	var dropped int64
	for _, k := range shims {
		dropped += k.credits.Load()
	}
	if dropped == 0 {
		t.Error("no credit packet was sent, so none was lost: the test exercised nothing")
	}
	assertCreditsClean(t, a, b)
}

// TestMembershipCreditTrafficLeavesDrainClocksAlone is why credit return
// is a packet of its own and not an extra marker batch. A marker batch
// also burns one of the MemberAnnounceBatches repeats of a membership
// announcement and ticks the death clock of draining receive slots; at
// credit-return rates both would run out in microseconds. Here a slot is
// removed gracefully in the middle of a flow-controlled flood with every
// timer off: delivery stays lossless and in order, and afterwards the
// receiver — which sent hundreds of credits — has cut no marker batch
// but its mirrored removal's own, ticked no drain clock, and still owes
// the peer every announcement repeat.
func TestMembershipCreditTrafficLeavesDrainClocksAlone(t *testing.T) {
	const nch, window = 3, 4 * 1024
	shims := make([]*kindCounter, nch)
	a, b, cleanup := wireShimmedSessions(t, nch, 200*time.Microsecond, 0, creditConfig(nch, window, -1),
		func(c int, tx ChannelSender) ChannelSender {
			shims[c] = &kindCounter{ChannelSender: tx}
			return shims[c]
		})
	defer cleanup()
	members := func() (sum int64) {
		for _, k := range shims {
			sum += k.members.Load()
		}
		return sum
	}

	floodInOrder(t, a, b, 3000, 256, func() {
		if err := a.RemoveChannel(2); err != nil {
			t.Error(err)
		}
	})

	// b retires its receive slot once the slot's tail is delivered and
	// mirrors the removal onto its transmit side; a then drains its own
	// receive slot up to b's delimiter.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		btx, brx := b.ChannelState(2)
		_, arx := a.ChannelState(2)
		if btx == MemberRemoved && brx == MemberRemoved && arx == MemberRemoved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("channel 2 never retired on both ends: b tx %v rx %v, a rx %v", btx, brx, arx)
		}
	}
	var credits int64
	for _, k := range shims {
		credits += k.credits.Load()
	}
	if credits < 100 {
		t.Fatalf("only %d credits; the flood was meant to keep credit traffic up", credits)
	}
	if st := b.Stats(); st.MemberDrops != 0 || st.MemberLost != 0 {
		t.Errorf("graceful drain lost packets: %d dropped on the removed slot, %d declared lost", st.MemberDrops, st.MemberLost)
	}
	// The mirrored removal itself cuts one final marker batch (one marker
	// per channel then live) and announces once: a delimiter on the
	// departing channel, one block on each survivor.
	if m := b.SendStats().Markers; m != nch {
		t.Errorf("b cut %d markers with every timer off, want the removal's own %d: credit return must not be a marker batch", m, nch)
	}
	if got := members(); got != nch {
		t.Errorf("b sent %d announcements, want the removal's own %d: repeats ride marker batches only", got, nch)
	}
	for _, s := range []*Session{a, b} {
		s.mu.Lock()
		for c, ticks := range s.drainTicks {
			if ticks != 0 {
				t.Errorf("drain clock for slot %d ticked %d times on credit traffic", c, ticks)
			}
		}
		s.mu.Unlock()
	}
	// The repeats are all still owed: exactly MemberAnnounceBatches marker
	// batches carry one announcement per surviving channel, then no more.
	for i := 0; i < core.MemberAnnounceBatches+2; i++ {
		b.EmitMarkers()
	}
	if got, want := members()-nch, int64(core.MemberAnnounceBatches*(nch-1)); got != want {
		t.Errorf("%d announcement repeats after the flood, want %d: credit traffic spent some", got, want)
	}
	assertCreditsClean(t, a, b)
}
