package stripe

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
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

// handFedSession builds one flow-controlled (window > 0) or plain end
// over in-process queues nobody reads, with the marker timer off and a
// checker attached, and spends credit on every channel, so the test is
// the only source of arrivals and a grant has something to give back.
func handFedSession(t *testing.T, nch int, window int64) *Session {
	t.Helper()
	tx := make([]ChannelSender, nch)
	for i := range tx {
		tx[i] = channel.NewQueue(channel.Impairments{})
	}
	s, err := NewSession(tx, creditConfig(nch, window, -1)(NewCollector(nch)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 2*nch; i++ { // two 1000 B packets a channel
		if err := s.SendBytes(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestMarkerCreditOpensGateBeforeConsumption: the grant on a marker is
// read when the marker arrives, not when the delivery scan reaches it.
// The marker sits behind undelivered data on channel 1, channel 0 (which
// the scan serves first) is withheld, and the application receives
// nothing — yet the sender's gate must open.
func TestMarkerCreditOpensGateBeforeConsumption(t *testing.T) {
	const nch, window = 2, 4096
	a := handFedSession(t, nch, window)
	spent := window - a.CreditRemaining(1)
	if spent <= 0 {
		t.Fatalf("channel 1 spent %d bytes of credit; the test needs some to return", spent)
	}

	a.Arrive(1, Data(make([]byte, 500)))
	a.Arrive(1, packet.NewMarker(packet.MarkerBlock{Channel: 1, Sent: 500, Credits: uint64(spent + window)}))

	if p, ok := a.TryRecv(); ok {
		t.Fatalf("delivered %v with channel 0 withheld; the scan was meant to be blocked", p)
	}
	if st := a.Stats(); st.Markers != 0 || st.Buffered != 2 {
		t.Fatalf("markers consumed %d, packets buffered %d; the marker was meant to wait behind the data", st.Markers, st.Buffered)
	}
	if got := a.CreditRemaining(1); got != window {
		t.Errorf("channel 1 credit %d after the marker arrived, want the full window %d: the grant waited for consumption", got, window)
	}
	assertCreditsClean(t, a)
}

// TestMisaddressedCreditIsRejected: a credit speaks only for the channel
// it travels on. One naming another channel, and a truncated one, are
// each counted as a rejected grant and change no credit, yet both keep
// the Control fate every credit packet has; an end without flow control
// has no gate to refuse on behalf of and counts neither.
func TestMisaddressedCreditIsRejected(t *testing.T) {
	const nch = 2
	for _, tc := range []struct {
		name    string
		window  int64
		rejects int64
	}{
		{"FlowControlled", 4096, 2},
		{"NoCreditWindow", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := handFedSession(t, nch, tc.window)
			before := remaining(a, nch)
			// Otherwise valid on either channel: both have sent 2000 bytes.
			// Arrive owns a control packet, so the truncated copy is cut
			// before the good one is handed over.
			good := packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: uint64(2000 + tc.window)})
			short := &Packet{Kind: KindCredit, Payload: append([]byte(nil), good.Payload[:packet.CreditWireLen-1]...)}
			a.Arrive(0, good)
			a.Arrive(1, short)

			snap := a.Snapshot()
			if snap.CreditRejects != tc.rejects {
				t.Errorf("%d grants rejected, want %d", snap.CreditRejects, tc.rejects)
			}
			if after := remaining(a, nch); after[0] != before[0] || after[1] != before[1] {
				t.Errorf("credit moved %v -> %v on rejected grants", before, after)
			}
			st := a.Stats()
			if st.PerChannel[0].Control != 1 || st.PerChannel[1].Control != 1 || st.Buffered != 0 {
				t.Errorf("control fates %d and %d, %d buffered; want one per channel and nothing held",
					st.PerChannel[0].Control, st.PerChannel[1].Control, st.Buffered)
			}
			if snap.InvariantViolations != 0 {
				t.Errorf("%d invariant violations: %v", snap.InvariantViolations, snap.Violations)
			}
		})
	}
}
