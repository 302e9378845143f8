package stripe

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// wireSessions connects two sessions back-to-back over in-process
// channels (a.tx -> b.rx and b.tx -> a.rx) and returns them plus a
// cleanup function.
func wireSessions(t *testing.T, nch int, cfg SessionConfig) (a, b *Session, cleanup func()) {
	t.Helper()
	mkChans := func() ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{Delay: time.Millisecond, Seed: int64(i)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans()
	baChans, baSenders := mkChans()

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewSession(baSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pumps sync.WaitGroup
	pump := func(chans []*LocalChannel, dst *Session) {
		for i, ch := range chans {
			pumps.Add(1)
			go func(i int, ch *LocalChannel) {
				defer pumps.Done()
				for p := range ch.Out() {
					dst.Arrive(i, p)
				}
			}(i, ch)
		}
	}
	pump(abChans, b)
	pump(baChans, a)
	cleanup = func() {
		a.Close()
		b.Close()
		for _, ch := range abChans {
			ch.Close()
		}
		for _, ch := range baChans {
			ch.Close()
		}
		pumps.Wait()
	}
	return a, b, cleanup
}

// TestSessionDuplexFIFO checks both directions deliver FIFO
// concurrently.
func TestSessionDuplexFIFO(t *testing.T) {
	cfg := SessionConfig{Config: Config{Quanta: UniformQuanta(2, 1500)}}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	const n = 150
	var wg sync.WaitGroup
	sendAll := func(s *Session, tag string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			payload := make([]byte, 700)
			copy(payload, fmt.Sprintf("%s-%04d", tag, i))
			if err := s.SendBytes(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}
	recvAll := func(s *Session, tag string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p := s.Recv()
			if p == nil {
				t.Errorf("%s: closed at %d", tag, i)
				return
			}
			want := fmt.Sprintf("%s-%04d", tag, i)
			if string(p.Payload[:len(want)]) != want {
				t.Errorf("%s: packet %d = %q", tag, i, p.Payload[:len(want)])
				return
			}
		}
	}
	wg.Add(4)
	go sendAll(a, "ab")
	go recvAll(b, "ab")
	go sendAll(b, "ba")
	go recvAll(a, "ba")
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("duplex transfer timed out")
	}
}

// TestSessionCreditsGateAndRefresh checks flow control end to end: a
// fast sender with a slow consumer is gated, credits piggybacked on the
// peer's markers un-gate it, and everything is eventually delivered in
// order.
func TestSessionCreditsGateAndRefresh(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 2, Position: 0}},
		CreditWindow:   8 * 1024,
		MarkerInterval: 5 * time.Millisecond,
	}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			payload := make([]byte, 1000)
			payload[0] = byte(i)
			payload[1] = byte(i >> 8)
			if err := a.SendBytes(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Slow consumer: the 200 kB stream cannot fit the 2x8 kB windows,
	// so the sender must be gated and then refreshed by credits.
	for i := 0; i < n; i++ {
		time.Sleep(200 * time.Microsecond)
		p := b.Recv()
		if p == nil {
			t.Fatalf("closed at %d", i)
		}
		if got := int(p.Payload[0]) | int(p.Payload[1])<<8; got != i {
			t.Fatalf("packet %d arrived as %d", i, got)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender never finished; credits failed to refresh")
	}
	if b.Stats().Markers == 0 {
		t.Fatal("no markers consumed")
	}
}

// TestSessionCreditWindowBoundsInFlight checks the invariant: bytes in
// flight plus buffered never exceed the window per channel.
func TestSessionCreditWindowBoundsInFlight(t *testing.T) {
	const window = 4 * 1024
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 2, Position: 0}},
		CreditWindow:   window,
		MarkerInterval: -1, // manual markers only
	}
	a, _, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	// With no Recv on the peer and no marker credits flowing back, the
	// sender can emit at most 2*window bytes before gating blocks it.
	sent := make(chan int)
	go func() {
		count := 0
		for {
			if err := a.SendBytes(make([]byte, 1024)); err != nil {
				break
			}
			count++
			select {
			case sent <- count:
			default:
			}
		}
	}()
	deadline := time.After(2 * time.Second)
	maxSent := 0
drain:
	for {
		select {
		case c := <-sent:
			maxSent = c
		case <-deadline:
			break drain
		}
	}
	if maxSent > 2*window/1024 {
		t.Fatalf("sender emitted %d kB against a %d kB total window", maxSent, 2*window/1024)
	}
	if maxSent == 0 {
		t.Fatal("nothing was sent")
	}
}

// receiveEnd is what Receiver and Session share by embedding the
// receive half: the surface the close/receive contract is stated on.
type receiveEnd interface {
	Arrive(c int, p *Packet)
	Recv() *Packet
	TryRecv() (*Packet, bool)
	RecvBatch(dst []*Packet) int
	Close()
}

// TestSessionCloseUnblocks checks Close releases blocked Send and Recv,
// and runs the close/receive contract of the one receive loop against
// both of its owners.
func TestSessionCloseUnblocks(t *testing.T) {
	t.Run("ParkedSendAndRecv", func(t *testing.T) {
		cfg := SessionConfig{
			Config:       Config{Quanta: UniformQuanta(2, 1500)},
			CreditWindow: 512, // tiny: Send will gate quickly
		}
		a, _, cleanup := wireSessions(t, 2, cfg)

		errs := make(chan error, 1)
		go func() {
			for {
				if err := a.SendBytes(make([]byte, 400)); err != nil {
					errs <- err
					return
				}
			}
		}()
		recvDone := make(chan *Packet, 1)
		go func() { recvDone <- a.Recv() }()

		time.Sleep(50 * time.Millisecond)
		cleanup() // closes both sessions

		select {
		case err := <-errs:
			if err != ErrSessionClosed {
				t.Fatalf("Send returned %v, want ErrSessionClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Send never unblocked after Close")
		}
		select {
		case p := <-recvDone:
			if p != nil {
				t.Fatalf("Recv returned %v after close", p)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv never unblocked after Close")
		}
	})

	const nch = 2
	cfg := Config{Quanta: UniformQuanta(nch, 1500)}
	owners := []struct {
		name string
		mk   func(t *testing.T) receiveEnd
	}{
		{"Receiver", func(t *testing.T) receiveEnd {
			r, err := NewReceiver(nch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"Session", func(t *testing.T) receiveEnd {
			senders := make([]ChannelSender, nch)
			for i := range senders {
				ch := NewLocalChannel(LocalChannelConfig{})
				t.Cleanup(ch.Close)
				senders[i] = ch
			}
			s, err := NewSession(senders, SessionConfig{Config: cfg, MarkerInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	// within fails the test when f is still blocked after two seconds.
	within := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked", what)
		}
	}
	for _, o := range owners {
		t.Run(o.name+"/DeliverableAtCloseStillReturned", func(t *testing.T) {
			e := o.mk(t)
			// Three small packets on channel 0, the first the scan serves:
			// all deliverable with nothing else arrived.
			for i := 0; i < 3; i++ {
				e.Arrive(0, Data([]byte{byte(i)}))
			}
			e.Close()
			e.Close() // twice is safe
			within(t, "receiving after Close", func() {
				if p := e.Recv(); p == nil || p.Payload[0] != 0 {
					t.Errorf("Recv after Close = %v, want packet 0", p)
				}
				dst := make([]*Packet, 8)
				if n := e.RecvBatch(dst); n != 2 || dst[0].Payload[0] != 1 || dst[1].Payload[0] != 2 {
					t.Errorf("RecvBatch after Close = %d, want packets 1 and 2", n)
				}
				if p := e.Recv(); p != nil {
					t.Errorf("Recv once drained = %v, want nil", p)
				}
				if n := e.RecvBatch(dst); n != 0 {
					t.Errorf("RecvBatch once drained = %d, want 0", n)
				}
				if p, ok := e.TryRecv(); ok || p != nil {
					t.Errorf("TryRecv once drained = %v, %v", p, ok)
				}
			})
		})
		t.Run(o.name+"/TryRecvNeverBlocks", func(t *testing.T) {
			e := o.mk(t)
			defer e.Close()
			within(t, "TryRecv", func() {
				if p, ok := e.TryRecv(); ok || p != nil {
					t.Errorf("TryRecv on an empty receiver = %v, %v", p, ok)
				}
				e.Arrive(0, Data([]byte{7}))
				if p, ok := e.TryRecv(); !ok || p.Payload[0] != 7 {
					t.Errorf("TryRecv with one arrived = %v, %v", p, ok)
				}
			})
		})
		t.Run(o.name+"/ArriveOutOfRangeOrAfterClose", func(t *testing.T) {
			e := o.mk(t)
			within(t, "Arrive", func() {
				e.Arrive(-1, Data([]byte{1}))
				e.Arrive(nch, Data([]byte{2}))
				e.Close()
				e.Arrive(nch, Data([]byte{3}))
				e.Arrive(1, Data([]byte{4})) // in range, but the scan waits on channel 0
				if p, ok := e.TryRecv(); ok || p != nil {
					t.Errorf("TryRecv = %v, %v; nothing that arrived was deliverable", p, ok)
				}
				if p := e.Recv(); p != nil {
					t.Errorf("Recv after Close = %v, want nil", p)
				}
			})
		})
		// The lost wakeup: a waiter that has checked the close signal but
		// not yet parked must still be woken, whichever side wins the race.
		t.Run(o.name+"/ParkedRecvAlwaysWakes", func(t *testing.T) {
			for i := 0; i < 50; i++ {
				e := o.mk(t)
				woke := make(chan bool, 1)
				go func() {
					if i%2 == 0 {
						woke <- e.Recv() == nil
					} else {
						woke <- e.RecvBatch(make([]*Packet, 4)) == 0
					}
				}()
				e.Close()
				select {
				case empty := <-woke:
					if !empty {
						t.Fatalf("iteration %d: a closed, empty receiver delivered something", i)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("iteration %d: receiver never woke after Close", i)
				}
			}
		})
	}
}

// TestRecvZeroAlloc pins the receive call shape: Recv and TryRecv are a
// batch of one over an array on the caller's stack, and that array must
// not escape. Packets have already arrived over in-process channels, and
// no marker timer runs, so nothing allocates behind the count.
func TestRecvZeroAlloc(t *testing.T) {
	const nch, runs = 2, 100
	cfg := Config{Quanta: UniformQuanta(nch, 1500)}
	check := func(name string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(runs, f); avg != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", name, avg)
		}
	}
	// settle waits until everything sent has arrived at the receive side.
	settle := func(sent func() SenderStats, arrived func() int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if st := sent(); arrived() == st.DataPackets+st.Markers {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("packets sent never all arrived")
			}
		}
	}

	a, b, cleanup := wireSessions(t, nch, SessionConfig{Config: cfg, MarkerInterval: -1})
	defer cleanup()
	for i := 0; i < 2*(runs+1); i++ { // AllocsPerRun calls f runs+1 times
		if err := a.SendBytes(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	settle(a.SendStats, func() int64 { return b.Stats().Arrived })
	check("Session.Recv", func() {
		if b.Recv() == nil {
			t.Fatal("Session.Recv: closed")
		}
	})
	check("Session.TryRecv", func() {
		if _, ok := b.TryRecv(); !ok {
			t.Fatal("Session.TryRecv: nothing deliverable")
		}
	})

	chans := make([]*LocalChannel, nch)
	senders := make([]ChannelSender, nch)
	for i := range chans {
		chans[i] = NewLocalChannel(LocalChannelConfig{})
		defer chans[i].Close()
		senders[i] = chans[i]
	}
	tx, err := NewSender(senders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	startPumps(chans, rx)
	for i := 0; i < runs+1; i++ {
		if err := tx.SendBytes(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	settle(tx.Stats, func() int64 { return rx.Stats().Arrived })
	check("Receiver.Recv", func() {
		if rx.Recv() == nil {
			t.Fatal("Receiver.Recv: closed")
		}
	})
}

// TestSessionValidation covers constructor errors.
func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(make([]ChannelSender, 2), SessionConfig{
		Config: Config{Quanta: []int64{100}},
	}); err == nil {
		t.Error("mismatched quanta accepted")
	}
}

// TestHealthConfigResolved pins the one place the health defaults are
// decided: after resolved, zero means the rule is off.
func TestHealthConfigResolved(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want HealthConfig
	}{
		{"zero value", HealthConfig{}, HealthConfig{EvictAfter: 8, ReinstateAfter: 3, ScoreStreak: 2}},
		{"negative turns the streak rules off",
			HealthConfig{EvictAfter: -1, ReinstateAfter: -5},
			HealthConfig{ScoreStreak: 2}},
		{"set values pass through",
			HealthConfig{EvictAfter: 4, ReinstateAfter: 1, ScoreStreak: 6, ScoreEvictBelow: 40, PeerScoreEvictBelow: 50},
			HealthConfig{EvictAfter: 4, ReinstateAfter: 1, ScoreStreak: 6, ScoreEvictBelow: 40, PeerScoreEvictBelow: 50}},
		{"a streak below one is the default",
			HealthConfig{ScoreStreak: -3, ScoreEvictBelow: 10},
			HealthConfig{EvictAfter: 8, ReinstateAfter: 3, ScoreStreak: 2, ScoreEvictBelow: 10}},
	} {
		if got := tc.in.resolved(); got != tc.want {
			t.Errorf("%s: %+v resolved to %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}
