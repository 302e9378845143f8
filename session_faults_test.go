package stripe

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wireLossySessions is wireSessions with per-channel loss and separate
// collectors, so each end's counters can be inspected independently.
func wireLossySessions(t *testing.T, nch int, loss float64, mk func(col *Collector) SessionConfig) (a, b *Session, cleanup func()) {
	t.Helper()
	return wireShimmedSessions(t, nch, 200*time.Microsecond, loss, mk, nil)
}

// wireShimmedSessions is wireLossySessions with the channels' one-way
// delay given and b's transmit channels (the b -> a direction) each
// passed through shim, when it is non-nil.
func wireShimmedSessions(t *testing.T, nch int, delay time.Duration, loss float64, mk func(col *Collector) SessionConfig,
	shim func(c int, tx ChannelSender) ChannelSender) (a, b *Session, cleanup func()) {
	t.Helper()
	mkChans := func(seedBase int64) ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{
				Delay: delay,
				Loss:  loss,
				Seed:  seedBase + int64(i),
			})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans(100)
	baChans, baSenders := mkChans(200)
	if shim != nil {
		for c, tx := range baSenders {
			baSenders[c] = shim(c, tx)
		}
	}

	a, err := NewSession(abSenders, mk(NewCollector(nch)))
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewSession(baSenders, mk(NewCollector(nch)))
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

// TestSessionLossyDuplexNoCreditStall is the session-level regression
// for the credit-leak pathology: over a duplex connection losing 15% of
// packets per channel, each side sends far more than the credit window,
// so before grant reconciliation the cumulative loss wedged the sender
// permanently. With marker-carried positions the stall must clear
// within a marker period, so the whole transfer completes.
func TestSessionLossyDuplexNoCreditStall(t *testing.T) {
	const nch = 2
	const window = 8 * 1024
	const n = 120 // 120 x 1KB per direction: ~15x the window
	mk := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config: Config{
				Quanta:      UniformQuanta(nch, 1500),
				Collector:   col,
				MaxBuffered: 512,
			},
			CreditWindow:   window,
			MarkerInterval: 2 * time.Millisecond,
		}
	}
	a, b, cleanup := wireLossySessions(t, nch, 0.15, mk)
	defer cleanup()

	var wg sync.WaitGroup
	send := func(s *Session) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := s.SendBytes(make([]byte, 1024)); err != nil {
				t.Error(err)
				return
			}
		}
	}
	// Consumers drain whatever survives the loss so delivered-byte
	// grants keep moving too; lost bytes can only be re-granted by
	// reconciliation.
	drain := func(s *Session) {
		for s.Recv() != nil {
		}
	}
	wg.Add(2)
	go send(a)
	go send(b)
	go drain(a)
	go drain(b)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("send stalled permanently: a credits %+v, b credits %+v",
			remaining(a, nch), remaining(b, nch))
	}
	// Loss must actually have been written off on at least one side, or
	// this test is not exercising reconciliation.
	if lost(a) == 0 && lost(b) == 0 {
		t.Fatal("no loss was reconciled despite 15% channel loss")
	}
}

func remaining(s *Session, nch int) []int64 {
	out := make([]int64, nch)
	for c := range out {
		out[c] = s.CreditRemaining(c)
	}
	return out
}

func lost(s *Session) int64 {
	var t int64
	for _, ch := range s.Snapshot().Channels {
		t += ch.Rx.LostBytes
	}
	return t
}

// TestSessionIdleMarkersBounded is the idle-direction regression: a
// session that sends no data but keeps cutting marker batches (as the
// timer does) must not accumulate markers in the peer's resequencer.
// 600 batches stand in for a 30-second idle session at the default
// 50ms marker interval; the buffered high-water must stay O(channels)
// even though the idle peer never calls Recv.
func TestSessionIdleMarkersBounded(t *testing.T) {
	const nch = 3
	const batches = 600
	mk := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config: Config{
				Quanta:    UniformQuanta(nch, 1500),
				Collector: col,
			},
			CreditWindow:   4 * 1024,
			MarkerInterval: -1, // no timer: batches are driven explicitly below
		}
	}
	a, b, cleanup := wireLossySessions(t, nch, 0, mk)
	defer cleanup()
	_ = a

	for i := 0; i < batches; i++ {
		a.EmitMarkers()
	}
	// Wait for every marker to arrive and be consumed at the idle peer.
	deadline := time.Now().Add(10 * time.Second)
	var snap Snapshot
	for {
		snap = b.Snapshot()
		var consumed int64
		for _, ch := range snap.Channels {
			consumed += ch.Rx.Markers
		}
		if consumed >= int64(batches*nch) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d markers consumed", consumed, batches*nch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap.BufferedHighWater > int64(nch) {
		t.Fatalf("idle-but-markered high-water %d is not O(channels) (%d channels)",
			snap.BufferedHighWater, nch)
	}
	var drained int64
	for _, ch := range snap.Channels {
		drained += ch.Rx.EagerMarkers
	}
	if drained == 0 {
		t.Fatal("no markers were drained eagerly")
	}
}

// flakySender is a ChannelSender whose failure mode can be toggled from
// the test while the session drives it concurrently.
type flakySender struct {
	mu   sync.Mutex
	fail bool
	sent int
}

func (f *flakySender) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakySender) Send(p *Packet) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errTransportDown
	}
	f.sent++
	return nil
}

var errTransportDown = errors.New("transport down")

// TestSessionSendFailsOnLastActiveChannel covers the eviction-retry
// loop's terminal case: a transport failure on the last active channel
// has no survivor to absorb it, so Send must surface the
// ChannelSendError instead of retrying (or evicting) forever.
func TestSessionSendFailsOnLastActiveChannel(t *testing.T) {
	const nch = 2
	f := []*flakySender{{fail: true}, {}}
	s, err := NewSession([]ChannelSender{f[0], f[1]}, SessionConfig{
		Config:         Config{Quanta: UniformQuanta(nch, 1500), Collector: NewCollector(nch)},
		MarkerInterval: -1,
		Health:         HealthConfig{EvictAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Channel 0 is down: the retry loop must grow its error streak to
	// the eviction threshold, evict it, and land the packet on channel 1
	// — all within one Send call.
	if err := s.SendBytes(make([]byte, 100)); err != nil {
		t.Fatalf("send with a survivor available: %v", err)
	}
	if got := s.ActiveChannels(); got != 1 {
		t.Fatalf("active channels after eviction = %d, want 1", got)
	}
	if f[1].sent == 0 {
		t.Fatal("packet did not land on the surviving channel")
	}

	// Now the survivor dies too. Eviction cannot absorb a failure on the
	// last active channel, so the error must come back to the caller.
	f[1].setFail(true)
	err = s.SendBytes(make([]byte, 100))
	var cse *ChannelSendError
	if !errors.As(err, &cse) {
		t.Fatalf("send on last failing channel returned %v, want ChannelSendError", err)
	}
	if cse.Channel != 1 {
		t.Fatalf("failure reported on channel %d, want 1", cse.Channel)
	}
	if got := s.ActiveChannels(); got != 1 {
		t.Fatalf("last channel must never be evicted; active = %d", got)
	}
}

// TestSessionCloseRacesCreditStalledSend is the lost-wakeup regression:
// Close used to broadcast the cond vars without holding the session
// lock, so the broadcast could fire in the window between a
// credit-stalled sender's closed-channel check and its txCond.Wait —
// waking nobody and parking the sender forever (no credits arrive after
// Close). Close now serializes with that critical section by taking the
// lock, so every stalled Send must return ErrSessionClosed promptly.
// Run with -race.
func TestSessionCloseRacesCreditStalledSend(t *testing.T) {
	for i := 0; i < 100; i++ {
		f := &flakySender{}
		s, err := NewSession([]ChannelSender{f}, SessionConfig{
			Config:         Config{Quanta: UniformQuanta(1, 1500), Collector: NewCollector(1)},
			CreditWindow:   64, // smaller than the payload: gated immediately, forever
			MarkerInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.SendBytes(make([]byte, 128)) }()
		// Vary the interleaving: sometimes Close beats the closed-check,
		// sometimes it lands while the sender holds the lock, sometimes
		// after it waits.
		if i%3 == 1 {
			runtime.Gosched()
		} else if i%3 == 2 {
			time.Sleep(50 * time.Microsecond)
		}
		s.Close()
		select {
		case err := <-done:
			if err != ErrSessionClosed {
				t.Fatalf("stalled send returned %v, want ErrSessionClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("credit-stalled Send never woke after Close (lost wakeup)")
		}
	}
}
