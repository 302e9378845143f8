package stripe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// tcpSessions connects two sessions over nch loopback TCP channels per
// direction, one pump goroutine per receive end, as examples/duplex does.
func tcpSessions(t *testing.T, nch int, cfg SessionConfig) (a, b *Session, cleanup func()) {
	t.Helper()
	var socks []*TCPChannel
	var rx [2][]*TCPChannel // rx[e]: the receive ends feeding session e
	var tx [2][]ChannelSender
	for e := 0; e < 2; e++ {
		for c := 0; c < nch; c++ {
			s, r, err := NewTCPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, s, r)
			tx[e] = append(tx[e], s)
			rx[1-e] = append(rx[1-e], r)
		}
	}
	var sess [2]*Session
	for e := range sess {
		s, err := NewSession(tx[e], cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess[e] = s
	}
	stop := make(chan struct{})
	var pumps sync.WaitGroup
	for e := range sess {
		for c, r := range rx[e] {
			pumps.Add(1)
			go func(dst *Session, c int, r *TCPChannel) {
				defer pumps.Done()
				for {
					p, err := r.ReadPacket(20 * time.Millisecond)
					if err != nil {
						return
					}
					if p != nil {
						dst.Arrive(c, p)
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(sess[e], c, r)
		}
	}
	return sess[0], sess[1], func() {
		close(stop)
		for _, s := range socks {
			s.Close()
		}
		sess[0].Close()
		sess[1].Close()
		pumps.Wait()
	}
}

// TestSessionFlushesBeforeCreditWait: over real TCP channels, with a
// credit window far smaller than one batch and no marker timer, both
// ends flood each other. Every SendBatch parks on credit mid-batch, and
// the only thing that can free it is the peer consuming what was sent
// and granting on a marker it cuts after — so each end must have put
// the accepted part of its batch on the wire before it waited. Were
// the gated return to leave it in the channels' write buffers, neither
// end would ever receive a byte and both would wait forever.
func TestSessionFlushesBeforeCreditWait(t *testing.T) {
	const (
		nch     = 4
		batch   = 64
		batches = 6
		size    = 1000
		window  = 8 << 10 // per channel: an eighth of one batch across the four
	)
	a, b, cleanup := tcpSessions(t, nch, SessionConfig{
		Config:         Config{Quanta: UniformQuanta(nch, 1500)},
		CreditWindow:   window,
		MarkerInterval: -1,
	})
	defer cleanup()

	errs := make(chan error, 4)
	produce := func(s *Session) {
		pkts := make([]*Packet, batch)
		for k := 0; k < batches; k++ {
			for i := range pkts {
				pkts[i] = Data(make([]byte, size))
				binary.BigEndian.PutUint64(pkts[i].Payload, uint64(k*batch+i))
			}
			if n, err := s.SendBatch(pkts); err != nil {
				errs <- fmt.Errorf("batch %d: SendBatch stopped after %d packets: %w", k, n, err)
				return
			}
		}
		errs <- nil
	}
	consume := func(s *Session) {
		dst := make([]*Packet, batch)
		for next := uint64(0); next < batch*batches; {
			n := s.RecvBatch(dst)
			if n == 0 {
				errs <- errors.New("session closed before the transfer completed")
				return
			}
			for _, p := range dst[:n] {
				if got := binary.BigEndian.Uint64(p.Payload); got != next {
					errs <- fmt.Errorf("delivery %d carries sequence number %d", next, got)
					return
				}
				next++
			}
			// The application grants as it drains; there is no timer.
			s.EmitMarkers()
		}
		errs <- nil
	}
	for _, s := range []*Session{a, b} {
		go produce(s)
		go consume(s)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("duplex transfer wedged: a delivered %d, b delivered %d of %d",
				a.Stats().Delivered, b.Stats().Delivered, batch*batches)
		}
	}
}

// flakyBuffered is a buffering transport whose failure shows only when
// the buffer is written out: Buffer always accepts, Flush fails.
type flakyBuffered struct{ flakySender }

func (f *flakyBuffered) SendBatch(pkts []*Packet) (int, error) {
	n, _ := f.Buffer(pkts)
	return n, f.Flush()
}

func (f *flakyBuffered) Buffer(pkts []*Packet) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent += len(pkts)
	return len(pkts), nil
}

func (f *flakyBuffered) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errTransportDown
	}
	return nil
}

// TestSessionSendFailsInDeferredFlush is
// TestSessionSendFailsOnLastActiveChannel for a transport failure that
// first surfaces in the striper's closing flush: with a survivor the
// streak still grows to eviction (one step per Send — the doubtful
// packet is the accepted-but-uncertain tail, not retried), and on the
// last active channel the ChannelSendError still reaches the caller.
func TestSessionSendFailsInDeferredFlush(t *testing.T) {
	const nch = 2
	f := []*flakyBuffered{{flakySender{fail: true}}, {}}
	s, err := NewSession([]ChannelSender{f[0], f[1]}, SessionConfig{
		Config:         Config{Quanta: UniformQuanta(nch, 1500), Collector: NewCollector(nch)},
		MarkerInterval: -1,
		Health:         HealthConfig{EvictAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10 && s.ActiveChannels() == nch; i++ {
		if err := s.SendBytes(make([]byte, 100)); err != nil {
			t.Fatalf("send %d with a survivor available: %v", i, err)
		}
	}
	if tx, _ := s.ChannelState(0); tx != MemberRemoved || s.ActiveChannels() != 1 {
		t.Fatalf("channel 0 fails every flush but was not evicted (active %d)", s.ActiveChannels())
	}

	f[1].setFail(true)
	err = s.SendBytes(make([]byte, 100))
	var cse *ChannelSendError
	if !errors.As(err, &cse) || cse.Channel != 1 || !errors.Is(err, errTransportDown) {
		t.Fatalf("send on last failing channel returned %v, want ChannelSendError on channel 1", err)
	}
	if got := s.ActiveChannels(); got != 1 {
		t.Fatalf("last channel must never be evicted; active = %d", got)
	}
}
