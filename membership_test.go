package stripe

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/netchan"
)

// TestSessionGracefulMembership drives a duplex session pair across
// three channels and gracefully removes and re-adds one mid-transfer
// through the public API. The drain is delimited (the departing link is
// healthy), so delivery must be lossless and FIFO throughout, and the
// credit invariant checkers on both ends must stay silent.
func TestSessionGracefulMembership(t *testing.T) {
	const nch = 3
	const total = 3000

	colA := NewNamedCollector("gm-a", nch)
	colB := NewNamedCollector("gm-b", nch)
	colA.SetChecker(NewChecker())
	colB.SetChecker(NewChecker())
	frA := NewFlightRecorder(colA, FlightRecorderConfig{})
	frB := NewFlightRecorder(colB, FlightRecorderConfig{})
	colA.AddSink(frA)
	colB.AddSink(frB)

	mk := func(base int64) []*LocalChannel {
		chs := make([]*LocalChannel, nch)
		for i := range chs {
			chs[i] = NewLocalChannel(LocalChannelConfig{
				Delay: 100 * time.Microsecond,
				Seed:  base + int64(i)*7919,
			})
		}
		return chs
	}
	a2b, b2a := mk(11), mk(23)
	txA := make([]ChannelSender, nch)
	txB := make([]ChannelSender, nch)
	for i := 0; i < nch; i++ {
		txA[i], txB[i] = a2b[i], b2a[i]
	}

	cfg := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical, Collector: col},
			CreditWindow:   16 * 1024,
			MarkerInterval: 2 * time.Millisecond,
		}
	}
	a, err := NewSession(txA, cfg(colA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(txB, cfg(colB))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < nch; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for p := range a2b[i].Out() {
				b.Arrive(i, p)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for p := range b2a[i].Out() {
				a.Arrive(i, p)
			}
		}(i)
	}

	var delivered, fifoBreaks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			delivered.Add(1)
		}
	}()

	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			if err := a.RemoveChannel(2); err != nil {
				t.Fatal(err)
			}
			if tx, _ := a.ChannelState(2); tx != MemberRemoved {
				t.Fatalf("after RemoveChannel: tx state = %v, want removed", tx)
			}
		case 2 * total / 3:
			if err := a.AddChannel(2, nil); err != nil {
				t.Fatal(err)
			}
			if tx, _ := a.ChannelState(2); tx != MemberActive {
				t.Fatalf("after AddChannel: tx state = %v, want active", tx)
			}
		}
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && delivered.Load() < total {
		time.Sleep(time.Millisecond)
	}

	snapA, snapB := a.Snapshot(), b.Snapshot()
	statsB := b.Stats()
	a.Close()
	b.Close()
	for i := 0; i < nch; i++ {
		a2b[i].Close()
		b2a[i].Close()
	}
	wg.Wait()
	<-done

	if got := delivered.Load(); got != total {
		t.Errorf("delivered %d/%d packets; graceful removal must be lossless", got, total)
	}
	if got := fifoBreaks.Load(); got != 0 {
		t.Errorf("%d FIFO violations across the membership changes", got)
	}
	if statsB.MemberDrops != 0 || statsB.MemberLost != 0 {
		t.Errorf("receiver dropped %d arrivals on a removed slot and declared %d lost at retirement; a delimited drain loses nothing",
			statsB.MemberDrops, statsB.MemberLost)
	}
	if v := snapA.InvariantViolations + snapB.InvariantViolations; v != 0 {
		t.Errorf("%d invariant violations; membership changes must not leak credits or packets: %v %v",
			v, snapA.Violations, snapB.Violations)
	}
	if t.Failed() {
		// Name the cause: every channel's fate ledger on both ends, and
		// whatever the flight recorders caught.
		for _, end := range []struct {
			name string
			snap Snapshot
			fr   *FlightRecorder
		}{{"a", snapA, frA}, {"b", snapB, frB}} {
			for c, ch := range end.snap.Channels {
				t.Logf("%s channel %d: tx %+v", end.name, c, ch.Tx)
				t.Logf("%s channel %d: rx %+v", end.name, c, ch.Rx)
			}
			if d, ok := end.fr.LastDump(); ok {
				t.Logf("%s flight recorder: %s on %v; last events %v", end.name, d.Reason, d.Trigger, d.Events)
			}
		}
	}
}

// blackhole is a ChannelSender whose link can die silently: once dead,
// sends still succeed but nothing reaches the peer.
type blackhole struct {
	ChannelSender
	dead     atomic.Bool
	lostData atomic.Int64
}

func (h *blackhole) Send(p *Packet) error {
	if h.dead.Load() {
		if p.Kind == KindData {
			h.lostData.Add(1)
		}
		return nil
	}
	return h.ChannelSender.Send(p)
}

// TestSessionGracefulMembershipDeadLink removes a channel gracefully
// while its link is silently dropping everything, so the departing
// channel's tail and its FIFO delimiter never arrive. The peer's receive slot then
// has only the marker timer's drain clock to retire it: the slot must
// reach MemberRemoved and every packet striped over the survivors must
// still be delivered in order, with flow control and without.
func TestSessionGracefulMembershipDeadLink(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int64
	}{{"no-credit", 0}, {"credit", 16 * 1024}} {
		t.Run(tc.name, func(t *testing.T) {
			const nch = 3
			const total = 3000
			mk := func(base int64) []*LocalChannel {
				chs := make([]*LocalChannel, nch)
				for i := range chs {
					chs[i] = NewLocalChannel(LocalChannelConfig{Delay: 100 * time.Microsecond, Seed: base + int64(i)})
				}
				return chs
			}
			a2b, b2a := mk(31), mk(47)
			hole := &blackhole{ChannelSender: a2b[2]}
			txA := []ChannelSender{a2b[0], a2b[1], hole}
			txB := []ChannelSender{b2a[0], b2a[1], b2a[2]}
			colB := NewCollector(nch)
			colB.SetChecker(NewChecker())
			frB := NewFlightRecorder(colB, FlightRecorderConfig{})
			colB.AddSink(frB)
			cfg := func(col *Collector) SessionConfig {
				return SessionConfig{
					Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical, Collector: col},
					CreditWindow:   tc.window,
					MarkerInterval: 2 * time.Millisecond,
				}
			}
			a, err := NewSession(txA, cfg(nil))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewSession(txB, cfg(colB))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < nch; i++ {
				wg.Add(2)
				go func(i int) {
					defer wg.Done()
					for p := range a2b[i].Out() {
						b.Arrive(i, p)
					}
				}(i)
				go func(i int) {
					defer wg.Done()
					for p := range b2a[i].Out() {
						a.Arrive(i, p)
					}
				}(i)
			}
			var delivered, fifoBreaks atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				last := int64(-1)
				for p := b.Recv(); p != nil; p = b.Recv() {
					idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
					if idx <= last {
						fifoBreaks.Add(1)
					}
					last = idx
					delivered.Add(1)
				}
			}()

			for i := 0; i < total; i++ {
				switch i {
				case total / 3:
					hole.dead.Store(true) // the tail from here on is lost
				case total/3 + 30:
					if err := a.RemoveChannel(2); err != nil { // and so is the delimiter
						t.Fatal(err)
					}
				}
				payload := make([]byte, 200)
				binary.BigEndian.PutUint64(payload, uint64(i))
				if err := a.SendBytes(payload); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			want := total - hole.lostData.Load()
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && delivered.Load() < want {
				time.Sleep(time.Millisecond)
			}
			_, rx := b.ChannelState(2)
			snapB := b.Snapshot()
			sentA := a.SendStats()
			a.Close()
			b.Close()
			for i := 0; i < nch; i++ {
				a2b[i].Close()
				b2a[i].Close()
			}
			wg.Wait()
			<-done

			if hole.lostData.Load() == 0 {
				t.Fatal("the dead link carried no data; the test exercised nothing")
			}
			if got := delivered.Load(); got != want {
				t.Errorf("delivered %d packets, want the %d striped over live links", got, want)
			}
			if got := fifoBreaks.Load(); got != 0 {
				t.Errorf("%d FIFO violations", got)
			}
			if rx != MemberRemoved {
				t.Errorf("receive slot 2 is %v, want removed by the drain clock; row %+v", rx, snapB.Channels[2].Rx)
			}
			if snapB.InvariantViolations != 0 {
				t.Errorf("invariant violations: %v", snapB.Violations)
			}
			if t.Failed() {
				// Name the missing packets' fate: what a sent on each
				// channel, what b's ledger says became of it, what the dead
				// link swallowed, and what b's flight recorder saw last.
				t.Logf("dead link swallowed %d data packets", hole.lostData.Load())
				for c, row := range sentA.PerChannel {
					t.Logf("a channel %d: tx %+v", c, row)
				}
				for c, ch := range snapB.Channels {
					t.Logf("b channel %d: rx %+v", c, ch.Rx)
				}
				if d, ok := frB.LastDump(); ok {
					t.Logf("b flight recorder: %s on %v; events %v", d.Reason, d.Trigger, d.Events)
				} else {
					t.Logf("b flight recorder (no dump): events %v", frB.Events())
				}
			}
		})
	}
}

// TestSessionTCPKillMidTransfer stripes a transfer over three real TCP
// connections and kills one cold, mid-transfer. The sender's error
// streak must evict the dead channel, the receiver must retire it and
// keep delivering in order, and the tail of the stream must complete on
// the survivors — the end-to-end version of the paper's claim that the
// protocol degrades gracefully when a physical channel fails.
func TestSessionTCPKillMidTransfer(t *testing.T) {
	const nch = 3
	const killCh = 1
	const total = 3000

	colA := NewNamedCollector("tcp-a", nch)
	colB := NewNamedCollector("tcp-b", nch)
	colA.SetChecker(NewChecker())
	colB.SetChecker(NewChecker())

	mkPairs := func() (tx, rx [nch]*netchan.TCPChannel) {
		for i := 0; i < nch; i++ {
			s, r, err := netchan.TCPPair()
			if err != nil {
				t.Fatal(err)
			}
			tx[i], rx[i] = s, r
		}
		return
	}
	txAB, rxAB := mkPairs()
	txBA, rxBA := mkPairs()

	cfg := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical, Collector: col},
			CreditWindow:   16 * 1024,
			MarkerInterval: 2 * time.Millisecond,
			Health:         HealthConfig{EvictAfter: 3},
		}
	}
	sendersA := make([]ChannelSender, nch)
	sendersB := make([]ChannelSender, nch)
	for i := 0; i < nch; i++ {
		sendersA[i], sendersB[i] = txAB[i], txBA[i]
	}
	a, err := NewSession(sendersA, cfg(colA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(sendersB, cfg(colB))
	if err != nil {
		t.Fatal(err)
	}

	// Socket pumps: a read error (the killed connection, or teardown)
	// ends the pump; timeouts just poll again.
	var stop atomic.Bool
	var wg sync.WaitGroup
	pump := func(ch *netchan.TCPChannel, deliver func(*Packet)) {
		defer wg.Done()
		for !stop.Load() {
			p, err := ch.ReadPacket(50 * time.Millisecond)
			if err != nil {
				return
			}
			if p != nil {
				deliver(p)
			}
		}
	}
	for i := 0; i < nch; i++ {
		i := i
		wg.Add(2)
		go pump(rxAB[i], func(p *Packet) { b.Arrive(i, p) })
		go pump(rxBA[i], func(p *Packet) { a.Arrive(i, p) })
	}

	var delivered, fifoBreaks atomic.Int64
	var lastIdx atomic.Int64
	lastIdx.Store(-1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			lastIdx.Store(last)
			delivered.Add(1)
		}
	}()

	for i := 0; i < total; i++ {
		if i == total/3 {
			// Kill the connection cold from both ends: writes fail at A,
			// whatever the kernel still buffered is destroyed.
			txAB[killCh].Close()
			rxAB[killCh].Close()
		}
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// The last packet is sent after the eviction settles, over healthy
	// survivors: its delivery is the completion signal.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && lastIdx.Load() != total-1 {
		time.Sleep(time.Millisecond)
	}

	snapA := a.Snapshot()
	stop.Store(true)
	a.Close()
	b.Close()
	for i := 0; i < nch; i++ {
		txAB[i].Close()
		rxAB[i].Close()
		txBA[i].Close()
		rxBA[i].Close()
	}
	wg.Wait()
	<-done

	if got := lastIdx.Load(); got != total-1 {
		t.Fatalf("transfer did not complete on the survivors: last index %d of %d", got, total-1)
	}
	if got := fifoBreaks.Load(); got != 0 {
		t.Errorf("%d FIFO violations after the link kill", got)
	}
	if tx, _ := a.ChannelState(killCh); tx != MemberRemoved {
		t.Errorf("killed channel tx state = %v, want removed (evicted)", tx)
	}
	var evictions int64
	for _, cs := range snapA.Channels {
		evictions += cs.MemberEvictions
	}
	if evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", evictions)
	}
	// Loss is bounded by what the dead connection had in flight; the
	// survivors' share must all arrive.
	if got := delivered.Load(); got < total*2/3 {
		t.Errorf("delivered only %d/%d packets", got, total)
	}
}
