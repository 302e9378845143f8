package channel

import (
	"testing"
	"time"

	"stripe/internal/packet"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(Impairments{})
	for i := 0; i < 100; i++ {
		p := packet.NewDataSized(i + 1)
		p.ID = uint64(i)
		if err := q.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		p, ok := q.Recv()
		if !ok || p.ID != uint64(i) {
			t.Fatalf("packet %d: %v %v", i, p, ok)
		}
	}
	if _, ok := q.Recv(); ok {
		t.Fatal("Recv on empty queue succeeded")
	}
}

func TestQueueClose(t *testing.T) {
	q := NewQueue(Impairments{})
	q.Close()
	if err := q.Send(packet.NewDataSized(1)); err != ErrClosed {
		t.Fatalf("Send on closed queue: %v", err)
	}
}

func TestQueueLossRate(t *testing.T) {
	q := NewQueue(Impairments{Loss: 0.3, Seed: 11})
	const n = 20000
	for i := 0; i < n; i++ {
		q.Send(packet.NewDataSized(100))
	}
	st := q.Stats()
	frac := float64(st.Lost) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("loss fraction %.4f, want ~0.30", frac)
	}
	if st.Sent != n {
		t.Fatalf("Sent = %d", st.Sent)
	}
	if int64(q.Len())+st.Lost != n {
		t.Fatalf("queued %d + lost %d != %d", q.Len(), st.Lost, n)
	}
}

func TestQueueCorruption(t *testing.T) {
	q := NewQueue(Impairments{Corrupt: 0.5, Seed: 3})
	const n = 10000
	for i := 0; i < n; i++ {
		q.Send(packet.NewDataSized(10))
	}
	st := q.Stats()
	if st.Corrupted < 4500 || st.Corrupted > 5500 {
		t.Fatalf("corrupted = %d, want ~5000", st.Corrupted)
	}
}

func TestQueueDeterministicUnderSeed(t *testing.T) {
	a := NewQueue(Impairments{Loss: 0.5, Seed: 77})
	b := NewQueue(Impairments{Loss: 0.5, Seed: 77})
	for i := 0; i < 1000; i++ {
		a.Send(packet.NewDataSized(10))
		b.Send(packet.NewDataSized(10))
	}
	if a.Stats().Lost != b.Stats().Lost || a.Len() != b.Len() {
		t.Fatal("same seed, different outcome")
	}
}

func TestBoundedQueueOverflow(t *testing.T) {
	// Five one-byte packets into a three-byte buffer.
	q := NewByteBoundedQueue(Impairments{}, 3)
	for i := 0; i < 5; i++ {
		q.Send(packet.NewDataSized(1))
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if st := q.Stats(); st.Overflowed != 2 {
		t.Fatalf("Overflowed = %d, want 2", st.Overflowed)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// A bursty channel: rarely enters the bad state, loses most packets
	// while there. Check the aggregate rate is near the analytic
	// stationary value and that losses cluster.
	ge := GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, GoodLoss: 0, BadLoss: 0.9}
	q := NewQueue(Impairments{Burst: ge, Seed: 5})
	const n = 100000
	lostRun, maxRun := 0, 0
	for i := 0; i < n; i++ {
		before := q.Stats().Lost
		q.Send(packet.NewDataSized(10))
		if q.Stats().Lost > before {
			lostRun++
			if lostRun > maxRun {
				maxRun = lostRun
			}
		} else {
			lostRun = 0
		}
		// Drain to keep memory flat.
		q.Recv()
	}
	// Stationary bad-state probability = p/(p+q) = 0.01/0.21 ≈ 0.0476;
	// expected loss ≈ 0.0476*0.9 ≈ 4.3%.
	frac := float64(q.Stats().Lost) / n
	if frac < 0.03 || frac > 0.06 {
		t.Fatalf("burst loss fraction %.4f, want ~0.043", frac)
	}
	if maxRun < 3 {
		t.Fatalf("max loss run %d; losses did not cluster", maxRun)
	}
}

func TestGroupIndependentSeeds(t *testing.T) {
	g := NewGroup(2, Impairments{Loss: 0.5, Seed: 9})
	for i := 0; i < 1000; i++ {
		g.Queues[0].Send(packet.NewDataSized(10))
		g.Queues[1].Send(packet.NewDataSized(10))
	}
	if g.Queues[0].Stats().Lost == g.Queues[1].Stats().Lost {
		// Could coincide, but with 1000 trials it is vanishingly
		// unlikely unless the processes share a seed.
		t.Fatal("channels appear to share a loss process")
	}
	ts := g.TotalStats()
	if ts.Sent != 2000 {
		t.Fatalf("total sent = %d", ts.Sent)
	}
	if len(g.Senders()) != 2 {
		t.Fatal("adapter slices wrong length")
	}
}

func TestLiveChannelFIFOAndDelay(t *testing.T) {
	l := NewLive(LiveConfig{Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	defer l.Close()
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		p := packet.NewDataSized(10)
		p.ID = uint64(i)
		if err := l.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case p := <-l.Out():
			if p.ID != uint64(i) {
				t.Fatalf("packet %d has ID %d (FIFO violated)", i, p.ID)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("packet %d timed out", i)
		}
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delivery too fast: %v", elapsed)
	}
	st := l.Stats()
	if st.Sent != n || st.Delivered != n {
		t.Fatalf("stats %+v", st)
	}
}

func TestLiveChannelLoss(t *testing.T) {
	l := NewLive(LiveConfig{Impairments: Impairments{Loss: 1.0}})
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Send(packet.NewDataSized(10)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-l.Out():
		t.Fatalf("packet %v survived 100%% loss", p)
	case <-time.After(50 * time.Millisecond):
	}
	// All sends counted, all lost (allow the pump a moment).
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().Lost == 10 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("lost = %d, want 10", l.Stats().Lost)
}

func TestLiveChannelClose(t *testing.T) {
	l := NewLive(LiveConfig{})
	l.Close()
	l.Close() // idempotent
	// Sends after close fail (possibly after the stop race settles).
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if err := l.Send(packet.NewDataSized(1)); err == ErrClosed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("Send never failed after Close")
}

func TestLiveChannelRecvNonBlocking(t *testing.T) {
	l := NewLive(LiveConfig{})
	defer l.Close()
	if _, ok := l.Recv(); ok {
		t.Fatal("Recv returned a packet on an idle channel")
	}
	l.Send(packet.NewDataSized(3))
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if p, ok := l.Recv(); ok {
			if p.Len() != 3 {
				t.Fatalf("wrong packet %v", p)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("packet never delivered")
}

func TestLiveChannelRate(t *testing.T) {
	// 10 packets of 1250 bytes at 1 Mb/s = 10 ms serialization each:
	// the last packet cannot arrive before ~100 ms.
	l := NewLive(LiveConfig{RateBps: 1e6})
	defer l.Close()
	start := time.Now()
	for i := 0; i < 10; i++ {
		l.Send(packet.NewDataSized(1250))
	}
	got := 0
	for got < 10 {
		select {
		case <-l.Out():
			got++
		case <-time.After(5 * time.Second):
			t.Fatal("timed out")
		}
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("10 kB at 1 Mb/s took only %v", elapsed)
	}
}
