package core

import (
	"math/rand"
	"runtime"
	"testing"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// TestNextBatchEquivalentToNext feeds one impaired striped stream to
// two identical resequencers and drains one through Next and the other
// through NextBatch with awkward batch sizes. The run-continuation fast
// path inside NextBatch must produce exactly the delivery sequence the
// plain scan does, including across losses, markers, and the blocking
// boundaries where both drains come up empty.
func TestNextBatchEquivalentToNext(t *testing.T) {
	const nch = 3
	quanta := []int64{1500, 1000, 1500}
	g := channel.NewGroup(nch, channel.Impairments{Loss: 0.05, Seed: 11})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 2, Position: 0},
	})
	rsA := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
	rsB := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})

	rng := rand.New(rand.NewSource(7))
	var gotA, gotB []uint64
	buf := make([]*packet.Packet, 16)
	drainBoth := func() {
		for {
			p, ok := rsA.Next()
			if !ok {
				break
			}
			gotA = append(gotA, p.ID)
		}
		for {
			// Batch sizes cycle through small odd values so batch
			// boundaries land at every possible offset within runs.
			n := rsB.NextBatch(buf[:1+rng.Intn(len(buf)-1)])
			if n == 0 {
				break
			}
			for _, p := range buf[:n] {
				gotB = append(gotB, p.ID)
			}
		}
	}

	// Arrive owns a control packet and releases it, so the second
	// resequencer gets a copy, taken before the first can let go.
	tee := func(c int, p *packet.Packet) {
		q := p.Clone()
		rsA.Arrive(c, p)
		rsB.Arrive(c, q)
	}
	for i := 0; i < 4000; i++ {
		size := 100 + rng.Intn(1300)
		if err := st.Send(packet.NewData(make([]byte, size))); err != nil {
			t.Fatal(err)
		}
		for c, q := range g.Queues {
			if p, ok := q.Recv(); ok {
				tee(c, p)
			}
		}
		if i%17 == 0 {
			drainBoth()
		}
	}
	for c, q := range g.Queues {
		for {
			p, ok := q.Recv()
			if !ok {
				break
			}
			tee(c, p)
		}
	}
	drainBoth()

	if len(gotA) == 0 {
		t.Fatal("no deliveries at all")
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("Next delivered %d packets, NextBatch %d", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("delivery %d: Next gave ID %d, NextBatch gave ID %d", i, gotA[i], gotB[i])
		}
	}
	sa, sb := rsA.Stats(), rsB.Stats()
	if sa.Delivered != sb.Delivered || sa.DeliveredBytes != sb.DeliveredBytes {
		t.Fatalf("stats diverged: Next %+v, NextBatch %+v", sa, sb)
	}
}

// TestBatchedPathSteadyStateZeroAlloc pins the zero-allocation claim of
// the batched hot path: once the pool and every internal buffer have
// reached steady state, a full send-batch / arrive / next-batch /
// release cycle performs no heap allocation at all. Markers are
// disabled because marker emission builds control payloads (an
// annotated, accounted-for escape); the data path itself must be clean.
func TestBatchedPathSteadyStateZeroAlloc(t *testing.T) {
	const nch, batch = 4, 64
	quanta := sched.UniformQuanta(nch, 1500)
	g := channel.NewGroup(nch, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})

	rng := rand.New(rand.NewSource(3))
	pkts := make([]*packet.Packet, batch)
	delivered := make([]*packet.Packet, batch+nch)
	cycle := func(size func() int) {
		for i := range pkts {
			pkts[i] = packet.GetSized(size())
		}
		if n, err := st.SendBatch(pkts); err != nil || n != batch {
			t.Fatalf("SendBatch: n=%d err=%v", n, err)
		}
		for c, q := range g.Queues {
			for {
				p, ok := q.Recv()
				if !ok {
					break
				}
				rs.Arrive(c, p)
			}
		}
		for {
			n := rs.NextBatch(delivered)
			if n == 0 {
				break
			}
			for _, p := range delivered[:n] {
				p.Release()
			}
		}
	}
	// The pool is the process's: two collections empty it of whatever
	// earlier tests released (control packets, small payloads), so the
	// packets cycling below are exactly the ones warmed here.
	runtime.GC()
	runtime.GC()
	// Warm to steady state: the max-size pass grows every cycling
	// payload to full capacity so GetSized never reallocates, then mixed
	// sizes settle the queue and resequencer buffers.
	for i := 0; i < 4; i++ {
		cycle(func() int { return 1000 })
	}
	for i := 0; i < 32; i++ {
		cycle(func() int { return 200 + rng.Intn(801) })
	}

	if a := testing.AllocsPerRun(50, func() {
		for i := 0; i < batch; i++ {
			packet.Get().Release()
		}
	}); a != 0 {
		t.Skipf("the packet pool itself allocates here (%v per %d cycles; sync.Pool sheds under -race), so the hot path's share cannot be told apart", a, batch)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cycle(func() int { return 200 + rng.Intn(801) })
	})
	if allocs != 0 {
		t.Fatalf("steady-state batched cycle allocates %.1f times per run, want 0", allocs)
	}
}
