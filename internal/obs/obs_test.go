package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// testLedgers is a hand-driven engine pair for collector tests: tests
// mutate the ledgers the way an engine would and publish them.
type testLedgers struct {
	c    *Collector
	send SendLedger
	recv RecvLedger
}

func newTestLedgers(c *Collector, quanta ...int64) *testLedgers {
	l := &testLedgers{
		c:    c,
		send: SendLedger{PerChannel: make([]SendChannel, c.N())},
		recv: RecvLedger{PerChannel: make([]RecvChannel, c.N())},
	}
	for i, q := range quanta {
		l.send.PerChannel[i].Quantum = q
	}
	return l
}

// stripe counts one data packet striped onto channel ch.
func (l *testLedgers) stripe(ch int, size int64) {
	l.send.PerChannel[ch].Packets++
	l.send.PerChannel[ch].Bytes += size
	if size > l.send.MaxPacket {
		l.send.MaxPacket = size
	}
}

// deliver counts one data packet received on ch and handed up.
func (l *testLedgers) deliver(ch int, size int64) {
	row := &l.recv.PerChannel[ch]
	row.Arrived++
	row.ArrivedBytes += size
	row.Delivered++
	row.DeliveredBytes += size
}

func (l *testLedgers) publish() {
	l.c.PublishSend(&l.send)
	l.c.PublishRecv(&l.recv)
}

// TestNilCollectorIsSafe checks that every writer is a no-op on a nil
// *Collector: instrumented code never guards calls beyond one pointer
// test, so the nil receiver must absorb the full surface.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.PublishSend(&SendLedger{})
	c.PublishRecv(&RecvLedger{})
	c.Emit(KindResync, 0, 5, -100)
	c.Displaced(2)
	c.AddCreditStall(time.Millisecond)
	c.OnCreditRejected(0)
	c.SetChannelSource(0, func() (int64, int64) { return 1, 1 })
	if d, b := c.Fairness(); d != 0 || b != 0 {
		t.Fatalf("nil Fairness = %d, %d", d, b)
	}
	if s := c.Snapshot(); len(s.Channels) != 0 {
		t.Fatalf("nil Snapshot has channels: %+v", s)
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	c := NewNamedCollector("t", 2)
	if c.N() != 2 || c.Name() != "t" {
		t.Fatalf("N=%d Name=%q", c.N(), c.Name())
	}
	l := newTestLedgers(c, 1500, 1500)
	l.stripe(0, 1000)
	l.stripe(0, 500)
	l.stripe(1, 1500)
	l.send.Round = 1
	l.send.PerChannel[0].Markers++
	l.deliver(1, 1500)
	l.deliver(0, 1000)
	c.Displaced(0)
	c.Displaced(3)
	l.recv.PerChannel[0].Arrived++
	l.recv.PerChannel[0].Markers++
	l.recv.Occupancy, l.recv.HighWater = 2, 5
	c.SetChannelSource(1, func() (int64, int64) { return 1, 8 })
	l.publish()

	s := c.Snapshot()
	if s.Channels[0].Tx.Packets != 2 || s.Channels[0].Tx.Bytes != 1500 {
		t.Fatalf("channel 0 striped: %+v", s.Channels[0])
	}
	if s.Channels[1].Tx.Bytes != 1500 || s.Channels[1].Lost != 1 || s.Channels[1].QueueDepth != 8 {
		t.Fatalf("channel 1: %+v", s.Channels[1])
	}
	if s.Channels[0].Rx.Delivered != 1 || s.Channels[1].Rx.DeliveredBytes != 1500 {
		t.Fatalf("delivered: %+v", s.Channels)
	}
	if s.Tx.Packets != 3 || s.Rx.Delivered != 2 || s.Rx.Markers != 1 {
		t.Fatalf("totals: tx %+v rx %+v", s.Tx, s.Rx)
	}
	if s.MaxPacket != 1500 {
		t.Fatalf("MaxPacket = %d", s.MaxPacket)
	}
	if s.Buffered != 2 || s.BufferedHighWater != 5 {
		t.Fatalf("buffered %d high water %d", s.Buffered, s.BufferedHighWater)
	}
	// K=1, quanta 1500/1500, bytes 1500/1500 -> discrepancy 0,
	// bound = Max + 2*Quantum = 1500 + 3000.
	if s.FairnessDiscrepancy != 0 || s.FairnessBound != 4500 {
		t.Fatalf("fairness %d/%d", s.FairnessDiscrepancy, s.FairnessBound)
	}
	// Displacement histogram saw one 0 and one 3 (bucket le=4).
	if s.Displacement.Count != 2 || s.Displacement.Sum != 3 {
		t.Fatalf("displacement %+v", s.Displacement)
	}
}

func TestFairnessDiscrepancy(t *testing.T) {
	c := NewCollector(2)
	if d, b := c.Fairness(); d != 0 || b != 0 {
		t.Fatalf("fresh collector fairness %d/%d", d, b)
	}
	l := newTestLedgers(c, 1000, 500)
	l.stripe(0, 1800) // deficit vs K*Q0 = 2000: 200
	l.stripe(1, 1300) // surplus vs K*Q1 = 1000: 300
	l.send.Round = 2
	l.publish()
	d, b := c.Fairness()
	if d != 300 {
		t.Fatalf("discrepancy = %d, want 300", d)
	}
	if want := int64(1800 + 2*1000); b != want {
		t.Fatalf("bound = %d, want %d", b, want)
	}
}

func TestEventsAndRingSink(t *testing.T) {
	c := NewCollector(2)
	ring := NewRingSink(4)
	c.AddSink(ring)
	var funcGot []Event
	c.AddSink(SinkFunc(func(e Event) { funcGot = append(funcGot, e) }))

	c.Emit(KindResync, 0, 5, -100)
	c.Emit(KindSkip, 1, 6, 0)
	c.Emit(KindReset, -1, 0, 2)
	c.Emit(KindSelfHeal, -1, 9, 0)
	c.Emit(KindFastForward, -1, 3, 6)
	c.Emit(KindCreditExhausted, 0, 0, 700)

	if got := ring.Total(); got != 6 {
		t.Fatalf("ring total = %d, want 6", got)
	}
	evs := ring.Events()
	if len(evs) != 4 { // bounded: keeps only the newest 4
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	wantKinds := []Kind{KindReset, KindSelfHeal, KindFastForward, KindCreditExhausted}
	for i, e := range evs {
		if e.Kind != wantKinds[i] {
			t.Fatalf("ring[%d] = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}
	if len(funcGot) != 6 {
		t.Fatalf("SinkFunc saw %d events", len(funcGot))
	}
	// Seq is assigned monotonically across sinks.
	for i := 1; i < len(funcGot); i++ {
		if funcGot[i].Seq != funcGot[i-1].Seq+1 {
			t.Fatalf("non-monotone seq: %v", funcGot)
		}
	}
	if s := funcGot[0].String(); !strings.Contains(s, "resync") || !strings.Contains(s, "channel=0") {
		t.Fatalf("event string %q", s)
	}
	// Event counters made it into the snapshot.
	snap := c.Snapshot()
	for _, k := range []string{"resync", "skip", "reset", "self_heal", "fast_forward", "credit_exhausted"} {
		if snap.Events[k] != 1 {
			t.Fatalf("snapshot events %v, missing %s", snap.Events, k)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 900, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 5904 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
	if len(s.Buckets) != len(s.Bounds)+1 {
		t.Fatalf("%d buckets for %d bounds", len(s.Buckets), len(s.Bounds))
	}
	find := func(bound int64) int64 {
		for i, b := range s.Bounds {
			if b == bound {
				return s.Buckets[i]
			}
		}
		t.Fatalf("no bucket bound %d", bound)
		return 0
	}
	if find(0) != 1 || find(1) != 1 || find(4) != 1 || find(1024) != 1 {
		t.Fatalf("bucket placement: %+v", s)
	}
	if s.Buckets[len(s.Buckets)-1] != 1 { // +Inf overflow
		t.Fatalf("overflow bucket: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	a := NewNamedCollector("a", 2)
	b := NewNamedCollector("b", 1)
	la := newTestLedgers(a, 1500, 1500)
	la.stripe(0, 1000)
	la.send.Round = 1
	la.send.PerChannel[1].Markers++
	la.recv.PerChannel[0].Resyncs++
	a.Emit(KindResync, 0, 4, 0)
	la.deliver(0, 1000)
	a.Displaced(2)
	la.publish()
	lb := newTestLedgers(b)
	lb.stripe(0, 64)
	lb.publish()

	var sb strings.Builder
	WritePrometheus(&sb, a, b)
	out := sb.String()
	for _, want := range []string{
		`stripe_channel_bytes_total{session="a",channel="0",dir="tx"} 1000`,
		`stripe_markers_total{session="a",channel="1",dir="tx"} 1`,
		`stripe_resync_events_total{session="a",channel="0"} 1`,
		`stripe_fairness_discrepancy_bytes{session="a"} 1500`,
		`stripe_fairness_bound_bytes{session="a"} 4000`,
		`stripe_channel_bytes_total{session="b",channel="0",dir="tx"} 64`,
		`stripe_protocol_events_total{session="a",kind="resync"} 1`,
		`stripe_displacement_packets_bucket{session="a",le="2"} 1`,
		`stripe_displacement_packets_sum{session="a"} 2`,
		`stripe_displacement_packets_count{session="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE appear exactly once per metric even with two collectors.
	if n := strings.Count(out, "# TYPE stripe_channel_bytes_total counter"); n != 1 {
		t.Fatalf("TYPE line appears %d times", n)
	}
}

// TestWritePrometheusUnnamed checks that multiple unnamed collectors
// get synthesized session labels instead of colliding.
func TestWritePrometheusUnnamed(t *testing.T) {
	a, b := NewCollector(1), NewCollector(1)
	var sb strings.Builder
	WritePrometheus(&sb, a, b)
	out := sb.String()
	if !strings.Contains(out, `session="c0"`) || !strings.Contains(out, `session="c1"`) {
		t.Fatalf("missing synthesized labels:\n%s", out)
	}
}

// TestConcurrentUse hammers one collector from many goroutines — engines
// publishing, the bus emitting, scrapes reading; run under -race this is
// the proof that publication and reads are properly synchronized.
func TestConcurrentUse(t *testing.T) {
	c := NewCollector(4)
	ring := NewRingSink(16)
	c.AddSink(ring)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := newTestLedgers(c)
			ch := g % 4
			for i := 0; i < 1000; i++ {
				l.stripe(ch, 100)
				l.deliver(ch, 100)
				c.Displaced(int64(i % 3))
				l.send.Round = uint64(i)
				if i%2 == 0 {
					c.PublishSend(&l.send)
				} else {
					c.PublishRecv(&l.recv)
				}
				if i%100 == 0 {
					c.Emit(KindResync, ch, uint64(i), 0)
					var sb strings.Builder
					c.WritePrometheus(&sb)
					_ = c.Snapshot()
				}
			}
			l.publish()
		}(g)
	}
	wg.Wait()
	// Every goroutine published its own absolute ledger, so the survivor
	// of the last-writer race holds exactly one goroutine's totals.
	s := c.Snapshot()
	if s.Tx.Packets != 1000 || s.Rx.Delivered != 1000 {
		t.Fatalf("published totals tx %d rx %d, want one goroutine's 1000", s.Tx.Packets, s.Rx.Delivered)
	}
	if s.Displacement.Count != 8*1000 {
		t.Fatalf("displacement count %d", s.Displacement.Count)
	}
}
