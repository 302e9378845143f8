package core

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// eventLog is a SinkFunc target collecting events by kind for
// assertions. Single-threaded tests: no locking needed.
type eventLog struct {
	byKind map[obs.Kind][]obs.Event
}

func newEventLog(c *obs.Collector) *eventLog {
	l := &eventLog{byKind: make(map[obs.Kind][]obs.Event)}
	c.AddSink(obs.SinkFunc(func(e obs.Event) {
		l.byKind[e.Kind] = append(l.byKind[e.Kind], e)
	}))
	return l
}

// TestObsLossThenMarkerOneResyncPerChannel reruns the Section 5
// walkthrough scenario — one data packet lost on one channel, markers
// restoring synchronization — and checks the event stream: exactly one
// resync event, on the channel that took the loss, and none on the
// healthy channel.
func TestObsLossThenMarkerOneResyncPerChannel(t *testing.T) {
	const nch = 2
	quanta := sched.UniformQuanta(nch, 100)
	g := channel.NewGroup(nch, channel.Impairments{})
	col := obs.NewCollector(nch)
	log := newEventLog(col)

	// Packet size == quantum, so SRR reduces to RR and ingress ID i
	// lands on channel i%2; dropping IDs 6 and 8 means channel 0 takes
	// a two-round hole and channel 1 stays healthy. Markers every 6
	// rounds, as in the Figure 8-13 walkthrough: misordering happens
	// first, then the marker repairs. The hole spans more rounds than
	// the marker closes with EndService alone, so the skip rule must
	// step channel 0 past the missing round.
	senders := make([]channel.Sender, nch)
	for i, s := range g.Senders() {
		senders[i] = &dropSender{inner: s, drop: map[uint64]bool{6: true, 8: true}}
	}
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 6, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  ModeLogical,
		Obs:   col,
	})
	for i := 0; i < 18; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	got := pumpAll(g, rs)
	if len(got) != 16 {
		t.Fatalf("delivered %d packets, want 16 (two lost)", len(got))
	}

	resyncs := log.byKind[obs.KindResync]
	if len(resyncs) != 1 {
		t.Fatalf("got %d resync events, want exactly 1: %v", len(resyncs), resyncs)
	}
	if resyncs[0].Channel != 0 {
		t.Fatalf("resync on channel %d, want 0 (the lossy channel)", resyncs[0].Channel)
	}
	if int64(len(resyncs)) != rs.Stats().Resyncs {
		t.Fatalf("event count %d != stats.Resyncs %d", len(resyncs), rs.Stats().Resyncs)
	}
	// The skip rule fired to step past the hole; every skip event must
	// be mirrored in the stats counter.
	skips := log.byKind[obs.KindSkip]
	if len(skips) == 0 {
		t.Fatal("no skip events for a loss that requires skipping")
	}
	if int64(len(skips)) != rs.Stats().Skips {
		t.Fatalf("skip events %d != stats.Skips %d", len(skips), rs.Stats().Skips)
	}
	// Snapshot agrees with the event stream, per channel.
	snap := col.Snapshot()
	if snap.Channels[0].Rx.Resyncs != 1 || snap.Channels[1].Rx.Resyncs != 0 {
		t.Fatalf("per-channel resync counters: %+v", snap.Channels)
	}
	if snap.Events["resync"] != 1 {
		t.Fatalf("snapshot events: %v", snap.Events)
	}
}

// TestObsSelfHealEvent reruns the corrupt-receiver-state scenario from
// selfheal_test.go and checks that healing emits self_heal events (one
// per heal, matching stats) and no reset events.
func TestObsSelfHealEvent(t *testing.T) {
	const nch = 2
	quanta := sched.UniformQuanta(nch, 100)
	g := channel.NewGroup(nch, channel.Impairments{})
	col := obs.NewCollector(nch)
	log := newEventLog(col)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 2, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  ModeLogical,
		Obs:   col,
	})
	for i := 0; i < 20; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	pumpAll(g, rs)

	// Corrupt the receiver's round so every marker looks stale.
	rs.s.Restore(sched.State{Current: 0, Round: 1 << 20, Deficits: make([]int64, nch)})
	for i := 0; i < 200; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	pumpAll(g, rs)

	heals := log.byKind[obs.KindSelfHeal]
	if len(heals) == 0 {
		t.Fatal("no self_heal events after corrupt-state recovery")
	}
	if int64(len(heals)) != rs.Stats().SelfHeals {
		t.Fatalf("self_heal events %d != stats.SelfHeals %d", len(heals), rs.Stats().SelfHeals)
	}
	if got := log.byKind[obs.KindReset]; len(got) != 0 {
		t.Fatalf("self-heal must not emit reset events, got %v", got)
	}
}

// TestObsResetEvents checks both ends of an epoch reset: the sender's
// collector counts the reset it initiates, and the receiver's emits a
// reset event when the reset packet is applied.
func TestObsResetEvents(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	quanta := []int64{100, 100}
	txCol := obs.NewCollector(2)
	rxCol := obs.NewCollector(2)
	log := newEventLog(rxCol)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Obs:      txCol,
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  ModeLogical,
		Obs:   rxCol,
	})
	for i := 0; i < 7; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	pumpAll(g, rs)

	if got := txCol.Snapshot().Resets; got != 1 {
		t.Fatalf("sender reset counter = %d, want 1", got)
	}
	resets := log.byKind[obs.KindReset]
	if len(resets) != 1 {
		t.Fatalf("got %d reset events, want 1: %v", len(resets), resets)
	}
	if resets[0].Value != 1 {
		t.Fatalf("reset event carries epoch %d, want 1", resets[0].Value)
	}
	if int64(len(resets)) != rs.Stats().Resets {
		t.Fatalf("reset events %d != stats.Resets %d", len(resets), rs.Stats().Resets)
	}
}

// TestObsStriperCounters checks the transmit-side per-channel load
// accounting and the live fairness gauge on a bimodal workload.
func TestObsStriperCounters(t *testing.T) {
	const nch = 4
	quanta := sched.UniformQuanta(nch, 1500)
	g := channel.NewGroup(nch, channel.Impairments{})
	col := obs.NewCollector(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 4, Position: 0},
		Obs:      col,
	})
	var sent, bytes int64
	for i := 0; i < 1000; i++ {
		size := 200
		if i%2 == 1 {
			size = 1000
		}
		if err := st.Send(packet.NewDataSized(size)); err != nil {
			t.Fatal(err)
		}
		sent++
		bytes += int64(size)
	}
	// Transmit counters are batched; a Stats call flushes them.
	_ = st.Stats()
	snap := col.Snapshot()
	var gotPkts, gotBytes, markers int64
	for _, ch := range snap.Channels {
		gotPkts += ch.Tx.Packets
		gotBytes += ch.Tx.Bytes
		markers += ch.Tx.Markers
	}
	if gotPkts != sent || gotBytes != bytes {
		t.Fatalf("collector saw %d pkts/%d bytes, striped %d/%d", gotPkts, gotBytes, sent, bytes)
	}
	if markers == 0 {
		t.Fatal("no markers counted")
	}
	if snap.Round != st.Round() {
		t.Fatalf("round gauge %d != striper round %d", snap.Round, st.Round())
	}
	if snap.FairnessBound == 0 {
		t.Fatal("fairness bound not derived")
	}
	if snap.FairnessDiscrepancy > snap.FairnessBound {
		t.Fatalf("fairness violated: %d > %d", snap.FairnessDiscrepancy, snap.FairnessBound)
	}
	// Stats() agrees with the collector's totals.
	st2 := st.Stats()
	if st2.DataPackets != sent || st2.DataBytes != bytes {
		t.Fatalf("Stats() %+v, want %d/%d", st2, sent, bytes)
	}
	if len(st2.PerChannel) != nch {
		t.Fatalf("PerChannel has %d entries", len(st2.PerChannel))
	}
}

// TestObsCollectorSizeValidation checks constructors reject collectors
// sized for a different channel count.
func TestObsCollectorSizeValidation(t *testing.T) {
	g := channel.NewGroup(2, channel.Impairments{})
	bad := obs.NewCollector(3)
	if _, err := NewStriper(StriperConfig{
		Sched:    sched.MustSRR(sched.UniformQuanta(2, 100)),
		Channels: g.Senders(),
		Obs:      bad,
	}); err == nil {
		t.Fatal("NewStriper accepted mis-sized collector")
	}
	if _, err := NewResequencer(ResequencerConfig{
		Sched: sched.MustSRR(sched.UniformQuanta(2, 100)),
		Mode:  ModeLogical,
		Obs:   bad,
	}); err == nil {
		t.Fatal("NewResequencer accepted mis-sized collector")
	}
}

// TestObsDisplacementHistogram checks that in-order delivery lands in
// the zero bucket and loss-induced reordering is recorded as positive
// displacement.
func TestObsDisplacementHistogram(t *testing.T) {
	const nch = 2
	quanta := sched.UniformQuanta(nch, 100)

	// Lossless run: every delivery in order, all displacement zero.
	g := channel.NewGroup(nch, channel.Impairments{})
	col := obs.NewCollector(nch)
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 2, Position: 0},
	})
	rs := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  ModeLogical,
		Obs:   col,
	})
	for i := 0; i < 50; i++ {
		if err := st.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	pumpAll(g, rs)
	d := col.Snapshot().Displacement
	if d.Count == 0 || d.Sum != 0 {
		t.Fatalf("lossless displacement count=%d sum=%d, want sum 0", d.Count, d.Sum)
	}

	// Lossy run: marker recovery skips past holes, so later deliveries
	// from the stalled channel arrive displaced.
	g2 := channel.NewGroup(nch, channel.Impairments{})
	col2 := obs.NewCollector(nch)
	senders := make([]channel.Sender, nch)
	for i, s := range g2.Senders() {
		senders[i] = &dropSender{inner: s, drop: map[uint64]bool{6: true}}
	}
	st2 := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: senders,
		Markers:  MarkerPolicy{Every: 6, Position: 0},
	})
	rs2 := mustReseq(t, ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  ModeLogical,
		Obs:   col2,
	})
	for i := 0; i < 18; i++ {
		if err := st2.Send(packet.NewDataSized(100)); err != nil {
			t.Fatal(err)
		}
	}
	pumpAll(g2, rs2)
	if d2 := col2.Snapshot().Displacement; d2.Sum == 0 {
		t.Fatalf("lossy run recorded no displacement: %+v", d2)
	}
}
