package stripe

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/netchan"
)

// TestDefaultMaxBuffered pins the FCVC-derived resequencer cap formula:
// 8 · n · ⌈window / min(quanta)⌉ with a 64-packet floor, and 0
// (unbounded) whenever the flow-control inputs are absent.
func TestDefaultMaxBuffered(t *testing.T) {
	cases := []struct {
		n      int
		window int64
		quanta []int64
		want   int
	}{
		{4, 65536, []int64{1500, 1500, 1500, 1500}, 8 * 4 * 44},
		{2, 4096, []int64{1500, 1500}, 64},         // 8*2*3 = 48 -> floor
		{2, 4096, []int64{1500, 500}, 8 * 2 * 9},   // min quantum rules
		{1, 100, []int64{1500}, 64},                // tiny window -> floor
		{0, 65536, []int64{1500}, 0},               // no channels
		{4, 0, []int64{1500, 1500, 1500, 1500}, 0}, // flow control off
		{4, 65536, nil, 0},                         // no quanta
		{4, 65536, []int64{0, -5, 0, 0}, 0},        // no positive quantum
	}
	for _, c := range cases {
		if got := DefaultMaxBuffered(c.n, c.window, c.quanta); got != c.want {
			t.Errorf("DefaultMaxBuffered(%d, %d, %v) = %d, want %d",
				c.n, c.window, c.quanta, got, c.want)
		}
	}
}

// TestSessionLifecycleTracing runs a duplex session pair with one
// shared lifecycle tracer, an invariant checker, and a flight recorder:
// the healthy run must produce latency histograms with monotone
// quantiles and zero invariant findings; a seeded credit-ledger
// corruption must then trip the checker and dump the flight recorder.
func TestSessionLifecycleTracing(t *testing.T) {
	const nch = 2
	const window = 4096
	colA := NewNamedCollector("lta", nch)
	colB := NewNamedCollector("ltb", nch)

	// One tracer across both ends: transmit stages stamp through colA,
	// receive stages through colB, same side table.
	tracer := NewTracer(TracerConfig{Sample: 1})
	colA.SetTracer(tracer)
	colB.SetTracer(tracer)
	checker := NewChecker()
	var findings []Violation
	checker.OnViolation = func(v Violation) { findings = append(findings, v) }
	colA.SetChecker(checker)
	fr := NewFlightRecorder(colA, FlightRecorderConfig{Cooldown: time.Nanosecond})
	colA.AddSink(fr)

	mkChans := func() ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{Seed: int64(i)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans()
	baChans, baSenders := mkChans()

	cfg := SessionConfig{
		Config: Config{
			Quanta:    UniformQuanta(nch, 1500),
			Markers:   MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
		},
		CreditWindow:   window,
		MarkerInterval: time.Millisecond,
	}
	bcfg := cfg
	bcfg.Collector = colB

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(baSenders, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		a.Close()
		b.Close()
		for _, ch := range append(abChans, baChans...) {
			ch.Close()
		}
	}()
	pump := func(chans []*LocalChannel, dst *Session) {
		for i, ch := range chans {
			go func(i int, ch *LocalChannel) {
				for p := range ch.Out() {
					dst.Arrive(i, p)
				}
			}(i, ch)
		}
	}
	pump(abChans, b)
	pump(baChans, a)

	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.SendBytes(make([]byte, 500)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := 0
	for got < n {
		p := b.Recv()
		if p == nil {
			t.Fatal("session closed early")
		}
		if p.Kind == KindData {
			got++
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Green: the healthy run satisfied every invariant (Snapshot flushes
	// and runs the checks one final time).
	snap := a.Snapshot()
	if len(findings) != 0 {
		t.Fatalf("healthy run produced findings: %+v", findings)
	}
	if snap.InvariantViolations != 0 {
		t.Fatalf("healthy run counted %d violations", snap.InvariantViolations)
	}
	if snap.Lifecycle == nil {
		t.Fatal("snapshot missing lifecycle aggregates")
	}

	ts := tracer.Snapshot()
	if ts.Tracked == 0 || ts.EndToEnd.Count == 0 || ts.ReseqDelay.Count == 0 {
		t.Fatalf("tracer saw nothing: %+v", ts)
	}
	p50, p90, p99 := ts.EndToEnd.Quantile(0.50), ts.EndToEnd.Quantile(0.90), ts.EndToEnd.Quantile(0.99)
	if p50 <= 0 || p50 > p90 || p90 > p99 {
		t.Fatalf("end-to-end quantiles not monotone: %d / %d / %d", p50, p90, p99)
	}
	// The traffic (100 KB) exceeded the per-channel window several times
	// over, so some traced packet must have stalled on credit.
	if ts.SendStall.Count == 0 {
		t.Fatal("no send-stall observations despite a small credit window")
	}
	if recent := tracer.Recent(); len(recent) == 0 {
		t.Fatal("no retained lifecycles")
	}

	// Red: corrupt the credit ledger the checker reads and flush. The
	// checker must fire and the flight recorder must dump.
	colA.SetCreditSource(func() []CreditAccount {
		return []CreditAccount{{Channel: 0, Granted: 10 * window, Consumed: 0, Window: window}}
	})
	snap = a.Snapshot()
	if len(findings) != 1 || findings[0].Check != "credit" {
		t.Fatalf("seeded ledger corruption not caught: %+v", findings)
	}
	if snap.InvariantViolations != 1 || len(snap.Violations) != 1 {
		t.Fatalf("violations missing from snapshot: %+v", snap.Violations)
	}
	d, ok := fr.LastDump()
	if !ok || d.Reason != "invariant violation" {
		t.Fatalf("flight recorder did not dump: ok=%v %+v", ok, d.Reason)
	}
	if !strings.Contains(d.Trigger.Kind.String(), "invariant") {
		t.Fatalf("dump trigger: %+v", d.Trigger)
	}
}

// TestTracedRemotePairDefaultsAddSeq pins the tracing ergonomics rule:
// configuring a lifecycle tracer implies AddSeq. A tracer keys packets
// by their sequence identity, and without AddSeq that identity is
// in-process only — it never survives an encoded channel, so every
// remote lifecycle would be torn. Here the pair crosses a real
// netchan encode/decode boundary (only wire-visible fields survive the
// hop) and cfg.AddSeq is never set; completed lifecycles prove the
// sequence identity made the trip.
func TestTracedRemotePairDefaultsAddSeq(t *testing.T) {
	t.Run("Session", tracedSessionPair)
	t.Run("SenderReceiver", tracedSenderReceiverPair)
}

// tracedSenderReceiverPair is the same rule for the one-way halves: a
// traced Sender over TCP channels with AddSeq left false must complete
// every lifecycle at the Receiver. The rule used to live in NewSession
// only, and NewSender lost all but a couple of lifecycles.
func tracedSenderReceiverPair(t *testing.T) {
	const nch, n = 2, 200
	col := NewNamedCollector("rmsr", nch)
	tracer := NewTracer(TracerConfig{Sample: 1})
	col.SetTracer(tracer)
	cfg := Config{Quanta: UniformQuanta(nch, 1500), Collector: col}

	senders := make([]ChannelSender, nch)
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range senders {
		s, r, err := NewTCPChannelPair()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		senders[i] = s
		go func(i int, r *TCPChannel) {
			for {
				p, err := r.ReadPacket(0)
				if err != nil {
					return // closed by the deferred Close above
				}
				rx.Arrive(i, p)
			}
		}(i, r)
	}
	tx, err := NewSender(senders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tx.SendBytes(make([]byte, 400)); err != nil {
			t.Fatal(err)
		}
	}
	tx.EmitMarkers()
	// A lost packet fails the count below instead of hanging the test.
	defer time.AfterFunc(10*time.Second, rx.Close).Stop()
	for got := 0; got < n; got++ {
		if rx.Recv() == nil {
			t.Fatalf("receiver closed after %d of %d", got, n)
		}
	}
	if ts := tracer.Snapshot(); ts.Tracked != n {
		t.Fatalf("completed lifecycles: %d of %d", ts.Tracked, n)
	}
}

func tracedSessionPair(t *testing.T) {
	const nch = 2
	colA := NewNamedCollector("rma", nch)
	colB := NewNamedCollector("rmb", nch)
	tracer := NewTracer(TracerConfig{Sample: 1})
	colA.SetTracer(tracer)
	colB.SetTracer(tracer)

	mkChans := func() ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{Seed: int64(i)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans()
	baChans, baSenders := mkChans()

	cfg := SessionConfig{
		Config: Config{
			Quanta:    UniformQuanta(nch, 1500),
			Markers:   MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
			// AddSeq deliberately left false: the tracer must turn it on.
		},
		CreditWindow:   4096,
		MarkerInterval: time.Millisecond,
	}
	bcfg := cfg
	bcfg.Collector = colB

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(baSenders, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		a.Close()
		b.Close()
		for _, ch := range append(abChans, baChans...) {
			ch.Close()
		}
	}()

	// The pump is the wire: every packet is flattened to its channel
	// framing and re-parsed, so nothing in-process (pointer identity,
	// unexported striper state) crosses to the peer.
	var seqFrames atomic.Int64
	pump := func(chans []*LocalChannel, dst *Session) {
		for i, ch := range chans {
			go func(i int, ch *LocalChannel) {
				for p := range ch.Out() {
					q, err := netchan.DecodeFrame(netchan.EncodeFrame(nil, p))
					if err != nil {
						t.Errorf("frame did not survive the wire: %v", err)
						continue
					}
					if q.HasSeq {
						seqFrames.Add(1)
					}
					dst.Arrive(i, q)
				}
			}(i, ch)
		}
	}
	pump(abChans, b)
	pump(baChans, a)

	const n = 100
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.SendBytes(make([]byte, 400)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := 0
	for got < n {
		p := b.Recv()
		if p == nil {
			t.Fatal("session closed early")
		}
		if p.Kind == KindData {
			got++
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if seqFrames.Load() == 0 {
		t.Fatal("no frame carried an explicit sequence number: tracer did not imply AddSeq")
	}
	ts := tracer.Snapshot()
	if ts.Tracked == 0 {
		t.Fatalf("no completed remote lifecycles: %+v", ts)
	}
	if ts.EndToEnd.Count == 0 {
		t.Fatalf("no end-to-end latency observations: %+v", ts)
	}
}
