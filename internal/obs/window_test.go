package obs

import (
	"strings"
	"testing"
	"time"
)

// mkHist builds a HistogramSnapshot on the latency ladder with the
// given per-bucket counts (padded with zeros).
func mkHist(counts ...int64) HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  latencyBounds[:],
		Buckets: make([]int64, len(latencyBounds)+1),
	}
	for i, c := range counts {
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// TestQuantileEdgeCases pins the estimator's contract at its corners:
// empty histograms, single-bucket mass, the extreme quantiles, q
// clamping, and the +Inf bucket.
func TestQuantileEdgeCases(t *testing.T) {
	empty := HistogramSnapshot{}
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}
	if got := (HistogramSnapshot{Count: 3}).Quantile(0.5); got != 0 {
		t.Errorf("bucketless snapshot Quantile = %d, want 0", got)
	}

	// All mass in the first bucket (bound 256): every quantile must
	// stay inside [0, 256], and q=1 must hit the bucket's upper bound.
	single := mkHist(10)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got := single.Quantile(q)
		if got < 0 || got > 256 {
			t.Errorf("single-bucket Quantile(%v) = %d, outside [0,256]", q, got)
		}
	}
	if got := single.Quantile(1); got != 256 {
		t.Errorf("single-bucket Quantile(1) = %d, want 256", got)
	}
	if got := single.Quantile(0); got != 0 {
		t.Errorf("single-bucket Quantile(0) = %d, want 0", got)
	}

	// Out-of-range q clamps instead of extrapolating.
	if got, want := single.Quantile(-3), single.Quantile(0); got != want {
		t.Errorf("Quantile(-3) = %d, want Quantile(0) = %d", got, want)
	}
	if got, want := single.Quantile(7), single.Quantile(1); got != want {
		t.Errorf("Quantile(7) = %d, want Quantile(1) = %d", got, want)
	}

	// Mass in the +Inf bucket clamps to the last finite bound.
	var inf Histogram
	inf.setBounds(latencyBounds[:])
	inf.Observe(1 << 40)
	if got, want := inf.Snapshot().Quantile(1), latencyBounds[len(latencyBounds)-1]; got != want {
		t.Errorf("+Inf bucket Quantile(1) = %d, want clamp to %d", got, want)
	}

	// Monotone in q across a multi-bucket distribution.
	multi := mkHist(5, 0, 7, 3, 1)
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := multi.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v -> %d after %d", q, got, prev)
		}
		prev = got
	}
}

// TestWindowDeltaMath pins the fold's delta derivation on injected
// fold times: exact per-second rates, loss fractions from both
// evidence sources, and resync-per-marker normalization.
func TestWindowDeltaMath(t *testing.T) {
	c := NewCollector(2)
	w := NewWindows(c, WindowConfig{Tick: time.Hour, Spans: []time.Duration{time.Hour}})
	w.nextFold.Store(1 << 62) // only the injected folds below run

	w.fold(0) // baseline row at t=0

	// One second of traffic: channel 0 stripes 100 pkts / 100kB and
	// loses 25 of them; channel 1 delivers 50 pkts / 30kB, consumes 10
	// markers, resyncs 5 times, and its markers prove 5kB lost in flight.
	l := newTestLedgers(c)
	l.send.PerChannel[0] = SendChannel{Packets: 100, Bytes: 100_000}
	c.SetChannelSource(0, func() (int64, int64) { return 25, 0 })
	l.send.PerChannel[1] = SendChannel{Packets: 100, Bytes: 50_000}
	l.recv.PerChannel[1] = RecvChannel{
		Arrived: 60, ArrivedBytes: 30_000, Delivered: 50, DeliveredBytes: 30_000,
		Markers: 10, Resyncs: 5, LossMarkers: 1, LostBytes: 5_000,
	}
	l.publish()
	w.fold(int64(time.Second))

	snap := w.Latest()
	if snap == nil || len(snap.Spans) != 1 {
		t.Fatalf("no snapshot after fold: %+v", snap)
	}
	sp := snap.Spans[0]
	if sp.Covered != time.Second {
		t.Fatalf("covered = %v, want 1s", sp.Covered)
	}
	ch0, ch1 := sp.Channels[0], sp.Channels[1]
	if ch0.TxBytesPerSec != 100_000 || ch0.TxPacketsPerSec != 100 {
		t.Errorf("ch0 tx rates = %v B/s %v pkt/s, want 100000/100", ch0.TxBytesPerSec, ch0.TxPacketsPerSec)
	}
	if got, want := ch0.LossFrac, 0.25; got != want {
		t.Errorf("ch0 loss frac = %v, want %v (25 drops / 100 striped)", got, want)
	}
	if ch1.RxBytesPerSec != 30_000 || ch1.RxPacketsPerSec != 50 {
		t.Errorf("ch1 rx rates = %v B/s %v pkt/s, want 30000/50", ch1.RxBytesPerSec, ch1.RxPacketsPerSec)
	}
	if got, want := ch1.ResyncFrac, 0.5; got != want {
		t.Errorf("ch1 resync frac = %v, want %v (5 resyncs / 10 markers)", got, want)
	}
	if got, want := ch1.LossFrac, 0.1; got != want {
		t.Errorf("ch1 loss frac = %v, want %v (5kB written off / 50kB striped)", got, want)
	}
	if got := sp.Session.TxBytesPerSec; got != 150_000 {
		t.Errorf("session tx = %v, want 150000", got)
	}
}

// TestWindowRebaseClampsNegativeDeltas pins restart/rebase safety: an
// engine republishing lower absolute totals (PublishSend after a
// restart) must read as a quiet window, never as negative rates, and
// a rebased fairness baseline must neither disturb the windowed rates
// nor be disturbed by folding.
func TestWindowRebaseClampsNegativeDeltas(t *testing.T) {
	c := NewCollector(1)
	w := NewWindows(c, WindowConfig{Tick: time.Hour, Spans: []time.Duration{time.Hour}})
	w.nextFold.Store(1 << 62) // only the injected folds below run

	l := newTestLedgers(c, 1500)
	l.send.PerChannel[0].Packets, l.send.PerChannel[0].Bytes = 100, 150_000
	l.send.Round = 100
	l.publish()
	w.fold(0)

	// Restart: totals legally move backwards.
	l.send.PerChannel[0].Packets, l.send.PerChannel[0].Bytes = 10, 15_000
	l.send.Round = 10
	l.send.PerChannel[0].JoinRound, l.send.PerChannel[0].JoinBytes = 10, 15_000
	l.publish()
	discBefore, boundBefore := c.Fairness()

	w.fold(int64(time.Second))
	snap := w.Latest()
	sp := snap.Spans[0]
	if got := sp.Channels[0]; got.TxBytesPerSec != 0 || got.TxPacketsPerSec != 0 {
		t.Errorf("backwards totals produced rates %+v, want zeros", got)
	}
	if lf := sp.Channels[0].LossFrac; lf < 0 || lf > 1 {
		t.Errorf("loss frac %v outside [0,1] across rebase", lf)
	}
	if sp.Session.RoundsPerSec != 0 {
		t.Errorf("backwards round produced %v rounds/s, want 0", sp.Session.RoundsPerSec)
	}
	if disc, bound := c.Fairness(); disc != discBefore || bound != boundBefore {
		t.Errorf("fold disturbed the fairness baseline: (%d,%d) -> (%d,%d)",
			discBefore, boundBefore, disc, bound)
	}

	// Traffic after the rebase is measured from the post-restart row:
	// 30kB of new bytes over the 1s since the last fold.
	l.send.PerChannel[0].Packets, l.send.PerChannel[0].Bytes = 30, 45_000
	l.publish()
	w.fold(int64(2 * time.Second))
	sp = w.Latest().Spans[0]
	if got := sp.Channels[0].TxBytesPerSec; got != 30_000 {
		t.Errorf("post-rebase tx = %v B/s, want 30000", got)
	}
}

// TestHealthScoring pins the scoring policy at its edges: clean
// channels, inactive channels, heavy loss, and marker silence.
func TestHealthScoring(t *testing.T) {
	sp := WindowSpan{
		Span:    10 * time.Second,
		Covered: 10 * time.Second,
		Channels: []ChannelRates{
			{Channel: 0, Active: true, MarkersInWindow: 10, MarkerAge: 1000},
			{Channel: 1, Active: true, MarkersInWindow: 10, MarkerAge: 1000, LossFrac: 0.4},
			{Channel: 2, Active: false},
			{Channel: 3, Active: true, MarkersInWindow: 0, MarkerAge: int64(5 * time.Second)},
		},
	}
	scores := healthForSpan(&sp)
	if s := scores[0]; s.Score != 100 || len(s.Reasons) != 0 {
		t.Errorf("clean channel scored %+v, want 100 with no reasons", s)
	}
	if s := scores[1]; s.Score > 60 || !hasReason(s, HealthLoss) {
		t.Errorf("40%%-loss channel scored %+v, want heavy loss deduction", s)
	}
	if s := scores[2]; s.Score != 0 || !hasReason(s, HealthInactive) {
		t.Errorf("inactive channel scored %+v, want 0/inactive", s)
	}
	if s := scores[3]; s.Score > healthSilenceCap || !hasReason(s, HealthSilence) {
		t.Errorf("marker-silent channel scored %+v, want cap at %d with silence", s, healthSilenceCap)
	}
	if !scores[1].Degraded(60) || scores[0].Degraded(60) {
		t.Errorf("Degraded(60) misclassified: %+v vs %+v", scores[1], scores[0])
	}
}

func hasReason(h HealthScore, code string) bool {
	for _, r := range h.Reasons {
		if r == code {
			return true
		}
	}
	return false
}

// TestWindowFoldOnRunChecks verifies the engine-flush integration: an
// attached rollup folds (and publishes) through Collector.RunChecks
// once its tick deadline passes, without any explicit Fold call.
func TestWindowFoldOnRunChecks(t *testing.T) {
	c := NewCollector(1)
	w := NewWindows(c, WindowConfig{Tick: time.Millisecond, Spans: []time.Duration{time.Second}})
	if c.Windows() != w {
		t.Fatal("NewWindows did not attach to the collector")
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Latest() == nil {
		c.RunChecks()
		if time.Now().After(deadline) {
			t.Fatal("RunChecks never folded the attached rollup")
		}
		time.Sleep(time.Millisecond)
	}
	if snap := c.Snapshot(); snap.Windows == nil {
		t.Fatal("Snapshot does not carry the rollup publication")
	}
	if strings.Contains(w.Latest().ScoreSpan.String(), "-") {
		t.Fatalf("nonsense score span %v", w.Latest().ScoreSpan)
	}
}
