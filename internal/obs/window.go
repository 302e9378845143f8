// Windowed telemetry: the rollup engine that turns the collector's
// cumulative counters into "what is happening now, per channel".
//
// A Windows attached to a Collector samples the published ledger rows
// into a fixed ring at a configured tick and, from the ring,
// derives per-channel rates over one or more sliding spans (default
// 1s / 10s / 60s): goodput, loss fraction, marker-resync rate,
// credit-stall fraction, a send-latency EWMA (when a Tracer is
// attached), and the inter-channel one-way-delay skew implied by the
// spread of marker arrival times. The newest rollup is published as an
// immutable WindowsSnapshot behind an atomic pointer, so readers (the
// health monitor, the /debug/stripe/health endpoint, stripetop, the
// Prometheus gauges) never contend with the fold.
//
// Folding is driven from Collector.RunChecks — the engine flush path
// — through a deadline-gated fast path: between ticks the cost is one
// atomic load and a compare, and the fold itself touches no per-packet
// state. Nothing here runs per packet.
package obs

import (
	"sync/atomic"
	"time"
)

// WindowConfig sizes a Windows rollup. The zero value selects the
// defaults: a 1s tick with 1s/10s/60s spans, scored on the 10s span.
type WindowConfig struct {
	// Tick is the sampling period: how often a fold copies the counter
	// slab into the ring (gated on the engine flush path, so the
	// effective resolution is also bounded by marker cadence). Default
	// 1s; values below 1ms are raised to 1ms.
	Tick time.Duration
	// Spans are the sliding windows rates are derived over, ascending.
	// Default {1s, 10s, 60s}. Spans shorter than Tick are raised to it.
	Spans []time.Duration
	// ScoreSpan selects the span health scores are computed on: the
	// first configured span >= ScoreSpan (the last one when none is).
	// Zero selects the second-shortest span — long enough to smooth
	// marker-cadence noise, short enough to flag a degrading channel
	// within seconds.
	ScoreSpan time.Duration
}

// windowRow is one tick's sample of the whole collector: every
// channel's published ledger rows plus the tracer's per-channel
// end-to-end latency sums.
type windowRow struct {
	at          int64 // process-timebase ns
	round       uint64
	creditStall int64
	ch          []ChannelSnapshot
	latSum      []int64 // ns
	latCnt      []int64
}

// Windows is the rollup engine. Create with NewWindows (which attaches
// it to the collector); read it with Latest, or through
// Snapshot.Windows on the collector. All methods are safe for
// concurrent use and safe on a nil receiver.
type Windows struct {
	c        *Collector
	tick     int64   // ns
	spans    []int64 // ns, ascending
	scoreIdx int

	nextFold atomic.Int64 // deadline (process-timebase ns) for the next fold
	folding  atomic.Bool  // serializes concurrent folds without blocking

	// Ring of counter samples; guarded by the folding flag. Rows and
	// their per-channel slices are preallocated so a fold never
	// allocates.
	ring []windowRow
	head int // next write position
	n    int // rows filled

	ewma []int64 // per-channel send-latency EWMA, ns (fold-cadence)

	latest atomic.Pointer[WindowsSnapshot]
}

// windowRingCap bounds ring memory for tiny ticks against long spans.
const windowRingCap = 8192

// NewWindows builds a rollup engine over c's counters and attaches it
// (Collector.SetWindows), so engine flushes start folding immediately.
// Returns nil when c is nil.
func NewWindows(c *Collector, cfg WindowConfig) *Windows {
	if c == nil {
		return nil
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Second
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	spans := make([]int64, 0, len(cfg.Spans))
	for _, s := range cfg.Spans {
		if s <= 0 {
			continue
		}
		if s < tick {
			s = tick
		}
		spans = append(spans, int64(s))
	}
	if len(spans) == 0 {
		spans = []int64{int64(time.Second), int64(10 * time.Second), int64(60 * time.Second)}
		for i := range spans {
			if spans[i] < int64(tick) {
				spans[i] = int64(tick)
			}
		}
	}
	// Ascending, deduplicated.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j] < spans[j-1]; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	uniq := spans[:1]
	for _, s := range spans[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	spans = uniq

	scoreIdx := 1
	if scoreIdx >= len(spans) {
		scoreIdx = len(spans) - 1
	}
	if cfg.ScoreSpan > 0 {
		scoreIdx = len(spans) - 1
		for i, s := range spans {
			if s >= int64(cfg.ScoreSpan) {
				scoreIdx = i
				break
			}
		}
	}

	depth := int(spans[len(spans)-1]/int64(tick)) + 1
	if depth < 2 {
		depth = 2
	}
	if depth > windowRingCap {
		depth = windowRingCap
	}
	w := &Windows{
		c:        c,
		tick:     int64(tick),
		spans:    spans,
		scoreIdx: scoreIdx,
		ring:     make([]windowRow, depth),
		ewma:     make([]int64, c.n),
	}
	for i := range w.ring {
		w.ring[i].ch = make([]ChannelSnapshot, c.n)
		w.ring[i].latSum = make([]int64, c.n)
		w.ring[i].latCnt = make([]int64, c.n)
	}
	c.SetWindows(w)
	return w
}

// Tick returns the configured sampling period.
func (w *Windows) Tick() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.tick)
}

// Latest returns the most recent rollup, or nil before the first fold.
// The snapshot is immutable; callers must not modify it.
func (w *Windows) Latest() *WindowsSnapshot {
	if w == nil {
		return nil
	}
	return w.latest.Load()
}

// Fold samples the counters and republishes the rollup immediately,
// regardless of the tick deadline — for tests, harnesses, and pollers
// that need a fresh rollup now. Engines never call it; they go through
// the deadline-gated path on RunChecks.
func (w *Windows) Fold() {
	if w == nil {
		return
	}
	now := Now()
	w.nextFold.Store(now + w.tick)
	w.fold(now)
}

// maybeFold is the engine-flush fast path: one atomic load and a
// compare between ticks. Called from Collector.RunChecks.
//
//stripe:hotpath
func (w *Windows) maybeFold() {
	now := Now()
	dl := w.nextFold.Load()
	if now < dl {
		return
	}
	// One winner per deadline: a racing flush loses the CAS and skips.
	if !w.nextFold.CompareAndSwap(dl, now+w.tick) {
		return
	}
	w.fold(now)
}

// fold copies the counter slab into the next ring row, advances the
// latency EWMAs, and republishes the rollup. The ring rows are
// preallocated, so the sample itself never allocates; snapshot
// construction is delegated to publish.
func (w *Windows) fold(now int64) {
	if !w.folding.CompareAndSwap(false, true) {
		return // a concurrent fold is in flight; skip rather than block
	}
	row := &w.ring[w.head]
	w.head = (w.head + 1) % len(w.ring)
	if w.n < len(w.ring) {
		w.n++
	}
	row.at = now
	row.creditStall = w.c.creditStall.Load()
	row.round = w.c.readChannels(row.ch)
	t := w.c.tracer.Load()
	for i := range row.ch {
		row.latSum[i], row.latCnt[i] = 0, 0
		if t != nil && i < maxLatChannels {
			row.latSum[i] = t.latSumOn[i].Load()
			row.latCnt[i] = t.latCntOn[i].Load()
		}
	}
	// Advance the per-channel send-latency EWMA from this tick's delta.
	// Alpha 3/8: a degraded channel dominates the estimate within a few
	// ticks without one outlier sample owning it.
	if w.n >= 2 {
		prev := &w.ring[(w.head-2+len(w.ring))%len(w.ring)]
		for i := range row.ch {
			dc := row.latCnt[i] - prev.latCnt[i]
			ds := row.latSum[i] - prev.latSum[i]
			if dc > 0 && ds >= 0 {
				mean := ds / dc
				if w.ewma[i] == 0 {
					w.ewma[i] = mean
				} else {
					w.ewma[i] = (3*mean + 5*w.ewma[i]) / 8
				}
			}
		}
	}
	w.publish(now)
	w.folding.Store(false)
}

// publish derives the per-span rates and health scores from the ring
// and swaps in a fresh immutable snapshot.
//
//stripe:allowescape rollup snapshot construction, amortized over the window tick (default 1s), never per packet
func (w *Windows) publish(now int64) {
	newest := &w.ring[(w.head-1+len(w.ring))%len(w.ring)]
	snap := &WindowsSnapshot{
		AtNs:      now,
		Tick:      time.Duration(w.tick),
		ScoreSpan: time.Duration(w.spans[w.scoreIdx]),
		Spans:     make([]WindowSpan, len(w.spans)),
	}
	for si, span := range w.spans {
		base := w.oldestWithin(newest.at - span)
		snap.Spans[si] = w.spanRates(newest, base, time.Duration(span))
	}
	snap.Health = healthForSpan(&snap.Spans[w.scoreIdx])
	w.latest.Store(snap)
}

// oldestWithin returns the oldest ring row sampled at or after cut
// (the newest row when the ring holds nothing older). Caller holds the
// folding flag.
func (w *Windows) oldestWithin(cut int64) *windowRow {
	var best *windowRow
	for k := 0; k < w.n; k++ {
		row := &w.ring[(w.head-1-k+2*len(w.ring))%len(w.ring)]
		if row.at < cut {
			break // walking newest -> oldest; everything further is older
		}
		best = row
	}
	if best == nil {
		best = &w.ring[(w.head-1+len(w.ring))%len(w.ring)]
	}
	return best
}

// delta is a counter difference clamped at zero: an engine restart or
// rebase that republishes lower absolute totals must read as "no
// traffic this window", never as a negative rate.
func delta(newer, older int64) int64 {
	if newer <= older {
		return 0
	}
	return newer - older
}

// spanRates derives one span's ChannelRates and SessionRates from the
// newest and baseline rows.
func (w *Windows) spanRates(newest, base *windowRow, span time.Duration) WindowSpan {
	covered := newest.at - base.at
	if covered < 0 {
		covered = 0
	}
	sec := float64(covered) / 1e9
	sp := WindowSpan{
		Span:     span,
		Covered:  time.Duration(covered),
		Channels: make([]ChannelRates, len(newest.ch)),
	}
	perSec := func(d int64) float64 {
		if sec <= 0 {
			return 0
		}
		return float64(d) / sec
	}
	frac := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		f := float64(num) / float64(den)
		if f > 1 {
			return 1
		}
		return f
	}
	// The newest marker arrival across live channels anchors the skew:
	// markers are cut for every channel in one batch, so a channel whose
	// last marker is older than the freshest one is running behind by
	// (at least) that spread.
	var newestMark int64
	for i := range newest.ch {
		if c := &newest.ch[i]; c.MemberActive && c.Rx.LastMarkerAt > newestMark {
			newestMark = c.Rx.LastMarkerAt
		}
	}
	var txB, rxB int64
	for i := range newest.ch {
		nc, bc := &newest.ch[i], &base.ch[i]
		dStripedP := delta(nc.Tx.Packets, bc.Tx.Packets)
		dStripedB := delta(nc.Tx.Bytes, bc.Tx.Bytes)
		dDelivP := delta(nc.Rx.Delivered, bc.Rx.Delivered)
		dDelivB := delta(nc.Rx.DeliveredBytes, bc.Rx.DeliveredBytes)
		dMarkers := delta(nc.Rx.Markers, bc.Rx.Markers)
		dResync := delta(nc.Rx.Resyncs, bc.Rx.Resyncs)
		dLost := delta(nc.Lost, bc.Lost)
		dBlocked := delta(nc.Tx.BlockedSends, bc.Tx.BlockedSends)
		dLostRec := delta(nc.Rx.LostBytes, bc.Rx.LostBytes)
		txB += dStripedB
		rxB += dDelivB

		// Loss evidence, best of two estimators: packets the channel
		// itself reported dropping (instrumented channels), and bytes
		// the markers' sender positions prove lost in flight (any
		// channel, read off the receive ledger).
		loss := frac(dLost, dStripedP)
		if rec := frac(dLostRec, dStripedB); rec > loss {
			loss = rec
		}

		r := ChannelRates{
			Channel:         i,
			Active:          nc.MemberActive,
			TxPacketsPerSec: perSec(dStripedP),
			TxBytesPerSec:   perSec(dStripedB),
			RxPacketsPerSec: perSec(dDelivP),
			RxBytesPerSec:   perSec(dDelivB),
			MarkersPerSec:   perSec(dMarkers),
			MarkersInWindow: dMarkers,
			LossFrac:        loss,
			ResyncFrac:      frac(dResync, maxI64(dMarkers, 1)),
			ResyncsPerSec:   perSec(dResync),
			BlockedFrac:     frac(dBlocked, dBlocked+dStripedP),
			LatencyEWMA:     w.ewma[i],
		}
		if at := nc.Rx.LastMarkerAt; at > 0 {
			r.MarkerAge = newest.at - at
			if r.Active && newestMark > at {
				r.DelaySkew = newestMark - at
			}
		} else {
			r.MarkerAge = -1
		}
		sp.Channels[i] = r
	}
	sp.Session = SessionRates{
		TxBytesPerSec:   perSec(txB),
		RxBytesPerSec:   perSec(rxB),
		RoundsPerSec:    perSec(delta(int64(newest.round), int64(base.round))),
		CreditStallFrac: frac(delta(newest.creditStall, base.creditStall), maxI64(covered, 1)),
	}
	return sp
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Snapshot types ------------------------------------------------------

// ChannelRates is one channel's windowed view: rates and fractions
// derived over one sliding span.
type ChannelRates struct {
	Channel int
	// Active mirrors the membership gauge at the window's newest tick.
	Active bool

	TxPacketsPerSec float64
	TxBytesPerSec   float64 // goodput striped onto the channel
	RxPacketsPerSec float64
	RxBytesPerSec   float64 // goodput delivered in order off the channel
	MarkersPerSec   float64
	MarkersInWindow int64

	// LossFrac estimates the fraction of the channel's transmit traffic
	// lost in the window, from the stronger of two evidence sources:
	// channel-reported drops and credit-reconciliation write-offs.
	LossFrac float64
	// ResyncFrac is the fraction of consumed markers that had to change
	// receiver state — a marker-cadence-normalized loss/reorder signal.
	ResyncFrac    float64
	ResyncsPerSec float64
	// BlockedFrac is the fraction of send attempts vetoed by flow
	// control (credit starvation on this channel).
	BlockedFrac float64

	// LatencyEWMA is the smoothed sampled end-to-end latency of packets
	// delivered off this channel, in nanoseconds; 0 without a Tracer.
	LatencyEWMA int64
	// DelaySkew is how far this channel's newest marker arrival lags
	// the freshest channel's, in nanoseconds — the marker-spread
	// estimate of inter-channel one-way-delay skew.
	DelaySkew int64
	// MarkerAge is nanoseconds since this channel's newest marker
	// arrival; -1 when the channel has never delivered one.
	MarkerAge int64
}

// SessionRates aggregates one span across channels.
type SessionRates struct {
	TxBytesPerSec float64
	RxBytesPerSec float64
	RoundsPerSec  float64
	// CreditStallFrac is the fraction of the window senders spent
	// blocked on exhausted credit.
	CreditStallFrac float64
}

// WindowSpan is one sliding window's derived view.
type WindowSpan struct {
	// Span is the nominal window; Covered is the time the ring actually
	// held (shorter during warmup and in fast-folding harnesses).
	Span     time.Duration
	Covered  time.Duration
	Channels []ChannelRates
	Session  SessionRates
}

// WindowsSnapshot is one immutable rollup publication: every configured
// span's rates plus the per-channel health scores computed on the
// scoring span.
type WindowsSnapshot struct {
	// AtNs is the publication instant on the process timebase; two
	// snapshots with equal AtNs are the same fold.
	AtNs      int64
	Tick      time.Duration
	ScoreSpan time.Duration
	Spans     []WindowSpan
	Health    []HealthScore
}

// ScoreWindow returns the span health scores were computed on, or nil
// on a nil snapshot.
func (s *WindowsSnapshot) ScoreWindow() *WindowSpan {
	if s == nil {
		return nil
	}
	for i := range s.Spans {
		if s.Spans[i].Span == s.ScoreSpan {
			return &s.Spans[i]
		}
	}
	if len(s.Spans) == 0 {
		return nil
	}
	return &s.Spans[len(s.Spans)-1]
}

// Score returns the snapshot's health score for channel c, or the zero
// HealthScore when out of range. Safe on nil.
func (s *WindowsSnapshot) Score(c int) HealthScore {
	if s == nil || c < 0 || c >= len(s.Health) {
		return HealthScore{Channel: c}
	}
	return s.Health[c]
}

// --- Collector integration ----------------------------------------------

// SetWindows attaches a rollup engine; engine flushes fold it at its
// tick. A nil w detaches. NewWindows attaches automatically.
func (c *Collector) SetWindows(w *Windows) {
	if c == nil {
		return
	}
	if w == nil {
		c.windows.Store(nil)
		return
	}
	c.windows.Store(w)
}

// Windows returns the attached rollup engine, or nil.
func (c *Collector) Windows() *Windows {
	if c == nil {
		return nil
	}
	return c.windows.Load()
}
