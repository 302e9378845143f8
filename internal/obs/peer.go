package obs

import (
	"sync"
	"sync/atomic"

	"stripe/internal/packet"
)

// peerOwdSamples is the per-channel sliding sample window the one-way
// delay min-filter runs over: long enough to ride out queueing spikes
// (the minimum of recent samples approaches the propagation floor, the
// NTP filter argument), short enough to track a genuine path change
// within a handful of marker intervals.
const peerOwdSamples = 8

// peerResyncKnee is the resync rate (events/s) at which the peer score
// takes the full resync deduction; the local HealthScore normalizes
// resyncs per marker instead, but a peer report carries no marker rate,
// so the knee is absolute.
const peerResyncKnee = 5.0

// PeerView folds the telemetry blocks a peer's resequencer reports
// back into a sender-side view of the remote end: per-channel loss as
// the *receiver* measured it (catching silent loss the local error
// streak never sees), resequencer occupancy against its cap, and an
// NTP-style min-filtered one-way delay estimate per channel from
// marker (tx, rx) timestamp pairs.
//
// Raw delay samples are rx − tx across two unsynchronized clocks, so
// each embeds the inter-host clock offset. The offset is common to
// every channel of the bundle, which makes cross-channel differences
// (RelativeDelayNs, SkewNs) true delay asymmetry measurements even
// though the absolute figures are not.
//
// Apply runs at telemetry cadence (one block per peer marker
// interval), never on the data hot path. Readers get an immutable
// snapshot via Latest. All methods are nil-safe.
type PeerView struct {
	n  int
	mu sync.Mutex

	seq      uint64
	havePrev bool
	prevAt   int64
	prev     []packet.TelemetryChannel // last applied cumulative values

	lossEWMA []float64 // per-channel EWMA of per-block loss fraction
	lastTx   []int64   // last folded MarkerTxNs, so a pair is sampled once
	owd      []int64   // per-channel sample rings, peerOwdSamples each
	owdLen   []int     // samples resident per channel
	owdPos   []int     // next write position per channel

	latest atomic.Pointer[PeerSnapshot]
}

// NewPeerView returns a peer view sized for n channels.
func NewPeerView(n int) *PeerView {
	if n <= 0 {
		return nil
	}
	return &PeerView{
		n:        n,
		prev:     make([]packet.TelemetryChannel, n),
		lossEWMA: make([]float64, n),
		lastTx:   make([]int64, n),
		owd:      make([]int64, n*peerOwdSamples),
		owdLen:   make([]int, n),
		owdPos:   make([]int, n),
	}
}

// N returns the channel count (0 on nil).
func (pv *PeerView) N() int {
	if pv == nil {
		return 0
	}
	return pv.n
}

// Apply folds one telemetry block received at local time rxNs and
// publishes a fresh snapshot. Blocks are sequenced by the peer;
// duplicates and reordered stragglers are rejected (returns false) so
// a stale report cannot roll the view backwards. Counters in the block
// are cumulative, which makes loss of any individual report harmless.
func (pv *PeerView) Apply(t packet.TelemetryBlock, rxNs int64) bool {
	if pv == nil {
		return false
	}
	pv.mu.Lock()
	defer pv.mu.Unlock()
	if pv.seq != 0 && t.Seq <= pv.seq {
		return false
	}
	pv.seq = t.Seq

	n := len(t.Channels)
	if n > pv.n {
		n = pv.n
	}
	for c := 0; c < n; c++ {
		cur := t.Channels[c]
		if pv.havePrev {
			dDel := cur.Delivered - pv.prev[c].Delivered
			dLost := cur.Lost - pv.prev[c].Lost
			if dDel < 0 {
				dDel = 0
			}
			if dLost < 0 {
				dLost = 0
			}
			if dDel+dLost > 0 {
				frac := float64(dLost) / float64(dDel+dLost)
				// The windows engine's EWMA idiom: alpha = 3/8, enough
				// history to smooth marker-cadence jitter without hiding
				// a developing loss trend.
				pv.lossEWMA[c] = (3*frac + 5*pv.lossEWMA[c]) / 8
			}
		} else if cur.Delivered+cur.Lost > 0 {
			pv.lossEWMA[c] = float64(cur.Lost) / float64(cur.Delivered+cur.Lost)
		}
		if cur.MarkerTxNs != 0 && cur.MarkerTxNs != pv.lastTx[c] {
			pv.lastTx[c] = cur.MarkerTxNs
			ring := pv.owd[c*peerOwdSamples : (c+1)*peerOwdSamples]
			ring[pv.owdPos[c]] = cur.MarkerRxNs - cur.MarkerTxNs
			pv.owdPos[c] = (pv.owdPos[c] + 1) % peerOwdSamples
			if pv.owdLen[c] < peerOwdSamples {
				pv.owdLen[c]++
			}
		}
	}

	snap := &PeerSnapshot{
		Seq:         t.Seq,
		AtNs:        t.AtNs,
		RxAtNs:      rxNs,
		Buffered:    t.Buffered,
		MaxBuffered: t.MaxBuffered,
		Channels:    make([]PeerChannel, n),
	}
	if t.MaxBuffered > 0 {
		snap.OccupancyFrac = float64(t.Buffered) / float64(t.MaxBuffered)
	}
	dt := float64(0)
	if pv.havePrev && t.AtNs > pv.prevAt {
		dt = float64(t.AtNs-pv.prevAt) / 1e9
	}
	minOwd, maxOwd := int64(0), int64(0)
	haveOwd := false
	for c := 0; c < n; c++ {
		cur := t.Channels[c]
		pc := PeerChannel{
			Channel:        c,
			DeliveredBytes: cur.Delivered,
			LostBytes:      cur.Lost,
			Resyncs:        cur.Resyncs,
			LossFrac:       pv.lossEWMA[c],
		}
		if dt > 0 {
			if d := cur.Delivered - pv.prev[c].Delivered; d > 0 {
				pc.DeliveredBytesPerSec = float64(d) / dt
			}
			if d := cur.Resyncs - pv.prev[c].Resyncs; d > 0 {
				pc.ResyncsPerSec = float64(d) / dt
			}
		}
		if pv.owdLen[c] > 0 {
			ring := pv.owd[c*peerOwdSamples : (c+1)*peerOwdSamples]
			est := ring[0]
			for i := 1; i < pv.owdLen[c]; i++ {
				if ring[i] < est {
					est = ring[i]
				}
			}
			pc.OneWayDelayNs = est
			if !haveOwd || est < minOwd {
				minOwd = est
			}
			if !haveOwd || est > maxOwd {
				maxOwd = est
			}
			haveOwd = true
		}
		pc.Score = peerScore(&pc)
		snap.Channels[c] = pc
	}
	if haveOwd {
		snap.SkewNs = maxOwd - minOwd
		for c := range snap.Channels {
			if snap.Channels[c].OneWayDelayNs != 0 || pv.owdLen[c] > 0 {
				snap.Channels[c].RelativeDelayNs = snap.Channels[c].OneWayDelayNs - minOwd
			}
		}
	}

	copy(pv.prev, t.Channels[:n])
	pv.prevAt = t.AtNs
	pv.havePrev = true
	pv.latest.Store(snap)
	return true
}

// peerScore grades one channel from the peer's evidence alone, on the
// local HealthScore's loss scale (full deduction at the same knee) plus
// a resync-rate deduction. It is intentionally a subset of the local
// score: the peer report carries no stall/latency axes, and mixing the
// two views is the caller's job (the session health monitor keeps
// separate thresholds for them).
func peerScore(pc *PeerChannel) int {
	ded := 0.0
	loss := pc.LossFrac / healthLossKnee
	if loss > 1 {
		loss = 1
	}
	ded += healthLossWeight * loss
	rs := pc.ResyncsPerSec / peerResyncKnee
	if rs > 1 {
		rs = 1
	}
	ded += healthResyncWeight * rs
	score := 100 - int(ded+0.5)
	if score < 0 {
		score = 0
	}
	return score
}

// Latest returns the most recent peer snapshot, or nil before the
// first applied report (and on nil).
func (pv *PeerView) Latest() *PeerSnapshot {
	if pv == nil {
		return nil
	}
	return pv.latest.Load()
}

// PeerSnapshot is one immutable publication of the peer's reported
// view, timestamped on both clocks.
type PeerSnapshot struct {
	// Seq is the peer's report sequence number.
	Seq uint64
	// AtNs is the peer's (receiver) clock when the report was cut;
	// RxAtNs is the local clock when it was applied.
	AtNs   int64
	RxAtNs int64
	// Buffered / MaxBuffered / OccupancyFrac describe the peer
	// resequencer's occupancy against its cap (OccupancyFrac is zero
	// when the peer is unbounded).
	Buffered      int64
	MaxBuffered   int64
	OccupancyFrac float64
	// SkewNs is the bundle's cross-endpoint delay skew: the spread
	// between the largest and smallest per-channel one-way delay
	// estimates. Clock offset cancels in the difference, so this is a
	// true asymmetry measurement.
	SkewNs int64
	// Channels is the per-channel peer view.
	Channels []PeerChannel
}

// PeerChannel is one channel's slice of a PeerSnapshot.
type PeerChannel struct {
	Channel int
	// DeliveredBytes / LostBytes / Resyncs are the peer's cumulative
	// counters: delivery and resyncs as its resequencer performed them,
	// loss as its marker reconciliation measured it.
	DeliveredBytes int64
	LostBytes      int64
	Resyncs        int64
	// LossFrac is the EWMA loss fraction over recent reports — the
	// receiver-measured mirror of ChannelRates.LossFrac, nonzero even
	// when the loss is silent (the local error streak stays 0).
	LossFrac float64
	// DeliveredBytesPerSec / ResyncsPerSec are rates over the interval
	// between the last two reports, on the peer's clock.
	DeliveredBytesPerSec float64
	ResyncsPerSec        float64
	// OneWayDelayNs is the min-filtered rx−tx marker timestamp sample.
	// It embeds the inter-host clock offset (it can even be negative),
	// so read it relative to the other channels: RelativeDelayNs
	// subtracts the bundle minimum, isolating per-channel asymmetry.
	// Zero when no stamped marker has been sampled yet.
	OneWayDelayNs   int64
	RelativeDelayNs int64
	// Score grades the channel 0-100 from peer evidence alone (loss
	// and resync-rate axes of the local HealthScore scale).
	Score int
}

// --- Collector integration ----------------------------------------------

// SetPeerView attaches a peer view; Snapshot and HealthReport then
// carry its latest publication. A nil pv detaches.
func (c *Collector) SetPeerView(pv *PeerView) {
	if c == nil {
		return
	}
	if pv == nil {
		c.peer.Store(nil)
		return
	}
	c.peer.Store(pv)
}

// PeerView returns the attached peer view, or nil.
func (c *Collector) PeerView() *PeerView {
	if c == nil {
		return nil
	}
	return c.peer.Load()
}
