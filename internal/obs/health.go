// Per-channel health scoring: a composable 0-100 score with reason
// codes, computed from one WindowSpan's windowed evidence. The session
// health monitor consumes it as an evidence-based eviction signal
// alongside the error-streak rule; stripetop and the
// /debug/stripe/health endpoint render it for humans.
//
// The score is deliberately built from time-independent fractions
// (loss fraction, resyncs per marker, blocked-send fraction) plus two
// relative latency signals (EWMA vs. the bundle median, marker-spread
// skew), so it behaves identically in a deterministic harness folding
// windows back-to-back and in a wall-clock session folding once a
// second.
package obs

import (
	"sort"
	"time"
)

// Health reason codes, ordered in HealthScore.Reasons by deduction
// size (largest first).
const (
	// HealthInactive marks an evicted or drained channel: score 0.
	HealthInactive = "inactive"
	// HealthLoss: windowed loss fraction (channel drops or credit
	// write-offs) is eating the score; full deduction at 33% loss.
	HealthLoss = "loss"
	// HealthResync: markers keep finding the receiver out of sync on
	// this channel — loss/reorder at marker granularity.
	HealthResync = "resync"
	// HealthStall: flow control is vetoing a large fraction of send
	// attempts on this channel (credit starvation).
	HealthStall = "stall"
	// HealthLatency: the channel's send-latency EWMA runs well above
	// the bundle median.
	HealthLatency = "latency"
	// HealthSkew: the channel's marker arrivals lag the freshest
	// channel's by more than the skew budget.
	HealthSkew = "skew"
	// HealthSilence: other channels delivered markers this window but
	// this one delivered none despite having before — the strongest
	// sign of a dead or wedged link. Caps the score at 20.
	HealthSilence = "silence"
)

// Scoring weights and knees. Deductions scale linearly from zero at a
// healthy reading to the full weight at the knee; the weights sum to
// a little over 100 so a channel failing on every axis pins to zero.
const (
	healthLossWeight   = 45
	healthLossKnee     = 1.0 / 3 // full deduction at 33% loss
	healthResyncWeight = 20      // full deduction when every marker resyncs
	healthStallWeight  = 15
	healthStallKnee    = 0.5 // full deduction when half of sends are vetoed
	healthLatWeight    = 15
	healthLatRatioLo   = 2.0 // deduction starts at 2x the bundle median
	healthLatRatioHi   = 6.0 // full deduction at 6x
	healthSkewWeight   = 10
	healthSkewBudget   = 250 * time.Millisecond // deduction starts here
	healthSkewKnee     = time.Second            // full deduction here
	healthSilenceCap   = 20
	healthReasonMin    = 2 // deductions below this many points carry no reason code
)

// HealthScore grades one channel 0 (dead) to 100 (clean) over the
// rollup's scoring span, with reason codes for every material
// deduction, largest first.
type HealthScore struct {
	Channel int
	Score   int
	Reasons []string `json:",omitempty"`
}

// Degraded reports whether the score is below threshold. Convenience
// for monitors; a zero threshold never matches.
func (h HealthScore) Degraded(threshold int) bool {
	return threshold > 0 && h.Score < threshold
}

// healthForSpan scores every channel from one span's windowed rates.
func healthForSpan(sp *WindowSpan) []HealthScore {
	scores := make([]HealthScore, len(sp.Channels))
	// Bundle median latency EWMA across active channels with a
	// reading: the baseline the "latency" deduction is relative to.
	lats := make([]int64, 0, len(sp.Channels))
	markersFlowing := false
	for i := range sp.Channels {
		c := &sp.Channels[i]
		if !c.Active {
			continue
		}
		if c.LatencyEWMA > 0 {
			lats = append(lats, c.LatencyEWMA)
		}
		if c.MarkersInWindow > 0 {
			markersFlowing = true
		}
	}
	var medianLat int64
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		medianLat = lats[len(lats)/2]
	}
	for i := range sp.Channels {
		scores[i] = scoreChannel(&sp.Channels[i], medianLat, markersFlowing)
	}
	return scores
}

// deduction is one named score penalty.
type deduction struct {
	code   string
	points int
}

// scoreChannel grades one channel against the bundle baseline.
func scoreChannel(c *ChannelRates, medianLat int64, markersFlowing bool) HealthScore {
	if !c.Active {
		return HealthScore{Channel: c.Channel, Score: 0, Reasons: []string{HealthInactive}}
	}
	deds := make([]deduction, 0, 6)
	add := func(code string, weight int, f float64) {
		if f <= 0 {
			return
		}
		if f > 1 {
			f = 1
		}
		deds = append(deds, deduction{code, int(float64(weight)*f + 0.5)})
	}
	add(HealthLoss, healthLossWeight, c.LossFrac/healthLossKnee)
	add(HealthResync, healthResyncWeight, c.ResyncFrac)
	add(HealthStall, healthStallWeight, c.BlockedFrac/healthStallKnee)
	if medianLat > 0 && c.LatencyEWMA > 0 {
		ratio := float64(c.LatencyEWMA) / float64(medianLat)
		add(HealthLatency, healthLatWeight, (ratio-healthLatRatioLo)/(healthLatRatioHi-healthLatRatioLo))
	}
	if c.DelaySkew > int64(healthSkewBudget) {
		add(HealthSkew, healthSkewWeight,
			float64(c.DelaySkew-int64(healthSkewBudget))/float64(healthSkewKnee-healthSkewBudget))
	}

	score := 100
	sort.SliceStable(deds, func(a, b int) bool { return deds[a].points > deds[b].points })
	var reasons []string
	for _, d := range deds {
		score -= d.points
		if d.points >= healthReasonMin {
			reasons = append(reasons, d.code)
		}
	}

	// Marker silence: the bundle delivered markers this window, this
	// channel has delivered markers before, but produced none now. The
	// channel may be entirely dead (no loss evidence at all), so this
	// caps the score rather than deducting.
	if markersFlowing && c.MarkersInWindow == 0 && c.MarkerAge > 0 {
		if score > healthSilenceCap {
			score = healthSilenceCap
		}
		reasons = append(reasons, HealthSilence)
	}

	if score < 0 {
		score = 0
	}
	return HealthScore{Channel: c.Channel, Score: score, Reasons: reasons}
}

// HealthReport is the /debug/stripe/health payload for one collector:
// session identity, the point-in-time protocol gauges a dashboard
// needs next to the windowed view, and the latest rollup.
type HealthReport struct {
	// Session is the collector's name ("" for unnamed collectors).
	Session string `json:",omitempty"`
	// AtNs is the report instant on the process timebase.
	AtNs  int64
	Round uint64
	// ActiveChannels counts channels currently in the striping set.
	ActiveChannels int
	Channels       int
	// FairnessDiscrepancy / FairnessBound: Theorem 3.2 band, as in
	// Snapshot.
	FairnessDiscrepancy int64
	FairnessBound       int64
	Buffered            int64
	CreditStallNs       int64
	// Ledger is every channel's row of the published send and receive
	// ledgers — each drop by name and by channel — exactly as Snapshot
	// carries them.
	Ledger []ChannelSnapshot
	// Windows is the latest rollup, nil when none is attached or it
	// has not folded yet.
	Windows *WindowsSnapshot `json:",omitempty"`
	// Peer is the peer-reported telemetry view, nil when none is
	// attached or no telemetry has arrived yet.
	Peer *PeerSnapshot `json:",omitempty"`
	// Events are the cumulative protocol-event counts by kind; pollers
	// difference successive reports to show recent protocol activity.
	Events map[string]int64 `json:",omitempty"`
}

// HealthReport assembles the live health view of this collector. Safe
// on nil (returns the zero report).
func (c *Collector) HealthReport() HealthReport {
	if c == nil {
		return HealthReport{}
	}
	s := c.Snapshot()
	r := HealthReport{
		Session:             s.Name,
		AtNs:                Now(),
		Round:               s.Round,
		Channels:            len(s.Channels),
		FairnessDiscrepancy: s.FairnessDiscrepancy,
		FairnessBound:       s.FairnessBound,
		Buffered:            s.Buffered,
		CreditStallNs:       int64(s.CreditStall),
		Ledger:              s.Channels,
		Windows:             s.Windows,
		Peer:                s.Peer,
		Events:              s.Events,
	}
	for i := range s.Channels {
		if s.Channels[i].MemberActive {
			r.ActiveChannels++
		}
	}
	return r
}
