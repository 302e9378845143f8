package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/obs"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Fault injection: credit reconciliation keeps lossy channels live, buffers bounded",
		Run:   runFaults,
	})
}

// ChannelFaults is the fault schedule for one channel.
type ChannelFaults struct {
	// Loss is the i.i.d. drop probability.
	Loss float64
	// Burst layers a Gilbert–Elliott burst-loss process on top.
	Burst channel.GilbertElliott
	// Outages are [start, end) iteration windows during which the
	// channel delivers nothing (the pump stalls), modelling latency
	// spikes; relative to the other channels this reorders traffic.
	Outages [][2]int
	// Jitter delays each delivery by a uniform 0..Jitter extra
	// iterations, modelling per-channel latency variation. Deliveries
	// stay FIFO within the channel (a delayed packet holds everything
	// behind it back — the protocol assumes FIFO channels), so jitter
	// reorders traffic *across* channels, which is exactly what the
	// resequencing-delay histogram measures.
	Jitter int
}

func (f ChannelFaults) out(iter int) bool {
	for _, w := range f.Outages {
		if iter >= w[0] && iter < w[1] {
			return true
		}
	}
	return false
}

// CorrelatedOutage takes a set of channels down simultaneously for one
// [start, end) iteration window — the shared-fate failures (a common
// physical path, a site power event) that per-channel schedules cannot
// express. During the window none of the listed channels delivers
// anything; k-of-n simultaneous outages stress the resequencer and the
// credit machinery far harder than the same windows staggered.
type CorrelatedOutage struct {
	Window   [2]int
	Channels []int
}

// FaultPlan is a full per-channel fault schedule plus reverse-path
// impairments.
type FaultPlan struct {
	// Channels holds one schedule per channel; its length sets the
	// channel count.
	Channels []ChannelFaults
	// Correlated holds cross-channel outage windows layered on top of
	// the per-channel schedules.
	Correlated []CorrelatedOutage
	// CreditLossEvery drops every k-th credit refresh on the reverse
	// path (0 = lossless reverse path). Grants are cumulative, so a
	// later refresh recovers the dropped one.
	CreditLossEvery int
}

// down reports whether channel c is in any outage window — its own or a
// correlated one — at iteration iter.
func (p FaultPlan) down(c, iter int) bool {
	if p.Channels[c].out(iter) {
		return true
	}
	for _, o := range p.Correlated {
		if iter < o.Window[0] || iter >= o.Window[1] {
			continue
		}
		for _, oc := range o.Channels {
			if oc == c {
				return true
			}
		}
	}
	return false
}

// FaultReport is the outcome of one fault-injection run.
type FaultReport struct {
	Sent           int   // data packets accepted by the striper
	Target         int   // data packets the run aimed to send
	Delivered      int   // packets the receiver handed up
	MaxGatedStreak int   // longest run of consecutive gated send attempts
	MaxBuffered    int64 // resequencer occupancy high-water (packets)
	LostReconciled int64 // bytes written off as lost and re-granted
	Overflows      int64 // resequencer overflow escalations
	Stalled        bool  // the sender wedged permanently on credits
	MaxErrStreak   int64 // worst per-channel consecutive transport-error streak
}

// stallPatience is how many consecutive gated send attempts — each with
// the pump, the consumer, marker emission and credit refresh all still
// running — the harness tolerates before declaring the sender
// permanently stalled. Transient gating clears within one marker/credit
// cycle, so this is orders of magnitude past any legitimate stall.
const stallPatience = 4000

// RunFaults drives one striper/resequencer pair through the fault plan
// with credit-based flow control (window w per channel, resequencer
// buffers capped at maxBuffered packets) until total data packets are
// sent or the sender stalls. With reconcile false the receiver grants
// from delivered bytes only — the pre-reconciliation behaviour whose
// credit leak this harness exists to demonstrate; with reconcile true
// grants are reconciled from marker-carried sender positions. The col
// collector is optional; when given it must be sized for the plan's
// channel count.
func RunFaults(plan FaultPlan, seed int64, w int64, maxBuffered, total int, reconcile bool, col *obs.Collector) FaultReport {
	nch := len(plan.Channels)
	queues := make([]*channel.Queue, nch)
	for c, f := range plan.Channels {
		queues[c] = channel.NewQueue(channel.Impairments{Loss: f.Loss, Burst: f.Burst, Seed: seed + int64(c)*7919})
	}
	jrng := rand.New(rand.NewSource(seed + 104729))
	r := newRig(rigConfig{
		quanta:  sched.UniformQuanta(nch, 1500),
		markers: core.MarkerPolicy{Every: 4, Position: 0},
		queues:  queues,
		// Jitter: a packet leaving channel c's queue at iteration i is
		// released at i + uniform(0..Jitter); the delay line never lets
		// it overtake its predecessor, so the channel stays FIFO.
		delay: func(c int) int64 {
			if j := plan.Channels[c].Jitter; j > 0 {
				return int64(jrng.Intn(j + 1))
			}
			return 0
		},
		window:      w,
		maxBuffered: maxBuffered,
		obs:         col,
	})
	// The leaky scheme grants a window past delivered bytes only; the
	// reconciled one past the receive ledger's released position, which
	// also counts marker-proven loss and the receiver's own discards.
	released := r.reseq.DeliveredBytesOn
	if reconcile {
		released = r.reseq.ReleasedBytesOn
	}

	sizes := trace.NewBimodal(300, 1100, 0.5, seed+13)
	rep := FaultReport{Target: total}
	streak, refreshes := 0, 0
	for iter := 0; rep.Sent < total; iter++ {
		r.now = int64(iter)
		if r.send(sizes.Next()) {
			rep.Sent++
			streak = 0
		} else {
			streak++
			rep.MaxGatedStreak = max(rep.MaxGatedStreak, streak)
			if streak >= stallPatience {
				rep.Stalled = true
				break
			}
		}
		// Markers keep flowing while the data path is gated — exactly
		// the behaviour the timer-driven EmitMarkers provides in the
		// session — so reconciliation state keeps moving during a stall.
		if iter%16 == 0 {
			r.striper.EmitMarkers()
		}
		// Each channel that is not in an outage window (its own or a
		// correlated one) moves one hop.
		for c := 0; c < nch; c++ {
			if !plan.down(c, iter) {
				r.arrive(c)
			}
		}
		rep.MaxBuffered = max(rep.MaxBuffered, int64(r.reseq.Buffered()))
		// The consumer drains at a bounded rate.
		r.deliver(2)
		// Credits refresh at marker cadence over a (possibly lossy)
		// reverse path.
		if iter%16 == 8 {
			refreshes++
			if plan.CreditLossEvery == 0 || refreshes%plan.CreditLossEvery != 0 {
				r.refreshCredits(released)
			}
		}
	}
	if !rep.Stalled {
		// Let outages end and the tail drain: a clock far past every
		// release time flushes the jitter delay lines.
		r.now = 1 << 30
		r.settle()
	}
	rep.Delivered = len(r.ids)
	rep.MaxBuffered = max(rep.MaxBuffered, int64(r.reseq.Buffered()))
	rep.Overflows = r.reseq.Stats().Overflows
	if reconcile {
		// The loss written off into grants: the ledger's marker-proven
		// loss. The leaky scheme writes nothing off.
		for _, row := range r.reseq.Stats().PerChannel {
			rep.LostReconciled += row.LostBytes
		}
	}
	// The worst per-channel consecutive transport-error streak at the end
	// of the run is the signal the session's error-streak eviction rule
	// watches. Impaired in-process queues drop silently (Send never
	// errors), so it stays at zero however lossy the plan: exactly the
	// blindness the windowed health score exists to cover.
	for c := 0; c < nch; c++ {
		rep.MaxErrStreak = max(rep.MaxErrStreak, r.striper.ErrStreak(c))
	}
	return rep
}

// fmtNs renders a nanosecond latency with time.Duration units.
func fmtNs(ns int64) string { return time.Duration(ns).String() }

// DefaultFaultPlan is the acceptance scenario: every channel at 20%
// i.i.d. loss, one channel with an added loss burst, one with outage
// windows, and a reverse path that loses every third credit refresh.
func DefaultFaultPlan(nch int) FaultPlan {
	plan := FaultPlan{Channels: make([]ChannelFaults, nch), CreditLossEvery: 3}
	for i := range plan.Channels {
		plan.Channels[i].Loss = 0.20
	}
	if nch > 1 {
		plan.Channels[1].Burst = channel.GilbertElliott{
			PGoodToBad: 0.01, PBadToGood: 0.2, BadLoss: 0.9,
		}
	}
	if nch > 2 {
		plan.Channels[2].Outages = [][2]int{{500, 700}, {2000, 2300}}
	}
	// Mild delay jitter everywhere (cross-channel reordering for the
	// resequencing-delay histogram), one channel noticeably worse.
	for i := range plan.Channels {
		plan.Channels[i].Jitter = 3
	}
	if nch > 3 {
		plan.Channels[3].Jitter = 10
	}
	return plan
}

// CorrelatedFaultPlan is DefaultFaultPlan plus two shared-fate windows
// in which k of the nch channels are down simultaneously: channels
// 0..k-1 together mid-run, then a different overlapping subset later,
// so at the worst point only nch-k channels carry the whole stream.
func CorrelatedFaultPlan(nch, k int) FaultPlan {
	plan := DefaultFaultPlan(nch)
	if k > nch {
		k = nch
	}
	first := make([]int, 0, k)
	for c := 0; c < k; c++ {
		first = append(first, c)
	}
	second := make([]int, 0, k)
	for c := 0; c < k; c++ {
		second = append(second, (c+nch/2)%nch)
	}
	plan.Correlated = []CorrelatedOutage{
		{Window: [2]int{800, 1000}, Channels: first},
		{Window: [2]int{2600, 2900}, Channels: second},
	}
	return plan
}

// runFaults regenerates the credit-stall pathology and its fix: at 20%
// per-channel loss with traffic well past 10x the credit window,
// delivered-byte grants wedge the sender permanently, while
// marker-position reconciliation keeps it live with resequencer memory
// bounded by the configured cap.
func runFaults(cfg Config) *Result {
	const nch = 4
	const window = 16 * 1024
	const bufCap = 256
	total := 4000 // ~2.8MB of data: >40x the window per channel
	if cfg.Quick {
		total = 1200
	}
	plan := DefaultFaultPlan(nch)

	before := RunFaults(plan, cfg.Seed+1, window, bufCap, total, false, nil)
	// The healthy run carries a lifecycle tracer (every packet sampled)
	// so the jittery channels show up as resequencing-delay quantiles.
	col := obs.NewCollector(nch)
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1})
	col.SetTracer(tracer)
	col.SetChecker(obs.NewChecker())
	after := RunFaults(plan, cfg.Seed+1, window, bufCap, total, true, col)

	var b strings.Builder
	fmt.Fprintln(&b, "# Fault injection: 4 channels at 20% i.i.d. loss (one bursty, one with")
	fmt.Fprintln(&b, "# outages), delay jitter on every channel, credits on a lossy reverse")
	fmt.Fprintln(&b, "# path, resequencer cap 256 packets.")
	fmt.Fprintln(&b, row("grant basis", "sent", "stalled", "max gated streak", "reseq high-water", "lost re-granted"))
	line := func(name string, r FaultReport) {
		fmt.Fprintln(&b, row(name,
			fmt.Sprintf("%d/%d", r.Sent, r.Target),
			fmt.Sprintf("%v", r.Stalled),
			fmt.Sprintf("%d", r.MaxGatedStreak),
			fmt.Sprintf("%d", r.MaxBuffered),
			fmt.Sprintf("%d", r.LostReconciled)))
	}
	line("delivered bytes (leaky)", before)
	line("reconciled (markers)", after)
	ts := tracer.Snapshot()
	fmt.Fprintf(&b, "\n# Resequencing delay (reconciled run, %d lifecycles traced):\n", ts.Tracked)
	fmt.Fprintln(&b, row("histogram", "p50", "p90", "p99", "max bucket"))
	quant := func(name string, h obs.HistogramSnapshot) {
		fmt.Fprintln(&b, row(name,
			fmtNs(h.Quantile(0.50)), fmtNs(h.Quantile(0.90)), fmtNs(h.Quantile(0.99)),
			fmt.Sprintf("%d obs", h.Count)))
	}
	quant("reseq delay", ts.ReseqDelay)
	quant("head-of-line", ts.HeadOfLine)
	quant("end-to-end", ts.EndToEnd)

	// Degrading-channel scenario: windowed health scoring flags the
	// Gilbert-Elliott-impaired channel while the error-streak rule —
	// blind to silent drops — never moves off zero.
	deg := RunDegrade(cfg)
	fmt.Fprintln(&b, "\n# Degrading channel: ch1 under heavy Gilbert-Elliott burst loss, the")
	fmt.Fprintln(&b, "# rest ~1% i.i.d. Windowed health scores vs the error-streak rule:")
	fmt.Fprintln(&b, row("channel", "health", "loss frac", "resyncs/marker", "reasons"))
	sp := deg.Windows.ScoreWindow()
	for _, h := range deg.Scores {
		c := sp.Channels[h.Channel]
		fmt.Fprintln(&b, row(fmt.Sprintf("ch%d", h.Channel),
			fmt.Sprintf("%d", h.Score),
			fmt.Sprintf("%.3f", c.LossFrac),
			fmt.Sprintf("%.2f", c.ResyncFrac),
			strings.Join(h.Reasons, ",")))
	}
	fmt.Fprintf(&b, "# score flags ch1 (<%d) while max error streak is %d (eviction needs %d)\n",
		DegradeScoreThreshold, deg.Report.MaxErrStreak, DegradeErrStreakThreshold)

	tb := &stats.Table{Title: "Credit reconciliation under 20% loss", XLabel: "reconcile(0=off,1=on)", YLabel: "packets sent", X: []float64{0, 1}}
	tb.AddColumn("sent", []float64{float64(before.Sent), float64(after.Sent)})
	snap := col.Snapshot()
	for _, v := range snap.Violations {
		fmt.Fprintln(&b, "# VIOLATION:", v)
	}
	return &Result{ID: "faults", Title: "Fault-injection: credit reconciliation", Text: b.String(), Tables: []*stats.Table{tb},
		Violations: snap.InvariantViolations}
}
