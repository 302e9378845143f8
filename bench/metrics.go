package main

import (
	"slices"
	"time"
)

// metricDef names one metric; BENCHMARK.json repeats these tables and
// a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of a Session pair sees, measured with
// tracing off. Every workload reports every one. The time-based bounds
// sit at the ceiling the driver's contract allows: run-to-run spread on
// a quiet box is 2-8%, but the shared box the benchmark was written on
// slows by 10-25% for minutes at a time (see README.md). No latency is
// in this list for the same reason: see the stripe.*_us per-layer rows.
var endToEnd = []metricDef{
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"delivered_pps", "1/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.10},
	{"inorder_frac", "ratio", "higher", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// ladderMetrics are the isolated single-goroutine rows, one layer
// each; tracedMetrics come from the traced run of a workload. Together
// they are the per-layer metrics.
var ladderMetrics = []metricDef{
	{Name: "sched.decision_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.pool_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.pool_allocs", Unit: "count", Better: "lower"},
	{Name: "packet.marker_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.frame_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.frame_codec_allocs", Unit: "count", Better: "lower"},
	{Name: "netchan.tcp_b1_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.tcp_b64_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.udp_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.queue_ns", Unit: "ns", Better: "lower"},
	{Name: "flowcontrol.gate_ns", Unit: "ns", Better: "lower"},
	{Name: "flowcontrol.grant_ns", Unit: "ns", Better: "lower"},
	{Name: "core.striper_b1_ns", Unit: "ns", Better: "lower"},
	{Name: "core.striper_b64_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reseq_ns", Unit: "ns", Better: "lower"},
	{Name: "core.pipeline_ns", Unit: "ns", Better: "lower"},
	{Name: "core.pipeline_allocs", Unit: "count", Better: "lower"},
	{Name: "obs.collector_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.tracer16_ns", Unit: "ns", Better: "lower"},
	{Name: "stripe.session_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "stripe.session_fc_inproc_ns", Unit: "ns", Better: "lower"},
}

var tracedMetrics = []metricDef{
	{Name: "stripe.send_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "stripe.send_self_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.tx_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.tx_pkts_per_call", Unit: "count", Better: "higher"},
	{Name: "netchan.rx_ns", Unit: "ns", Better: "lower"},
	{Name: "netchan.rx_idle_returns", Unit: "count", Better: "lower"},
	{Name: "stripe.arrive_ns", Unit: "ns", Better: "lower"},
	{Name: "stripe.arrive_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "stripe.recv_ns", Unit: "ns", Better: "lower"},
	{Name: "stripe.recv_pkts_per_call", Unit: "count", Better: "higher"},
	{Name: "stripe.latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "stripe.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "stripe.oneway_p50_us", Unit: "us", Better: "lower"},
	{Name: "stripe.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "stripe.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "flowcontrol.credit_stall_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.markers_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "core.resyncs_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "core.skips_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "core.lost_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.misordered_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.overflow_drops", Unit: "count", Better: "lower"},
	{Name: "core.buffered_high_water", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

func perLayer() []metricDef { return append(slices.Clone(ladderMetrics), tracedMetrics...) }

// metricValue is one reading, as the driver's contract spells it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile reads the q-th percentile (0-100) of sorted samples by
// nearest rank; 0 when there are none.
func percentile[T ~uint32 | ~float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q/100+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

// tailPercentile is the highest of the customary percentiles that
// still has at least ten of the n samples beyond it; 0 when even the
// median has not.
func tailPercentile(n int) float64 {
	for _, perMyriad := range []int{9999, 9990, 9900, 9000, 5000} {
		if n*(10000-perMyriad)/10000 >= 10 {
			return float64(perMyriad) / 100
		}
	}
	return 0
}

// slicedPercentile cuts each time-ordered run of samples into
// windowSlices equal parts and returns the median of the parts' q-th
// percentiles: like the window's rates, a disturbed second then spoils
// one slice, not the metric. A run too short to leave ten samples
// beyond the percentile in every part is read whole.
func slicedPercentile(runs [][]uint32, q float64) float64 {
	var parts []float64
	for _, run := range runs {
		n := len(run) / windowSlices
		if float64(n)*(100-q)/100 < 10 {
			n = len(run)
		}
		for i := 0; n > 0 && i+n <= len(run); i += n {
			part := slices.Clone(run[i : i+n])
			slices.Sort(part)
			parts = append(parts, percentile(part, q))
		}
	}
	if len(parts) == 0 {
		return 0
	}
	return median(parts)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMedians turns the window's snapshots into per-slice rates and
// returns the median slice of each: a hiccup of the shared box spoils
// one slice, not the run.
func (m *measurement) windowMedians() (mbps, pps, cpuNs, allocs float64) {
	var a, b, c, d []float64
	for i := 1; i < len(m.snaps); i++ {
		s0, s1 := m.snaps[i-1], m.snaps[i]
		secs := float64(s1.t-s0.t) / 1e9
		ops := float64(s1.ops - s0.ops)
		a = append(a, ratio(float64(s1.bytes-s0.bytes), secs)/1e6)
		b = append(b, ratio(ops, secs))
		c = append(c, ratio(float64(s1.cpu-s0.cpu), ops))
		d = append(d, ratio(float64(s1.mallocs-s0.mallocs), ops))
	}
	if len(a) == 0 {
		return
	}
	return median(a), median(b), median(c), median(d)
}

func (m *measurement) windowSeconds() float64 {
	if len(m.snaps) < 2 {
		return 0
	}
	return float64(m.snaps[len(m.snaps)-1].t-m.snaps[0].t) / 1e9
}

// endToEndMetrics names the measurement's user-visible numbers.
func (m *measurement) endToEndMetrics() map[string]metricValue {
	mbps, pps, cpu, allocs := m.windowMedians()
	v := map[string]float64{
		"goodput_mbps":   mbps,
		"delivered_pps":  pps,
		"cpu_ns_per_pkt": cpu,
		"allocs_per_pkt": allocs,
		"inorder_frac":   ratio(float64(m.flood.inorder), float64(m.flood.sent)),
		"setup_s":        median(m.setups),
	}
	return named(endToEnd, v)
}

// tracedRunMetrics names the per-layer numbers of a traced
// measurement; ref is the untraced measurement it is compared with.
func (m *measurement) tracedRunMetrics(w *workload, ref *measurement) map[string]metricValue {
	tr := m.tr
	window := m.windowSeconds()
	_, sendPkts, sendNs := tr.totals(spanSend)
	txCalls, txPkts, txNs := tr.totals(spanTx)
	rxCalls, _, rxNs := tr.totals(spanRx)
	arCalls, _, arNs := tr.totals(spanArrive)
	recvCalls, recvPkts, recvNs := tr.totals(spanRecv)

	generators := 1.0
	if w.duplex || w.pingpong {
		generators = 2
	}
	var stall time.Duration
	var markers, sentPkts, resyncs, skips, delivered, overflow, highWater int64
	for e := range m.stats {
		stall += m.snapsObs[e].CreditStall - m.stallObs[e]
		markers += m.sendStats[e].Markers
		sentPkts += m.sendStats[e].DataPackets
		resyncs += m.stats[e].Resyncs
		skips += m.stats[e].Skips
		delivered += m.stats[e].Delivered
		overflow += m.stats[e].OverflowDrops
		highWater = max(highWater, m.snapsObs[e].BufferedHighWater)
	}
	underLoad := m.loaded
	if w.pingpong {
		underLoad = [][]uint32{m.oneWay}
	}
	tracedMbps, _, _, _ := m.windowMedians()
	refMbps, _, _, _ := ref.windowMedians()
	v := map[string]float64{
		"stripe.send_busy_frac":         ratio(float64(sendNs), window*1e9*generators),
		"stripe.send_self_ns":           ratio(float64(sendNs-tr.childTxNs()), float64(sendPkts)),
		"netchan.tx_ns":                 ratio(float64(txNs), float64(txPkts)),
		"netchan.tx_pkts_per_call":      ratio(float64(txPkts), float64(txCalls)),
		"netchan.rx_ns":                 ratio(float64(rxNs), float64(rxCalls)),
		"netchan.rx_idle_returns":       float64(m.idle),
		"stripe.arrive_ns":              ratio(float64(arNs), float64(arCalls)),
		"stripe.arrive_p99_ns":          percentile(tr.arriveDurations(), 99),
		"stripe.recv_ns":                ratio(float64(recvNs), float64(recvPkts)),
		"stripe.recv_pkts_per_call":     ratio(float64(recvPkts), float64(recvCalls)),
		"stripe.latency_p50_us":         slicedPercentile(underLoad, 50) / 1e3,
		"stripe.latency_p99_us":         slicedPercentile(underLoad, 99) / 1e3,
		"stripe.oneway_p50_us":          slicedPercentile([][]uint32{m.oneWay}, 50) / 1e3,
		"stripe.rtt_p50_us":             slicedPercentile([][]uint32{m.rtt}, 50) / 1e3,
		"stripe.rtt_p99_us":             slicedPercentile([][]uint32{m.rtt}, 99) / 1e3,
		"flowcontrol.credit_stall_frac": ratio(stall.Seconds(), window*generators),
		"core.markers_per_kpkt":         1e3 * ratio(float64(markers), float64(sentPkts)),
		"core.resyncs_per_kpkt":         1e3 * ratio(float64(resyncs), float64(delivered)),
		"core.skips_per_kpkt":           1e3 * ratio(float64(skips), float64(delivered)),
		"core.lost_frac":                ratio(float64(m.flood.sent-m.flood.delivered), float64(m.flood.sent)),
		"core.misordered_frac":          ratio(float64(m.flood.misordered), float64(m.flood.delivered)),
		"core.overflow_drops":           float64(overflow),
		"core.buffered_high_water":      float64(highWater),
		"bench.trace_overhead_frac":     1 - ratio(tracedMbps, refMbps),
	}
	return named(tracedMetrics, v)
}

func named(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
