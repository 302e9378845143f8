package stripe

import (
	"io"

	"stripe/internal/core"
	"stripe/internal/obs"
)

// Collector publishes the engines' ledgers — the counters Stats
// returns, which the sender and receiver keep in plain fields and hand
// over at their flush points — and carries the protocol event bus.
// Create one with NewCollector, attach it via Config.Collector, and
// read it with Snapshot (on the Sender/Receiver/Session it is attached
// to, which flushes first and is exact, or on the collector, which lags
// by at most 64 packets or a marker interval), expose it over HTTP with
// Serve, or subscribe to protocol events with AddSink. All methods are
// nil-safe, so an unobserved configuration pays only a pointer test per
// packet.
type Collector = obs.Collector

// NewCollector returns a collector sized for n channels.
func NewCollector(n int) *Collector { return obs.NewCollector(n) }

// NewNamedCollector returns a collector whose metrics carry a
// session="name" label, for processes hosting several sessions behind
// one Serve endpoint.
func NewNamedCollector(name string, n int) *Collector { return obs.NewNamedCollector(name, n) }

// Snapshot is a point-in-time copy of every metric a Collector holds,
// including the derived live fairness gauge (FairnessDiscrepancy
// against the Theorem 3.2 FairnessBound).
type Snapshot = obs.Snapshot

// ChannelSnapshot is the per-channel slice of a Snapshot.
type ChannelSnapshot = obs.ChannelSnapshot

// Event is one protocol transition observed by the runtime tracing
// layer: marker resync, skip-rule activation, reset, self-heal,
// fast-forward, or credit exhaustion.
type Event = obs.Event

// EventKind enumerates protocol transition kinds.
type EventKind = obs.Kind

// Protocol event kinds.
const (
	EventResync             = obs.KindResync
	EventSkip               = obs.KindSkip
	EventReset              = obs.KindReset
	EventSelfHeal           = obs.KindSelfHeal
	EventFastForward        = obs.KindFastForward
	EventCreditExhausted    = obs.KindCreditExhausted
	EventCreditReconcile    = obs.KindCreditReconcile
	EventReseqOverflow      = obs.KindReseqOverflow
	EventInvariantViolation = obs.KindInvariantViolation
)

// Tracer is the packet lifecycle tracing side table: it stamps sampled
// packets at stripe / channel-send / channel-receive / buffer / deliver
// and aggregates end-to-end latency, resequencing delay, head-of-line
// blocking, and send-stall histograms. Attach with
// Collector.SetTracer; attach the same Tracer to both collectors of a
// session pair to trace across them. Read it with Tracer.Snapshot (or
// Snapshot.Lifecycle on the collector), export recent lifecycles with
// WriteChromeTrace.
type Tracer = obs.Tracer

// TracerConfig sizes a Tracer; the zero value selects the defaults
// (4096 slots, 1-in-16 sampling, 512 retained lifecycles).
type TracerConfig = obs.TracerConfig

// NewTracer returns a packet lifecycle tracer.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// PacketTrace is one completed packet lifecycle (nanosecond stamps on
// the process timebase).
type PacketTrace = obs.PacketTrace

// TracerSnapshot is a point-in-time copy of a Tracer's latency
// histograms and counters.
type TracerSnapshot = obs.TracerSnapshot

// HistogramSnapshot is a fixed-bucket histogram copy; its Quantile
// method estimates latency quantiles the way Prometheus
// histogram_quantile does.
type HistogramSnapshot = obs.HistogramSnapshot

// WriteChromeTrace writes packet lifecycles and protocol events as
// chrome://tracing / Perfetto JSON. Pass a Tracer's Recent() and
// (optionally) a RingSink's or FlightRecorder's Events().
func WriteChromeTrace(w io.Writer, traces []PacketTrace, events []Event) error {
	return obs.WriteChromeTrace(w, traces, events)
}

// FlightRecorder is a bounded ring of recent protocol events that
// dumps itself (events + full metrics Snapshot) when an anomaly trips:
// credit stall, resequencer overflow, resync storm, or an invariant
// violation. Attach with Collector.AddSink.
type FlightRecorder = obs.FlightRecorder

// FlightRecorderConfig tunes a FlightRecorder; the zero value selects
// the defaults (256 events, 8-resync storm in 100ms, 1s dump cooldown).
type FlightRecorderConfig = obs.FlightRecorderConfig

// FlightDump is one flight-recorder post-mortem.
type FlightDump = obs.FlightDump

// NewFlightRecorder returns a flight recorder that snapshots c when an
// anomaly trips; attach it with c.AddSink.
func NewFlightRecorder(c *Collector, cfg FlightRecorderConfig) *FlightRecorder {
	return obs.NewFlightRecorder(c, cfg)
}

// Checker is the runtime invariant checker: on every engine flush it
// asserts per-channel packet conservation (every received packet has a
// named fate in the receive ledger, exactly), the Theorem 3.2 fairness
// band, per-channel credit conservation, and monotone round
// progression, surfacing violations
// as events, metrics, and Snapshot.Violations. Attach with
// Collector.SetChecker (NewSession registers the credit ledgers
// automatically when flow control is on).
type Checker = obs.Checker

// NewChecker returns a runtime invariant checker.
func NewChecker() *Checker { return obs.NewChecker() }

// Violation is one invariant-checker finding.
type Violation = obs.Violation

// CreditAccount is one channel's flow-control ledger as seen by the
// checker's credit-conservation check.
type CreditAccount = obs.CreditAccount

// EventSink observes protocol events; attach with Collector.AddSink.
type EventSink = obs.Sink

// RingSink retains the most recent protocol events in a bounded
// in-memory ring.
type RingSink = obs.RingSink

// NewRingSink returns a ring sink retaining the last n events (256
// when n is not positive).
func NewRingSink(n int) *RingSink { return obs.NewRingSink(n) }

// Windows is the windowed-telemetry rollup engine: it folds the
// published ledgers' cumulative counters into ring-buffered sliding windows
// (default 1s/10s/60s) of per-channel goodput, loss fraction, marker
// resync rate, credit-stall fraction, send-latency EWMAs, and
// inter-channel delay skew, plus a 0-100 HealthScore per channel.
// Create with NewWindows; read the latest rollup with Windows.Latest
// or Snapshot.Windows; the session health monitor consumes the scores
// when HealthConfig.ScoreEvictBelow is set. Folding rides the engine
// flush tick, never the per-packet path.
type Windows = obs.Windows

// WindowConfig sizes a Windows rollup; the zero value selects a 1s
// tick with 1s/10s/60s spans, scored on the 10s span.
type WindowConfig = obs.WindowConfig

// NewWindows builds a rollup engine over c's counters and attaches it
// to the collector. Returns nil when c is nil.
func NewWindows(c *Collector, cfg WindowConfig) *Windows { return obs.NewWindows(c, cfg) }

// WindowsSnapshot is one immutable rollup publication: every
// configured span's rates plus per-channel health scores.
type WindowsSnapshot = obs.WindowsSnapshot

// WindowSpan is one sliding window's derived view.
type WindowSpan = obs.WindowSpan

// ChannelRates is one channel's windowed rates and fractions.
type ChannelRates = obs.ChannelRates

// SessionRates aggregates one window span across channels.
type SessionRates = obs.SessionRates

// HealthScore grades one channel 0 (dead) to 100 (clean) over the
// rollup's scoring span, with reason codes ("loss", "resync", "stall",
// "latency", "skew", "silence", "inactive") for every material
// deduction.
type HealthScore = obs.HealthScore

// HealthReport is the /debug/stripe/health payload for one collector;
// Collector.HealthReport assembles it and stripetop renders it.
type HealthReport = obs.HealthReport

// PeerView folds the telemetry blocks the peer's resequencer reports
// back into a sender-side view of the remote end: per-channel loss as
// the receiver measured it (catching silent loss the local error
// streak never sees), resequencer occupancy, and NTP-style
// min-filtered one-way delay estimates from marker timestamp pairs.
// Sessions maintain one automatically and attach it to the Collector;
// read it via Snapshot.Peer, HealthReport.Peer, or Collector.PeerView.
type PeerView = obs.PeerView

// PeerSnapshot is one immutable publication of the peer's reported
// view; see PeerChannel for the per-channel fields.
type PeerSnapshot = obs.PeerSnapshot

// PeerChannel is one channel's slice of a PeerSnapshot: the peer's
// cumulative delivery/loss/resync counters, the loss-fraction EWMA,
// and the one-way delay estimate (absolute value embeds the inter-host
// clock offset; RelativeDelayNs is offset-free).
type PeerChannel = obs.PeerChannel

// NewPeerView returns a peer view sized for n channels, for embedders
// driving core.Resequencer/Striper directly; sessions create their
// own.
func NewPeerView(n int) *PeerView { return obs.NewPeerView(n) }

// ReceiverStats is the receive ledger returned by Receiver.Stats and
// Session.Stats: totals on the value itself, one row per channel in
// PerChannel. See doc.go for field meanings.
type ReceiverStats = core.ResequencerStats

// SenderStats is the send ledger returned by Sender.Stats and
// Session.SendStats; see doc.go for field meanings.
type SenderStats = core.StriperStats

// ChannelLoad is one channel's row of SenderStats.
type ChannelLoad = core.ChannelLoad
