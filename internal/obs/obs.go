// Package obs is the runtime observability layer: a publisher and
// reader of the engines' ledgers plus a protocol event bus, designed so
// that the paper's live properties — the SRR fairness bound
// |K·Quantum_i − bytes_i| ≤ Max + 2·Quantum (Theorem 3.2) and
// quasi-FIFO recovery within one marker period (Theorem 5.1) — are
// observable on a running Session instead of only in offline tests.
//
// One ledger: the striper and resequencer count every protocol event
// in plain fields of the ledger types in ledger.go, and publish
// absolute copies to a *Collector at their flush points (PublishSend,
// PublishRecv). The collector counts nothing the engines count; its
// Snapshot, the Prometheus exposition, the health report and the
// windowed rollup are generated from the published rows, and the
// attached Checker asserts packet conservation over them at every
// flush. What the collector does own are the facts no engine holds
// (credit-stall time, rejected grants, evictions), two distributions (the displacement histogram and the
// sampled lifecycle tracer), and the event bus.
//
// Every method is nil-safe: instrumented code calls the collector
// unconditionally, and a nil collector compiles to a pointer test.
//
// Protocol transitions — marker resync, skip-rule activation, reset,
// self-heal, fast-forward, credit exhaustion, membership changes —
// fire events through Emit to any attached Sink (see sink.go).
// Exposition to Prometheus text format lives in prometheus.go; the
// HTTP endpoint that serves it (plus the health report and
// net/http/pprof) is stripe.Serve.
//
// Naming note: package trace (internal/trace) generates *workloads*
// for the experiments; this package is the runtime tracing layer.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// ChannelSource reports a physical channel's own counters: packets it
// dropped (loss or corruption) and its transmit queue occupancy. The
// channel keeps the count; the collector reads it when asked.
type ChannelSource func() (lost, queueDepth int64)

// Collector publishes the engines' ledgers to readers. Construct with
// NewCollector and attach to StriperConfig.Obs / ResequencerConfig.Obs
// (or the public stripe.Config.Collector). All methods are safe for
// concurrent use and safe on a nil receiver.
type Collector struct {
	name string
	n    int

	// The published ledgers, absolute copies stored by the engines at
	// their flush points. One mutex, taken once per flush and once per
	// read; nothing per packet touches it.
	mu      sync.Mutex
	send    SendLedger
	recv    RecvLedger
	chanSrc []ChannelSource
	sinks   atomic.Pointer[[]Sink]

	creditStall   atomic.Int64 // nanoseconds blocked on exhausted credit
	creditRejects atomic.Int64 // wire grants rejected as invalid

	displacement Histogram // reordering lateness per delivery

	eventSeq    atomic.Uint64
	eventCounts [nKinds]atomic.Int64
	// Per-channel counts of the two membership events no engine ledger
	// holds: the session's health monitor decides them.
	evictions  []atomic.Int64
	reinstates []atomic.Int64

	tracer    atomic.Pointer[Tracer]       // packet lifecycle tracing (lifecycle.go)
	checker   atomic.Pointer[Checker]      // runtime invariant checks (invariants.go)
	creditSrc atomic.Pointer[CreditSource] // credit ledgers for the checker
	windows   atomic.Pointer[Windows]      // windowed telemetry rollup (window.go)
	peer      atomic.Pointer[PeerView]     // peer-reported telemetry view (peer.go)
}

// NewCollector returns a collector sized for n channels.
func NewCollector(n int) *Collector {
	if n < 0 {
		n = 0
	}
	return &Collector{
		n:          n,
		send:       SendLedger{PerChannel: make([]SendChannel, n)},
		recv:       RecvLedger{PerChannel: make([]RecvChannel, n)},
		chanSrc:    make([]ChannelSource, n),
		evictions:  make([]atomic.Int64, n),
		reinstates: make([]atomic.Int64, n),
	}
}

// NewNamedCollector returns a collector whose metrics carry a
// session="name" label in Prometheus exposition, for processes hosting
// several sessions.
func NewNamedCollector(name string, n int) *Collector {
	c := NewCollector(n)
	c.name = name
	return c
}

// N returns the channel count the collector was sized for; zero on a
// nil collector.
func (c *Collector) N() int {
	if c == nil {
		return 0
	}
	return c.n
}

// Name returns the collector's session label ("" when unnamed).
func (c *Collector) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// AddSink attaches a protocol event sink. Sinks receive every event
// emitted after attachment; attach before wiring the collector into a
// running engine to see everything.
func (c *Collector) AddSink(s Sink) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next []Sink
	if cur := c.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	c.sinks.Store(&next)
}

// SetChannelSource registers the reader for physical channel's own
// loss and queue-depth counters. A nil src clears it.
func (c *Collector) SetChannelSource(channel int, src ChannelSource) {
	if c == nil || channel < 0 || channel >= c.n {
		return
	}
	c.mu.Lock()
	c.chanSrc[channel] = src
	c.mu.Unlock()
}

// Emit fans a protocol event out to the attached sinks and counts it by
// kind. The engines count the event in their own ledger; this is the
// bus, not a second count. Channel is -1 for events that are not
// channel-specific; the meanings of round and value depend on the kind
// (see the Kind constants).
//
//stripe:hotpath
func (c *Collector) Emit(k Kind, channel int, round uint64, value int64) {
	if c == nil || k >= nKinds {
		return
	}
	c.eventCounts[k].Add(1)
	if channel >= 0 && channel < c.n {
		switch k {
		case KindMemberEvict:
			c.evictions[channel].Add(1)
		case KindMemberReinstate:
			c.reinstates[channel].Add(1)
		}
	}
	sinks := c.sinks.Load()
	if sinks == nil {
		return
	}
	e := Event{Seq: c.eventSeq.Add(1), At: Now(), Kind: k, Channel: channel, Round: round, Value: value}
	for _, s := range *sinks {
		s.Event(e)
	}
}

// PublishSend stores an absolute copy of the sender engine's ledger
// and runs the attached checks. The striper calls it from SyncObs —
// every obsFlushEvery packets, at marker cadence, and from
// Stats/Snapshot — under the engine's lock. Counters must be monotone
// across calls to keep Prometheus counter semantics.
//
//stripe:allowescape takes the publication mutex and runs invariant checks (which lock); called once per flush, never per packet
func (c *Collector) PublishSend(l *SendLedger) {
	if c == nil {
		return
	}
	c.mu.Lock()
	rows := c.send.PerChannel
	c.send = *l
	c.send.PerChannel = rows
	copy(rows, l.PerChannel)
	c.mu.Unlock()
	c.RunChecks()
}

// PublishRecv is PublishSend's mirror image for the receiver engine's
// ledger; the resequencer calls it from its own SyncObs.
//
//stripe:allowescape takes the publication mutex and runs invariant checks (which lock); called once per flush, never per packet
func (c *Collector) PublishRecv(l *RecvLedger) {
	if c == nil {
		return
	}
	c.mu.Lock()
	rows := c.recv.PerChannel
	c.recv = *l
	c.recv.PerChannel = rows
	copy(rows, l.PerChannel)
	c.mu.Unlock()
	c.RunChecks()
}

// Displaced records one delivery's reordering lateness in packets (0 =
// in order): how far behind the highest-ID delivery so far it arrived.
//
//stripe:hotpath
func (c *Collector) Displaced(displacement int64) {
	if c == nil {
		return
	}
	c.displacement.Observe(displacement)
}

// AddCreditStall accumulates wall-clock time a sender spent blocked
// waiting for credits.
func (c *Collector) AddCreditStall(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.creditStall.Add(int64(d))
}

// OnCreditRejected records a wire grant the gate refused (out-of-range
// channel, negative value, or a grant beyond the sent + window bound).
func (c *Collector) OnCreditRejected(channel int) {
	if c == nil {
		return
	}
	c.creditRejects.Add(1)
}

// --- Derived metrics ---------------------------------------------------

// Fairness returns the live fairness gauge: the maximum over live
// channels of |K_i·Quantum_i − bytes_i| (K_i the rounds elapsed since
// the channel's fairness baseline — its construction or most recent
// rejoin, SendChannel.JoinRound — and bytes_i the data bytes striped
// onto it since then) and
// the theoretical bound Max + 2·max_i(Quantum_i) of Theorem 3.2. With
// static membership the baselines are zero and this is the original
// since-construction gauge. Channels currently out of the transmit set
// are excluded: the theorem quantifies over the surviving set. Both
// results are zero until a round completes or when no quanta were
// published (non-round-based schedulers).
func (c *Collector) Fairness() (discrepancy, bound int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fairnessLocked()
}

func (c *Collector) fairnessLocked() (discrepancy, bound int64) {
	k := c.send.Round
	if k == 0 {
		return 0, 0
	}
	var maxQ int64
	for i := range c.send.PerChannel {
		row := &c.send.PerChannel[i]
		if row.Quantum <= 0 || row.Removed {
			continue
		}
		if row.Quantum > maxQ {
			maxQ = row.Quantum
		}
		if row.JoinRound >= k {
			// Joined for a future round; no participation to measure yet.
			continue
		}
		// k > JoinRound >= 0, so the difference fits int64 for any
		// realistic round count
		d := int64(k-row.JoinRound)*row.Quantum - (row.Bytes - row.JoinBytes)
		if d < 0 {
			d = -d
		}
		if d > discrepancy {
			discrepancy = d
		}
	}
	if maxQ == 0 {
		return 0, 0
	}
	return discrepancy, c.send.MaxPacket + 2*maxQ
}

// --- Snapshot ----------------------------------------------------------

// ChannelSnapshot is a point-in-time copy of everything known about one
// channel: its row of each published ledger, the physical channel's own
// counters, and the session-level membership facts.
type ChannelSnapshot struct {
	Tx SendChannel // send-ledger row
	Rx RecvChannel // receive-ledger row

	Lost       int64 // packets dropped by the physical channel itself
	QueueDepth int64 // gauge: transmit queue occupancy

	MemberEvictions  int64 // health-monitor forced removals
	MemberReinstates int64 // health-monitor re-admissions
	// MemberActive is the live-set gauge: false once either direction's
	// engine has the slot out of its live set.
	MemberActive bool
}

// Snapshot is a point-in-time copy of every metric the collector holds,
// plus the derived fairness gauge. It is what Session.Snapshot,
// Sender.Snapshot and Receiver.Snapshot return, and the source of the
// Prometheus exposition.
type Snapshot struct {
	Name     string `json:",omitempty"`
	Channels []ChannelSnapshot

	// Tx and Rx are the sums of the per-channel ledger rows.
	Tx SendChannel
	Rx RecvChannel

	Round     uint64
	Epoch     uint64
	MaxPacket int64

	Resets       int64 // resets broadcast plus resets applied
	SelfHeals    int64
	FastForwards int64

	CreditStall   time.Duration // total time senders spent credit-blocked
	CreditRejects int64         // wire grants refused by the gate

	Buffered          int64 // resequencer occupancy as of the last flush
	BufferedHighWater int64 // exact maximum occupancy
	ReseqOverflows    int64 // buffer-cap escalations

	// FairnessDiscrepancy is max_i |K·Quantum_i − bytes_i|;
	// FairnessBound is the Theorem 3.2 ceiling Max + 2·Quantum. A
	// discrepancy above the bound means the fairness invariant broke —
	// visible here as a metric, not just a test failure.
	FairnessDiscrepancy int64
	FairnessBound       int64

	Displacement HistogramSnapshot

	// Lifecycle is the attached packet tracer's aggregates; nil when no
	// tracer is attached.
	Lifecycle *TracerSnapshot `json:",omitempty"`

	// Windows is the attached rollup engine's latest publication: the
	// windowed per-channel rates and health scores. Nil when no Windows
	// is attached or it has not folded yet.
	Windows *WindowsSnapshot `json:",omitempty"`

	// Peer is the attached peer view's latest publication: the remote
	// resequencer's reported loss/occupancy and the cross-endpoint
	// delay estimates. Nil when no PeerView is attached or no telemetry
	// has arrived yet.
	Peer *PeerSnapshot `json:",omitempty"`

	// InvariantViolations counts invariant-checker findings; any nonzero
	// value means a protocol theorem was observed broken at runtime.
	// Violations holds the most recent findings, oldest first.
	InvariantViolations int64       `json:",omitempty"`
	Violations          []Violation `json:",omitempty"`

	Events map[string]int64 `json:",omitempty"` // per-kind event counts
}

// channelsLocked fills dst (len n) from the published rows, the channel
// sources and the bus's membership counts. It allocates nothing. Caller
// holds c.mu.
func (c *Collector) channelsLocked(dst []ChannelSnapshot) {
	for i := range dst {
		tx, rx := &c.send.PerChannel[i], &c.recv.PerChannel[i]
		dst[i] = ChannelSnapshot{
			Tx: *tx, Rx: *rx,
			MemberEvictions:  c.evictions[i].Load(),
			MemberReinstates: c.reinstates[i].Load(),
			MemberActive:     !tx.Removed && !rx.Removed,
		}
		if src := c.chanSrc[i]; src != nil {
			dst[i].Lost, dst[i].QueueDepth = src()
		}
	}
}

// readChannels is channelsLocked for the windowed rollup, which calls
// it on the flush path; it also returns the published sender round.
//
//stripe:allowescape takes the publication mutex once per rollup tick (default 1s), never per packet
func (c *Collector) readChannels(dst []ChannelSnapshot) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.channelsLocked(dst)
	return c.send.Round
}

// Snapshot returns a copy of the published ledgers (each exact as of
// its engine's last flush) and everything the collector owns. Safe on
// nil (returns the zero Snapshot).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Name:          c.name,
		Channels:      make([]ChannelSnapshot, c.n),
		CreditStall:   time.Duration(c.creditStall.Load()),
		CreditRejects: c.creditRejects.Load(),
		Displacement:  c.displacement.Snapshot(),
		Events:        c.eventCountsMap(),
	}
	c.mu.Lock()
	c.channelsLocked(s.Channels)
	s.Round, s.Epoch, s.MaxPacket = c.send.Round, c.send.Epoch, c.send.MaxPacket
	s.Resets = c.send.Resets + c.recv.Resets
	s.SelfHeals, s.FastForwards = c.recv.SelfHeals, c.recv.FastForwards
	s.Buffered, s.BufferedHighWater = c.recv.Occupancy, c.recv.HighWater
	s.ReseqOverflows = c.recv.Overflows
	s.FairnessDiscrepancy, s.FairnessBound = c.fairnessLocked()
	c.mu.Unlock()
	for i := range s.Channels {
		s.Tx.add(&s.Channels[i].Tx)
		s.Rx.add(&s.Channels[i].Rx)
	}
	if t := c.tracer.Load(); t != nil {
		ts := t.Snapshot()
		s.Lifecycle = &ts
	}
	if w := c.windows.Load(); w != nil {
		s.Windows = w.Latest()
	}
	if pv := c.peer.Load(); pv != nil {
		s.Peer = pv.Latest()
	}
	if ck := c.checker.Load(); ck != nil {
		s.InvariantViolations = ck.ViolationCount()
		s.Violations = ck.Violations()
	}
	return s
}

// eventCountsMap returns the nonzero per-kind event counts, nil when no
// event has fired.
func (c *Collector) eventCountsMap() map[string]int64 {
	var m map[string]int64
	for k := Kind(0); k < nKinds; k++ {
		if n := c.eventCounts[k].Load(); n != 0 {
			if m == nil {
				m = make(map[string]int64, int(nKinds))
			}
			m[k.String()] = n
		}
	}
	return m
}
