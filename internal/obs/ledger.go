// The ledgers: the one place protocol events are counted.
//
// The engines (core.Striper, core.Resequencer) are single-writer state
// machines, so they count in plain fields of the types below — one
// ledger per direction, one row per channel — and publish absolute
// copies to a Collector at their flush points (PublishSend,
// PublishRecv). The Collector never counts an event itself; Snapshot,
// the Prometheus exposition, the health report and the windowed rollup
// are all read off the published rows. The types live here rather than
// in core so that both packages can name them: core.StriperStats and
// core.ResequencerStats are aliases.
package obs

// SendChannel is one channel's row of the send ledger.
type SendChannel struct {
	Packets      int64 // data packets striped onto the channel
	Bytes        int64 // data payload bytes striped onto the channel
	Markers      int64 // markers emitted on the channel
	BlockedSends int64 // sends vetoed by flow control
	Joins        int64 // (re)admissions to the transmit live set
	Drains       int64 // removals from the transmit live set

	Quantum         int64 // gauge: configured quantum (0 for round-less schedulers)
	Surplus         int64 // gauge: SRR deficit/surplus counter
	CreditRemaining int64 // gauge: unused flow-control credit (0 without a gate)
	Removed         bool  // gauge: slot is out of the transmit live set

	// Fairness baseline: the (round, striped bytes) position at the
	// channel's most recent (re)join. The Theorem 3.2 band is asserted
	// over rounds the channel actually participated in, so a rejoined
	// channel is not charged for rounds it sat out. Zero until the first
	// rejoin, which is the since-construction baseline.
	JoinRound uint64
	JoinBytes int64
}

// SendLedger is the sender engine's ledger. DataPackets, DataBytes and
// Markers are the sums of the per-channel rows, filled in by Sum; the
// engine itself counts only in the rows.
type SendLedger struct {
	DataPackets int64 // data packets transmitted
	DataBytes   int64 // data payload bytes transmitted
	Markers     int64 // marker packets transmitted

	Round     uint64 // gauge: the sender's global round G
	Epoch     uint64 // gauge: current reset epoch
	MaxPacket int64  // gauge: largest data payload striped (the Max of Theorem 3.2)
	Resets    int64  // resets broadcast

	PerChannel []SendChannel
}

// add accumulates o's counters (not its gauges) into s.
func (s *SendChannel) add(o *SendChannel) {
	s.Packets += o.Packets
	s.Bytes += o.Bytes
	s.Markers += o.Markers
	s.BlockedSends += o.BlockedSends
	s.Joins += o.Joins
	s.Drains += o.Drains
}

// Sum refreshes the ledger-level totals from the rows.
func (l *SendLedger) Sum() {
	var t SendChannel
	for i := range l.PerChannel {
		t.add(&l.PerChannel[i])
	}
	l.DataPackets, l.DataBytes, l.Markers = t.Packets, t.Bytes, t.Markers
}

// RecvChannel is one channel's row of the receive ledger. Every packet
// of every kind physically received on the channel has exactly one
// fate, and every fate has a name:
//
//	Arrived = Delivered + Buffered
//	        + Markers + Telemetry + Control              (consumed)
//	        + OldEpochDrops + OverflowDrops + MemberDrops + MemberLost
//	        + BadMarkers + BadMembers + BadTelemetry + UnknownKinds
//
// The identity is exact at every flush (Unaccounted is zero); the
// Checker's conservation check asserts it, so a discard with no name
// cannot be added to the receiver without a test going red.
type RecvChannel struct {
	Arrived        int64 // packets of every kind physically received
	ArrivedBytes   int64 // data payload bytes physically received
	Delivered      int64 // data packets handed to the application
	DeliveredBytes int64
	Buffered       int64 // gauge: packets (any kind) held awaiting their turn
	BufferedBytes  int64 // gauge: data payload bytes held

	Markers   int64 // valid markers consumed
	Telemetry int64 // telemetry blocks consumed
	Control   int64 // member blocks, reset packets and stray credits consumed

	OldEpochDrops int64 // packets discarded while waiting out a reset
	OverflowDrops int64 // arrivals discarded at the hard buffer cap
	MemberDrops   int64 // data arrivals discarded on a removed slot
	MemberLost    int64 // buffered data declared lost at retirement
	BadMarkers    int64 // markers dropped as corrupt or mis-addressed
	BadMembers    int64 // membership blocks dropped as corrupt or foreign
	BadTelemetry  int64 // telemetry blocks dropped as corrupt
	UnknownKinds  int64 // arrivals dropped for unrecognized codepoints

	// Not fates: protocol events attributed to the channel.
	EagerMarkers int64 // of Markers, those consumed eagerly at arrival
	Resyncs      int64 // markers (or sequence gaps) that changed receiver state
	Skips        int64 // channel visits skipped under the r_c > G rule
	MemberJoins  int64 // (re)admissions to the receive live set
	MemberDrains int64 // retirements completed
	LossMarkers  int64 // markers whose Sent position revealed new in-flight loss
	LostBytes    int64 // data bytes marker Sent positions prove lost in flight (monotone)

	// Stamps of the newest valid marker physically received.
	LastMarkerAt int64 // process timebase (Now); 0 = never
	MarkerTxNs   int64 // sender clock of the newest stamped marker
	MarkerRxNs   int64 // receiver clock at that marker's arrival

	Draining bool // gauge: out of the live set, buffer still draining
	Removed  bool // gauge: out of the receive live set
}

// Unaccounted returns the number of packets received on the channel
// that have no named fate: Arrived minus every term of the
// conservation identity. Zero on a correct receiver, always.
func (r *RecvChannel) Unaccounted() int64 {
	return r.Arrived - r.Delivered - r.Buffered -
		r.Markers - r.Telemetry - r.Control -
		r.OldEpochDrops - r.OverflowDrops - r.MemberDrops - r.MemberLost -
		r.BadMarkers - r.BadMembers - r.BadTelemetry - r.UnknownKinds
}

// add accumulates o's additive fields (everything but the stamps and
// the membership gauges) into r.
func (r *RecvChannel) add(o *RecvChannel) {
	r.Arrived += o.Arrived
	r.ArrivedBytes += o.ArrivedBytes
	r.Delivered += o.Delivered
	r.DeliveredBytes += o.DeliveredBytes
	r.Buffered += o.Buffered
	r.BufferedBytes += o.BufferedBytes
	r.Markers += o.Markers
	r.Telemetry += o.Telemetry
	r.Control += o.Control
	r.OldEpochDrops += o.OldEpochDrops
	r.OverflowDrops += o.OverflowDrops
	r.MemberDrops += o.MemberDrops
	r.MemberLost += o.MemberLost
	r.BadMarkers += o.BadMarkers
	r.BadMembers += o.BadMembers
	r.BadTelemetry += o.BadTelemetry
	r.UnknownKinds += o.UnknownKinds
	r.EagerMarkers += o.EagerMarkers
	r.Resyncs += o.Resyncs
	r.Skips += o.Skips
	r.MemberJoins += o.MemberJoins
	r.MemberDrains += o.MemberDrains
	r.LossMarkers += o.LossMarkers
	r.LostBytes += o.LostBytes
}

// RecvLedger is the receiver engine's ledger. The embedded row is the
// sum of the per-channel rows' additive fields, filled in by Sum (so
// Stats().Delivered, Stats().MemberDrops and friends read as totals);
// the engine itself counts per-channel facts only in the rows.
type RecvLedger struct {
	RecvChannel

	Resets       int64 // epoch resets applied
	SelfHeals    int64 // self-stabilization events (state adopted from markers)
	FastForwards int64 // round fast-forwards while every channel was skip-listed
	Overflows    int64 // buffer-cap overflow escalations

	Occupancy int64 // gauge: packets held now, every buffer plus ModeNone's delivery queue
	HighWater int64 // exact maximum Occupancy has reached

	PerChannel []RecvChannel
}

// Sum refreshes the embedded totals row from the per-channel rows.
func (l *RecvLedger) Sum() {
	l.RecvChannel = RecvChannel{}
	for i := range l.PerChannel {
		l.RecvChannel.add(&l.PerChannel[i])
	}
}
