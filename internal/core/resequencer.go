package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// Mode selects the receive discipline.
type Mode uint8

const (
	// ModeLogical is the paper's scheme: per-channel buffering plus
	// receiver simulation of the sender automaton, giving quasi-FIFO
	// delivery with unmodified packets and marker-based recovery.
	ModeLogical Mode = iota
	// ModeNone performs no resequencing: packets are delivered in
	// physical arrival order. This is the "no logical reception"
	// baseline of Figure 15.
	ModeNone
	// ModeSequence resequences on explicit per-packet sequence numbers
	// (requires the striper's AddSeq). Delivery is guaranteed FIFO; a
	// sequence gap is declared lost once every channel's head has moved
	// past it (per-channel FIFO makes that sound).
	ModeSequence
)

// ResequencerConfig configures a receiver engine.
type ResequencerConfig struct {
	// Sched is the receiver's copy of the sender automaton, in the
	// common start state. Required for ModeLogical (unless CausalSched
	// is given); ignored otherwise.
	Sched sched.RoundBased
	// CausalSched enables logical reception for causal schedulers
	// without round structure (for example the randomized RFQ of
	// Section 3.4). Theorem 4.1 needs only causality, so FIFO delivery
	// works; the round/deficit marker recovery of Section 5 does not
	// apply, so resynchronization after loss requires a reset. Ignored
	// when Sched is set.
	CausalSched sched.Causal
	// N is the channel count; required for ModeNone and ModeSequence
	// (ModeLogical takes it from Sched).
	N int
	// Mode selects the receive discipline.
	Mode Mode
	// OnGrant, when non-nil, is handed every cumulative grant the peer
	// states for the local sender's channel ch — a valid marker's non-zero
	// Credits, or a credit packet addressed to the channel it arrived on —
	// at arrival, in any mode: grants are monotone, so reading one ahead of
	// its place in the delivery order is safe, and it keeps the transmit
	// side live while the application is slow to consume. Without a
	// handler credit packets are counted and discarded.
	OnGrant func(ch int, grant uint64)
	// OnMembership, when non-nil, observes membership transitions the
	// receiver applies: joined=true when channel c is (re)admitted,
	// false when its retirement completes. Sessions use it to mirror the
	// peer's membership onto their own transmit side and to recompute
	// derived sizing (buffer caps) for the new live set.
	OnMembership func(c int, joined bool)
	// OnTelemetry, when non-nil, observes every structurally valid
	// telemetry block arriving from the peer. Sessions feed it into an
	// obs.PeerView; without a handler telemetry packets are counted and
	// dropped.
	OnTelemetry func(t packet.TelemetryBlock)
	// Now supplies the receiver clock (nanoseconds) used to stamp marker
	// arrivals for the telemetry plane's one-way delay samples. Nil
	// selects time.Now. Deterministic harnesses inject a virtual clock.
	Now func() int64
	// SelfHealGap tunes the self-stabilization detector: a marker counts
	// as evidence of state corruption only when it is stale by more than
	// this many rounds. Legitimate staleness (markers buffered behind
	// data while overdrafted channels are skipped) is bounded by roughly
	// Max/min(Quantum) rounds, so the default of 256 never fires for
	// sane configurations. Zero selects the default; negative disables
	// self-healing.
	SelfHealGap int64
	// MaxBuffered caps the total packets held across the receiver's
	// buffers, making resequencer memory hard-bounded. Above the cap
	// the receiver escalates instead of growing: ordering is abandoned
	// for the backlog (forced delivery, the same medicine a reset
	// applies to ordering state) until occupancy falls to half the cap,
	// and while occupancy exceeds twice the cap, arrivals other than
	// resets are dropped — indistinguishable from channel loss, which
	// the marker protocol already recovers from. Zero means unbounded
	// (the seed behaviour).
	MaxBuffered int
	// Obs, when non-nil, is published the receive ledger at every flush
	// (see SyncObs) and sent protocol events (resync, skip, reset,
	// self-heal, fast-forward, membership). A nil collector disables
	// instrumentation at the cost of one pointer test per packet.
	Obs *obs.Collector
}

// ResequencerStats is the receive ledger: every receiver event, counted
// once, per channel, with the embedded row holding the totals. See
// obs.RecvLedger for the fields and the conservation identity.
type ResequencerStats = obs.RecvLedger

// Resequencer is the receiver engine. Drive it by pushing packets from
// each channel with Arrive and pulling in-order deliveries with Next.
// It is a pure state machine: not safe for concurrent use.
type Resequencer struct {
	mode   Mode
	s      sched.RoundBased
	cs     sched.Causal // round-less causal simulation (no markers)
	csInit sched.State  // cs start state, for resets
	n      int
	bufs   []pktFIFO
	arrivq pktFIFO // ModeNone delivery queue

	// Marker state (ModeLogical).
	expect []uint64
	marked []bool
	// Pending marker slots for eager draining (round-based ModeLogical):
	// a marker popped from the head of its buffer at arrival has its
	// (round, deficit) staged here and applied when the scan next visits
	// the channel — the same stream position a buffered marker would
	// have been applied at, so scheduler-state conventions (mid-service
	// adjustments in particular) are undisturbed. Later markers
	// supersede earlier ones, so the slot bounds idle-direction marker
	// memory at one per channel.
	pending    []packet.MarkerBlock
	pendingHas []bool

	// skip is the skipRule method value, bound once here so the
	// per-delivery scan does not allocate a fresh closure for it.
	skip func(c int) bool

	// Sequence state (ModeSequence).
	nextSeq uint64

	// Reset/epoch state.
	epoch     uint64
	resetting bool
	passed    []bool

	// led is the receive ledger, the only count of every receiver event.
	// Its per-channel rows also carry what flow control and the telemetry
	// plane read: cumulative delivered/arrived/buffered bytes, the exact
	// cumulative loss (the monotone max-fold of each marker's Sent
	// position minus ArrivedBytes — exact because channels are FIFO), and
	// the latest marker's arrival stamps.
	led ResequencerStats
	obs *obs.Collector
	// obsLag counts arrivals and deliveries since the ledger was last
	// published; see SyncObs.
	obsLag int

	now          func() int64
	telemetrySeq uint64
	onTelemetry  func(packet.TelemetryBlock)
	onGrant      func(ch int, grant uint64)

	// Memory bound state.
	maxBuffered int  // 0 = unbounded
	overflow    bool // escalated: deliver despite gaps until backlog halves
	// maxSeenID tracks the highest striper-assigned packet ID delivered
	// so far; a delivery below it is late by the difference, which is
	// the reordering displacement the collector histograms.
	maxSeenID int64

	// Self-stabilization state (Section 5's closing remark). A marker
	// whose round is *behind* the receiver's global round is "stale".
	// Transient staleness is normal (old markers still in flight), but
	// when every channel's latest marker is stale and no packet has been
	// delivered in between, the receiver's state cannot be a consistent
	// continuation of the sender's — it was corrupted (or wedged, which
	// deserves the same medicine). The receiver then adopts the state
	// the markers themselves declare, which resynchronizes in O(1)
	// without a round trip.
	staleRound   []uint64
	staleDeficit []int64
	staleHas     []bool
	staleCount   int
	healGap      uint64 // 0 = disabled

	// Dynamic membership (receive side). A channel leaves in two steps:
	// draining (departure announced or observed, its stream still being
	// delivered in order) then removed (stream complete and buffer empty,
	// slot disabled in the simulation, further arrivals on it dropped).
	// The universe is never renumbered, preserving condition C2.
	mem     sched.Membership // non-nil when the simulated scheduler supports it
	leaving []bool           // draining: out of the live set, stream not yet complete and drained
	left    []bool           // removed
	// delimited marks channels whose data stream is known complete: a
	// membership block arrived on the channel itself while excluding it,
	// and per-channel FIFO puts that block after every packet the sender
	// transmitted before retiring the slot — or RemoveChannel declared the
	// link dead locally. A draining delimited channel retires the moment
	// its buffer empties without losing anything that was in flight; an
	// undelimited one never retires, however long the scan blocks on it.
	delimited []bool
	// joinSeq is the announcement sequence number at which each slot was
	// last admitted (zero for the founding live set). A block that
	// excludes c delimits c's current stream iff it is newer than that:
	// staleness is judged per slot, because an announcement about another
	// channel may overtake c's delimiter without saying anything about c.
	joinSeq      []uint64
	leavingN     int
	memberSeq    uint64 // last applied announcement sequence number
	onMembership func(c int, joined bool)
}

// NewResequencer validates the configuration and returns a receiver.
func NewResequencer(cfg ResequencerConfig) (*Resequencer, error) {
	n := cfg.N
	var cs sched.Causal
	if cfg.Mode == ModeLogical {
		switch {
		case cfg.Sched != nil:
			n = cfg.Sched.N()
		case cfg.CausalSched != nil:
			cs = cfg.CausalSched
			n = cs.N()
		default:
			return nil, errors.New("core: ModeLogical requires a scheduler")
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: need a positive channel count, got %d", n)
	}
	healGap := uint64(256)
	switch {
	case cfg.SelfHealGap > 0:
		healGap = uint64(cfg.SelfHealGap)
	case cfg.SelfHealGap < 0:
		healGap = 0
	}
	if cfg.Obs != nil && cfg.Obs.N() != n {
		return nil, fmt.Errorf("core: collector sized for %d channels, want %d", cfg.Obs.N(), n)
	}
	if cfg.MaxBuffered < 0 {
		return nil, fmt.Errorf("core: negative buffer cap %d", cfg.MaxBuffered)
	}
	rr := &Resequencer{
		mode:         cfg.Mode,
		s:            cfg.Sched,
		cs:           cs,
		n:            n,
		healGap:      healGap,
		obs:          cfg.Obs,
		maxSeenID:    -1,
		maxBuffered:  cfg.MaxBuffered,
		bufs:         make([]pktFIFO, n),
		expect:       make([]uint64, n),
		marked:       make([]bool, n),
		pending:      make([]packet.MarkerBlock, n),
		pendingHas:   make([]bool, n),
		passed:       make([]bool, n),
		onGrant:      cfg.OnGrant,
		led:          ResequencerStats{PerChannel: make([]obs.RecvChannel, n)},
		staleRound:   make([]uint64, n),
		staleDeficit: make([]int64, n),
		staleHas:     make([]bool, n),
		leaving:      make([]bool, n),
		left:         make([]bool, n),
		delimited:    make([]bool, n),
		joinSeq:      make([]uint64, n),
		onMembership: cfg.OnMembership,
		now:          cfg.Now,
		onTelemetry:  cfg.OnTelemetry,
	}
	if rr.now == nil {
		rr.now = nowNs
	}
	rr.mem, _ = cfg.Sched.(sched.Membership)
	rr.skip = rr.skipRule
	if cs != nil {
		rr.csInit = cs.Snapshot().Clone()
	}
	return rr, nil
}

// N returns the channel count.
func (r *Resequencer) N() int { return r.n }

// Stats returns a copy of the receive ledger with its totals summed. It
// also publishes the ledger, so a Stats call brings an attached
// collector fully up to date.
func (r *Resequencer) Stats() ResequencerStats {
	r.SyncObs()
	s := r.led
	s.PerChannel = append([]obs.RecvChannel(nil), r.led.PerChannel...)
	s.Sum()
	return s
}

// Channel returns a copy of channel c's ledger row (the zero row when c
// is out of range). The session's marker tick reads Buffered from it to
// tell a draining slot that is empty from one still delivering.
func (r *Resequencer) Channel(c int) obs.RecvChannel {
	if c < 0 || c >= r.n {
		return obs.RecvChannel{}
	}
	return r.led.PerChannel[c]
}

// DeliveredBytesOn returns the cumulative data bytes delivered that
// arrived on channel c. Credit-based flow control derives cumulative
// grants from it.
func (r *Resequencer) DeliveredBytesOn(c int) int64 { return r.led.PerChannel[c].DeliveredBytes }

// ReleasedBytesOn returns the cumulative data bytes on channel c that
// no longer occupy the channel or this receiver: everything that arrived
// and is not held in a buffer, plus everything a marker proved lost. A
// session grants its peer a window past it, and it is the only credit
// reconciliation there is, for three reasons. At a marker's arrival
// LostBytes is Sent − ArrivedBytes (harvestMarker), so the position
// reads Sent − BufferedBytes: what the sender put on the channel less
// what is still held here. It never falls: a buffered arrival adds to
// both terms, a buffer only shrinks, LostBytes is a max-fold. And it
// never passes the sender's own sent − buffered, because every byte
// ArrivedBytes or LostBytes counts was first sent — so a window past it
// cannot overrun the receive buffer. Counting from arrivals rather than
// deliveries is what covers every fate: a packet discarded undelivered
// (old epoch, overflow, removed slot, a backlog abandoned at retirement)
// holds no buffer either, so its bytes go back to the sender as it is
// discarded instead of when the next marker proves them gone.
func (r *Resequencer) ReleasedBytesOn(c int) int64 {
	row := &r.led.PerChannel[c]
	return row.ArrivedBytes - row.BufferedBytes + row.LostBytes
}

// Buffered returns the total number of packets waiting in per-channel
// buffers (plus, in ModeNone, the delivery queue).
func (r *Resequencer) Buffered() int { return int(r.led.Occupancy) }

// SyncObs publishes the receive ledger to the attached collector, the
// mirror image of Striper.SyncObs. It runs once obsFlushEvery arrivals
// and deliveries have accumulated (checked at the end of Arrive, Next
// and NextBatch), when Next or NextBatch finds nothing more to deliver
// (the consumer is about to wait, so an idle receiver's ledger is
// current), after a membership change, reset or overflow, and from
// Stats/Snapshot — so a scrape lags a loaded receiver by at most
// obsFlushEvery packets; sessions also publish on every marker tick,
// which bounds the lag of a receiver nobody is reading at a marker
// interval. The collector evaluates its checks on the published copy,
// packet conservation among them: every call site is a packet boundary,
// where each arrival has exactly one fate.
//
//stripe:allowescape publishes the ledger and runs invariant checks (which lock) at most once per obsFlushEvery packets or marker interval
func (r *Resequencer) SyncObs() {
	r.obsLag = 0
	r.obs.PublishRecv(&r.led)
}

// syncSoon forces a publication at the end of the current call; cold
// paths whose effects should be visible promptly use it.
func (r *Resequencer) syncSoon() { r.obsLag = obsFlushEvery }

// push buffers p at the tail of channel c.
func (r *Resequencer) push(c int, p *packet.Packet) {
	row := &r.led.PerChannel[c]
	row.Buffered++
	if p.Kind == packet.Data {
		row.BufferedBytes += int64(p.Len())
	}
	r.bufs[c].push(p)
	r.occupy()
}

// occupy counts one more packet held, maintaining the exact high-water
// mark.
func (r *Resequencer) occupy() {
	if r.led.Occupancy++; r.led.Occupancy > r.led.HighWater {
		r.led.HighWater = r.led.Occupancy
	}
}

// pop takes the head of channel c's buffer. The caller owes the packet
// a fate in the ledger row: deliver, consumeMarker, or a named counter.
func (r *Resequencer) pop(c int) (*packet.Packet, bool) {
	p, ok := r.bufs[c].pop()
	if ok {
		row := &r.led.PerChannel[c]
		row.Buffered--
		if p.Kind == packet.Data {
			row.BufferedBytes -= int64(p.Len())
		}
		r.led.Occupancy--
	}
	return p, ok
}

// deliver counts p, received on channel c, as handed to the
// application, and feeds the displacement histogram and the tracer.
func (r *Resequencer) deliver(c int, p *packet.Packet) {
	row := &r.led.PerChannel[c]
	row.Delivered++
	row.DeliveredBytes += int64(p.Len())
	r.obsLag++
	if r.obs == nil {
		return
	}
	var disp int64
	if id := int64(p.ID); id >= r.maxSeenID {
		r.maxSeenID = id
	} else {
		disp = r.maxSeenID - id
	}
	r.obs.Displaced(disp)
	r.obs.TraceDeliver(traceKey(p), disp)
}

// consumeMarker gives a marker taken off channel c its fate: a
// structurally valid marker addressed to c (condition C2: both ends
// number the channels identically, so a disagreement is mis-wiring) is
// counted; anything else is a bad marker. It returns the block and
// whether it was valid. What the marker says about loss, delay and
// credit was read when it arrived (harvestMarker). The block is a copy:
// the packet goes back to the pool here.
func (r *Resequencer) consumeMarker(c int, p *packet.Packet) (packet.MarkerBlock, bool) {
	m, err := packet.MarkerOf(p)
	p.Release()
	if err != nil || int(m.Channel) != c {
		r.led.PerChannel[c].BadMarkers++
		return m, false
	}
	r.led.PerChannel[c].Markers++
	return m, true
}

// Arrive accepts a packet physically received on channel c. Packets are
// buffered; ordering decisions happen in Next.
//
// Arrive takes ownership of a control packet (any Kind but Data): the
// resequencer releases it to the packet pool at the point it gives it a
// fate — consumed, applied or discarded, here or in a later Next — so the
// caller keeps no reference to it and hands the same pointer to nobody
// else. A data packet is never released here, delivered or discarded:
// its payload may be the application's.
//
//stripe:hotpath
func (r *Resequencer) Arrive(c int, p *packet.Packet) {
	if c < 0 || c >= r.n {
		return // unknown channel: drop defensively
	}
	r.arrive(c, p)
	if r.obsLag++; r.obsLag >= obsFlushEvery {
		r.SyncObs()
	}
}

func (r *Resequencer) arrive(c int, p *packet.Packet) {
	row := &r.led.PerChannel[c]
	row.Arrived++
	if p.Kind == packet.Data {
		// Count every physical data arrival, delivered or not: the
		// reconciliation identity loss = Sent − arrived needs the raw
		// arrival position, and bytes discarded below (old epochs,
		// overflow, removed slots) are credited back to the sender by
		// being counted here and never buffered (ReleasedBytesOn).
		row.ArrivedBytes += int64(p.Len())
		r.obs.TraceArrive(traceKey(p), c)
	}
	if r.resetting && !r.passed[c] {
		// Waiting for this channel's reset boundary: everything before
		// it belongs to the old epoch.
		if p.Kind == packet.Reset && resetEpoch(p) == r.epoch {
			row.Control++
			r.passed[c] = true
			if r.allPassed() {
				r.resetting = false
			}
		} else {
			row.OldEpochDrops++
		}
		discard(p)
		return
	}
	switch {
	case p.Kind == packet.Member:
		// Membership announcements apply eagerly: they are full-bitmap and
		// sequenced, so applying one out of stream order is harmless, and
		// a draining channel keeps delivering until its buffer empties
		// regardless of when the announcement was seen.
		m, err := packet.MemberOf(p)
		p.Release()
		if err != nil || int(m.N) != r.n {
			row.BadMembers++ // corrupt, or a foreign universe: mis-wired, do not apply
			return
		}
		row.Control++
		r.applyMember(m)
		if !m.ActiveChannel(c) && m.Seq > r.joinSeq[c] {
			// The block arrived on a channel it excludes: it is the
			// departure's FIFO delimiter (or a later probe), so every
			// packet the sender put on c before retiring the slot has
			// already arrived. A draining c may now retire as soon as
			// its buffer drains, losing nothing in flight. (A block no
			// newer than c's last admission is a previous departure's
			// delimiter, overtaken by a rejoin learned on another channel;
			// it says nothing about the current incarnation's stream.)
			r.delimited[c] = true
			if r.leaving[c] && r.bufs[c].len() == 0 {
				r.retire(c)
			}
		}
		return
	case p.Kind == packet.Telemetry:
		// Telemetry is advisory control traffic for the local sender; it
		// never enters the delivery order or the simulation.
		r.consumeTelemetry(c, p)
		return
	case p.Kind == packet.Credit:
		// A credit is for the local sender's gate; it never enters the
		// delivery order either.
		r.consumeCredit(c, p)
		return
	case p.Kind > packet.Telemetry:
		// Forward compatibility: an unrecognized codepoint from a newer
		// peer is dropped here, before it can reach the buffers — the
		// delivery scans would otherwise account it against the simulated
		// schedulers and hand it to the application as data, desyncing
		// the two ends over a packet the sender never striped.
		row.UnknownKinds++
		p.Release()
		return
	case p.Kind == packet.Marker:
		r.harvestMarker(c, p)
	}
	if r.left[c] {
		// Removed slot. Data is dropped (the arrival accounting above
		// still credits it back to the sender); markers are only counted —
		// harvestMarker has read their credits and the slot has no
		// simulation state left to synchronize; resets must still apply
		// so a rejoining channel cannot wedge epoch recovery.
		if p.Kind == packet.Data {
			row.MemberDrops++
		} else {
			r.control(c, p)
		}
		return
	}
	if r.mode != ModeNone {
		if p.Kind != packet.Reset && r.enforceCap(c) {
			discard(p)
			return
		}
		r.push(c, p)
		if p.Kind == packet.Data {
			r.obs.TraceBuffered(traceKey(p))
		}
		r.drainEagerMarkers(c)
		return
	}
	// Arrival-order mode buffers nothing: control is consumed on the spot
	// and delivery is immediate, so the drain accounting used by flow
	// control happens here; the delivery queue only hands the packet over.
	if p.Kind != packet.Data {
		r.control(c, p)
	} else if !r.enforceCap(c) {
		r.deliver(c, p)
		r.arrivq.push(p)
		r.occupy()
	}
}

// enforceCap implements the buffer memory bound. It reports whether an
// arriving packet must be dropped outright (occupancy at twice the cap;
// the drop is counted here), and crossing the cap itself flips the
// receiver into overflow escalation: Next abandons strict order for the
// backlog until occupancy falls to half the cap. Dropping at the hard
// cap is safe by construction — to the protocol it is indistinguishable
// from channel loss, which markers already recover from — and it is what
// a real finite receive buffer does.
func (r *Resequencer) enforceCap(c int) (drop bool) {
	if r.maxBuffered == 0 {
		return false
	}
	total := r.Buffered()
	if total >= 2*r.maxBuffered {
		r.led.PerChannel[c].OverflowDrops++
		r.obs.Emit(obs.KindReseqOverflow, c, r.round(), -int64(total))
		r.syncSoon()
		return true
	}
	if total >= r.maxBuffered && !r.overflow {
		r.overflow = true
		r.led.Overflows++
		r.obs.Emit(obs.KindReseqOverflow, c, r.round(), int64(total))
		r.syncSoon()
	}
	return false
}

// round is the simulation's global round, for event context (zero for
// round-less disciplines).
func (r *Resequencer) round() uint64 {
	if r.s == nil {
		return 0
	}
	return r.s.Round()
}

// drainEagerMarkers consumes control packets sitting at the head of
// channel c's buffer immediately. A marker at the head has no data
// packet preceding it on its own FIFO channel, and consuming a marker
// is not a delivery, so nothing in the delivery order can precede it
// either — buffering it would only delay its synchronization state.
// Without this, an idle-but-markered direction accumulates markers
// without bound on channels the receiver simulation is not visiting.
func (r *Resequencer) drainEagerMarkers(c int) {
	for {
		p, ok := r.bufs[c].peek()
		if !ok {
			return
		}
		switch p.Kind {
		case packet.Marker:
			r.pop(c)
			m, ok := r.consumeMarker(c, p)
			if !ok {
				continue
			}
			r.led.PerChannel[c].EagerMarkers++
			if r.mode == ModeLogical && r.s != nil {
				// Applying scheduler state here would happen at an
				// arbitrary simulation position; stage it instead for the
				// scan to apply at the marker's true stream position. A
				// newer marker supersedes a staged one: the scan would
				// have applied them back to back with no data in between,
				// and the last application wins.
				r.pending[c] = m
				r.pendingHas[c] = true
			}
		default:
			return
		}
	}
}

// traceKey is a packet's lifecycle-tracing identity: the explicit
// sequence number when present (it crosses the wire, so both ends of a
// remote session agree on it), else the striper's in-process ID.
func traceKey(p *packet.Packet) uint64 {
	if p.HasSeq {
		return p.Seq
	}
	return p.ID
}

// WaitingOn returns the channel logical reception is blocked on. It is
// meaningful after Next returned false in ModeLogical.
func (r *Resequencer) WaitingOn() int {
	if r.mode != ModeLogical {
		return -1
	}
	if r.cs != nil {
		return r.cs.Select()
	}
	return r.s.Current()
}

// Next returns the next packet in delivery order, or false if the
// receiver must wait for more arrivals. It is NextBatch of one: a
// one-slot batch is full before the run fast path (drainRun) can take
// anything, so Next is the pure scan, which is what
// TestNextBatchEquivalentToNext compares the fast path against.
//
//stripe:hotpath
func (r *Resequencer) Next() (*packet.Packet, bool) {
	var one [1]*packet.Packet
	n := r.NextBatch(one[:])
	return one[0], n > 0
}

// NextBatch fills dst with the next packets in delivery order and
// returns how many it delivered (possibly zero, meaning the receiver
// must wait for more arrivals — the same condition as Next returning
// false). One call amortizes the scan machinery over whole service
// runs: once a delivery leaves the simulation mid-service of a
// channel, the run's remaining packets are taken straight off that
// channel without re-running channel selection, which is exactly what
// the scan would do — while the deficit stays positive SelectFor
// cannot move, fast-forward requires a service boundary, and nothing
// staged for the channel may apply before its run position.
//
//stripe:hotpath
func (r *Resequencer) NextBatch(dst []*packet.Packet) int {
	n := 0
	for n < len(dst) {
		p, ok := r.next()
		if !ok {
			break
		}
		dst[n] = p
		n++
		if r.mode == ModeLogical && r.cs == nil && r.leavingN == 0 {
			n += r.drainRun(dst[n:])
		}
	}
	if r.obsLag >= obsFlushEvery || (n == 0 && r.obsLag > 0) {
		r.SyncObs()
	}
	return n
}

// drainRun continues the current service run: while the round-based
// simulation is mid-service of a settled channel (no staged marker, not
// leaving) whose head is a data packet, delivery and deficit accounting
// proceed without the scan. Any other head kind — or the run ending —
// falls back to the full discipline in the caller's loop.
//
//stripe:hotpath
func (r *Resequencer) drainRun(dst []*packet.Packet) int {
	n := 0
	for n < len(dst) && r.s.MidService() {
		c := r.s.Current()
		if r.pendingHas[c] || r.left[c] || r.leaving[c] {
			break
		}
		p, ok := r.bufs[c].peek()
		if !ok || p.Kind != packet.Data {
			break
		}
		r.pop(c)
		r.s.Account(p.Len())
		r.deliver(c, p)
		dst[n] = p
		n++
	}
	return n
}

func (r *Resequencer) next() (*packet.Packet, bool) {
	// Overflow escalation ends once the backlog has halved (hysteresis,
	// so a buffer hovering at the cap does not flap in and out of forced
	// delivery).
	if r.overflow && r.Buffered() <= r.maxBuffered/2 {
		r.overflow = false
	}
	for {
		p, ok := r.dispatch()
		if ok {
			return p, true
		}
		// Blocked. Under overflow escalation, blocking is what grows the
		// buffer without bound, so force the discipline past the gap —
		// the same medicine Drain applies at end of stream.
		if !r.overflow || r.Buffered() == 0 || !r.forceAdvance() {
			return nil, false
		}
	}
}

func (r *Resequencer) dispatch() (*packet.Packet, bool) {
	switch r.mode {
	case ModeNone:
		p, ok := r.arrivq.pop()
		if ok {
			r.led.Occupancy--
		}
		return p, ok
	case ModeSequence:
		return r.nextSequence()
	default:
		if r.cs != nil {
			return r.nextCausal()
		}
		return r.nextLogical()
	}
}

// forceAdvance pushes a blocked delivery discipline past the channel or
// sequence gap it is waiting on, abandoning strict order for the
// backlog. It reports whether another delivery attempt is worthwhile.
// Reordering here is equivalent to unrecovered loss followed by
// quasi-FIFO resumption, which downstream consumers already tolerate.
func (r *Resequencer) forceAdvance() bool {
	switch r.mode {
	case ModeLogical:
		if r.cs != nil {
			// Round-less causal simulation: charge a phantom packet to
			// move the automaton past the exhausted channel.
			r.cs.Account(1)
			return true
		}
		// Abandon the blocked channel's service and clear any skip marks
		// that could spin the scan.
		for i := range r.marked {
			r.marked[i] = false
		}
		r.s.EndService()
		return true
	case ModeSequence:
		// Release the smallest buffered sequence number.
		min, ch := uint64(0), -1
		for c := 0; c < r.n; c++ {
			if p, ok := r.bufs[c].peek(); ok && p.Kind == packet.Data && p.HasSeq {
				if ch == -1 || p.Seq < min {
					min, ch = p.Seq, c
				}
			}
		}
		if ch == -1 {
			return false // the scan already consumed every control head
		}
		r.nextSeq = min
		return true
	default:
		return false
	}
}

// nextCausal is logical reception for round-less causal schedulers:
// pure sender simulation, no marker protocol.
func (r *Resequencer) nextCausal() (*packet.Packet, bool) {
	for {
		c := r.cs.Select()
		p, ok := r.bufs[c].peek()
		if !ok {
			return nil, false
		}
		if p.Kind != packet.Data {
			r.consumeControl(c)
			continue
		}
		r.pop(c)
		r.cs.Account(p.Len())
		r.deliver(c, p)
		return p, true
	}
}

// skipRule is the r_c > G rule. It is invoked through the skip field
// (a method value bound once at construction — binding it at the
// SelectFor call site would allocate a closure per scan), so hot
// traversal cannot see through the indirection; it carries its own
// annotation.
//
//stripe:hotpath
func (r *Resequencer) skipRule(c int) bool {
	if r.marked[c] && r.expect[c] > r.s.Round() {
		r.led.PerChannel[c].Skips++
		r.obs.Emit(obs.KindSkip, c, r.s.Round(), 0)
		return true
	}
	return false
}

// maybeFastForward jumps the receiver's round directly to the smallest
// expected round when every channel is skip-listed, so recovery after a
// long outage costs O(channels) instead of O(rounds missed).
func (r *Resequencer) maybeFastForward() {
	if r.s.MidService() {
		return
	}
	min := uint64(0)
	have := false
	for c := 0; c < r.n; c++ {
		if r.left[c] {
			continue // removed slots neither block nor bound the jump
		}
		if !r.marked[c] || r.expect[c] <= r.s.Round() {
			return
		}
		if !have || r.expect[c] < min {
			min = r.expect[c]
			have = true
		}
	}
	if !have {
		return
	}
	from := r.s.Round()
	r.s.AdvanceRoundTo(min)
	r.led.FastForwards++
	r.obs.Emit(obs.KindFastForward, -1, from, int64(min-from))
}

func (r *Resequencer) nextLogical() (*packet.Packet, bool) {
	for {
		if r.leavingN > 0 {
			r.sweepLeaving()
		}
		r.maybeFastForward()
		c := r.s.SelectFor(r.skip)
		if r.pendingHas[c] {
			// An eagerly drained marker staged for this channel: the scan
			// has now consumed everything that preceded it, which is the
			// position its scheduler state speaks about.
			r.pendingHas[c] = false
			r.applyMarker(c, r.pending[c])
			continue
		}
		p, ok := r.bufs[c].peek()
		if !ok {
			// Logical reception blocks here until channel c produces the
			// packet the simulation says comes next. That holds for a
			// draining c too: an empty buffer is not evidence the link is
			// dead — its tail may simply be in flight behind the survivors'
			// announcements — so only c's own delimiter or a local
			// RemoveChannel retires the slot (see sweepLeaving).
			return nil, false
		}
		if p.Kind != packet.Data {
			if m, ok := r.consumeControl(c); ok {
				r.applyMarker(c, m)
			}
			continue
		}
		r.pop(c)
		r.s.Account(p.Len())
		r.deliver(c, p)
		return p, true
	}
}

// consumeControl takes the control packet at the head of channel c's
// buffer and gives it its fate. A valid marker is returned so the
// logical scan can apply its scheduler state.
func (r *Resequencer) consumeControl(c int) (packet.MarkerBlock, bool) {
	p, _ := r.pop(c)
	return r.control(c, p)
}

// control gives a control packet from channel c, held in no buffer, its
// fate: markers are consumed (and returned when valid) and resets
// applied. Either way the packet is released.
func (r *Resequencer) control(c int, p *packet.Packet) (packet.MarkerBlock, bool) {
	if p.Kind == packet.Marker {
		return r.consumeMarker(c, p)
	}
	r.led.PerChannel[c].Control++
	if p.Kind == packet.Reset {
		r.applyReset(c, resetEpoch(p))
	}
	p.Release()
	return packet.MarkerBlock{}, false
}

// discard ends the life of a packet the receiver drops undelivered: a
// control packet goes back to the pool like a consumed one; a data
// packet is left alone, because its payload may be the application's.
func discard(p *packet.Packet) {
	if p.Kind != packet.Data {
		p.Release()
	}
}

// applyMarker adopts the sender state (r_c, DC_c) carried by a valid
// marker for channel c (consumeMarker has checked the addressing). It
// is invoked from the scan, where channel c is the one under service,
// so the receiver may be mid-service of c.
func (r *Resequencer) applyMarker(c int, m packet.MarkerBlock) {
	g := r.s.Round()
	switch {
	case m.Round > g:
		// The sender's next packet on c is rounds ahead: the receiver
		// has been consuming too eagerly (losses upstream). Close the
		// channel's service and skip it until G catches up.
		if r.s.MidService() && r.s.Current() == c {
			r.s.SetDeficit(c, m.Deficit)
			r.s.EndService()
		} else {
			r.s.SetDeficit(c, m.Deficit)
		}
		if !r.marked[c] || r.expect[c] != m.Round {
			r.resynced(c, m.Round, m.Deficit)
		}
		r.marked[c] = true
		r.expect[c] = m.Round
	case m.Round == g:
		// In the current round. If the channel is mid-service the
		// quantum has already been granted on top of the marker's
		// pre-service deficit.
		d := m.Deficit
		if r.s.MidService() && r.s.Current() == c {
			d += r.s.QuantumOf(c)
		}
		if r.s.Deficit(c) != d {
			r.resynced(c, m.Round, d)
			r.s.SetDeficit(c, d)
		}
		r.marked[c] = true
		r.expect[c] = m.Round
	default:
		// Stale marker from a round the receiver already passed. Mild
		// staleness is routine: a marker can sit buffered behind data
		// while its channel is overdraft-skipped, so the receiver's
		// round moves past it legitimately. But a marker stale by far
		// more than any overdraft horizon on *every* channel, with no
		// fresh marker in between, means the receiver's round ran ahead
		// of anything the sender ever declared — corrupt state — and the
		// markers themselves are the authoritative state to adopt.
		if r.healGap == 0 || g-m.Round <= r.healGap {
			return
		}
		r.staleRound[c] = m.Round
		r.staleDeficit[c] = m.Deficit
		if !r.staleHas[c] {
			r.staleHas[c] = true
		}
		r.staleCount++
		if r.staleCount >= 2*r.n && r.allStale() {
			r.selfHeal(c)
		}
		return
	}
	// A current or future marker clears the self-stabilization alarm.
	r.clearStale()
}

// resynced counts a resynchronization attributed to channel c.
func (r *Resequencer) resynced(c int, round uint64, value int64) {
	r.led.PerChannel[c].Resyncs++
	r.obs.Emit(obs.KindResync, c, round, value)
}

func (r *Resequencer) allStale() bool {
	for c, ok := range r.staleHas {
		if !ok && !r.left[c] {
			return false
		}
	}
	return true
}

func (r *Resequencer) clearStale() {
	if r.staleCount == 0 {
		return
	}
	r.staleCount = 0
	for i := range r.staleHas {
		r.staleHas[i] = false
	}
}

// selfHeal adopts the per-channel states declared by the latest (stale)
// markers: the receiver restarts its simulation at the earliest round
// any channel expects, with every channel's deficit and expected round
// taken from its marker, and lets the ordinary skip rule do the rest.
// The heal is also a resync, attributed to the channel whose marker
// completed the evidence.
//
//stripe:allowescape cold self-stabilization path: fires only after healGap-stale markers on every channel, and restoring scheduler state allocates
func (r *Resequencer) selfHeal(by int) {
	min, have := uint64(0), false
	for c, v := range r.staleRound {
		if r.left[c] {
			continue // removed slots carry no marker evidence
		}
		if !have || v < min {
			min, have = v, true
		}
	}
	if !have {
		return
	}
	r.s.Restore(sched.State{
		Current:  0,
		Round:    min,
		Began:    false,
		Deficits: append([]int64(nil), r.staleDeficit...),
	})
	for c := 0; c < r.n; c++ {
		if r.left[c] {
			continue
		}
		r.marked[c] = true
		r.expect[c] = r.staleRound[c]
	}
	r.led.SelfHeals++
	r.led.PerChannel[by].Resyncs++
	r.obs.Emit(obs.KindSelfHeal, -1, min, 0)
	r.clearStale()
}

func (r *Resequencer) nextSequence() (*packet.Packet, bool) {
scan:
	for {
		if r.leavingN > 0 {
			r.sweepLeaving()
		}
		// Deliver any head matching the expected sequence number.
		allHeads := true
		minSeq := uint64(0)
		minCh := -1
		for c := 0; c < r.n; c++ {
			if r.left[c] {
				continue // removed slots neither hold heads nor block gaps
			}
			p, ok := r.bufs[c].peek()
			if !ok {
				// An empty draining channel blocks the gap decision like any
				// other: its tail may still be in flight (see nextLogical).
				allHeads = false
				continue
			}
			if p.Kind != packet.Data {
				r.consumeControl(c)
				continue scan
			}
			// Unstamped data cannot be ordered; deliver it eagerly.
			if !p.HasSeq || p.Seq == r.nextSeq {
				if p.HasSeq {
					r.nextSeq++
				}
				r.pop(c)
				r.deliver(c, p)
				return p, true
			}
			if minCh == -1 || p.Seq < minSeq {
				minSeq = p.Seq
				minCh = c
			}
		}
		if !allHeads {
			// Some channel is empty; the expected sequence number may
			// still arrive there (per-channel FIFO guarantees each
			// channel's sequence numbers are increasing).
			return nil, false
		}
		if minCh == -1 {
			return nil, false
		}
		// Every channel has a data head and all exceed nextSeq: the gap
		// [nextSeq, minSeq) was lost. Declare it and resume at minSeq.
		r.resynced(minCh, 0, int64(minSeq))
		r.nextSeq = minSeq
	}
}

//stripe:allowescape reset path: runs once per crash-recovery epoch change, and flushing buffers and restoring scheduler state may allocate
func (r *Resequencer) applyReset(c int, e uint64) {
	if e <= r.epoch {
		return // duplicate or stale reset
	}
	r.epoch = e
	r.resetting = true
	r.led.Resets++
	r.obs.Emit(obs.KindReset, -1, r.round(), int64(e))
	r.syncSoon()
	for i := range r.passed {
		r.passed[i] = false
		r.marked[i] = false
		r.expect[i] = 0
		r.pendingHas[i] = false // staged markers are from the old epoch
	}
	r.nextSeq = 0
	r.overflow = false // the flush below empties the buffers
	if r.s != nil {
		r.s.Reset()
	}
	if r.cs != nil {
		r.cs.Restore(r.csInit.Clone())
	}
	// Arrival-order mode counted its queued packets delivered at Arrive;
	// they leave the occupancy with the queue.
	r.led.Occupancy -= int64(r.arrivq.len())
	r.arrivq.clear()
	// The channel the reset arrived on is past its boundary; the others
	// flush buffered old-epoch packets, keeping anything after their own
	// reset boundary.
	r.passed[c] = true
	for i := range r.bufs {
		if i == c {
			continue
		}
		for {
			q, ok := r.pop(i)
			if !ok {
				break
			}
			if q.Kind == packet.Reset && resetEpoch(q) == e {
				r.led.PerChannel[i].Control++
				r.passed[i] = true
				q.Release()
				break
			}
			r.led.PerChannel[i].OldEpochDrops++
			discard(q)
		}
	}
	// Channels outside the live set never carry the new epoch's reset
	// boundary, so do not wait on them. A draining channel finishes its
	// retirement here: the flush above already discarded its backlog as
	// old-epoch traffic, so there is nothing left to deliver in order.
	for i := 0; i < r.n; i++ {
		if r.leaving[i] {
			r.retire(i)
		}
		if r.left[i] {
			r.passed[i] = true
		}
	}
	if r.allPassed() {
		r.resetting = false
	}
}

func (r *Resequencer) allPassed() bool {
	for _, ok := range r.passed {
		if !ok {
			return false
		}
	}
	return true
}

func resetEpoch(p *packet.Packet) uint64 {
	if len(p.Payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(p.Payload[:8])
}

// Drain empties the receive buffers at end of stream, best effort: it
// keeps running the normal discipline, and whenever the discipline
// blocks on an empty channel it force-advances past it. The tail of a
// finite transfer is therefore delivered without waiting for traffic
// that will never come. Reordering at the drained tail is possible after
// unrecovered loss, exactly like quasi-FIFO.
func (r *Resequencer) Drain() []*packet.Packet {
	var out []*packet.Packet
	for r.Buffered() > 0 {
		p, ok := r.Next()
		if ok {
			out = append(out, p)
			continue
		}
		if !r.forceAdvance() {
			return out
		}
	}
	return out
}

// pktFIFO is a slice-backed packet FIFO with amortised O(1) pop.
type pktFIFO struct {
	buf  []*packet.Packet
	head int
}

//stripe:allowescape buffer growth is amortized O(1): append doubles capacity, and the backing array is reused after drain
func (f *pktFIFO) push(p *packet.Packet) { f.buf = append(f.buf, p) }

func (f *pktFIFO) len() int { return len(f.buf) - f.head }

func (f *pktFIFO) peek() (*packet.Packet, bool) {
	if f.head == len(f.buf) {
		return nil, false
	}
	return f.buf[f.head], true
}

func (f *pktFIFO) pop() (*packet.Packet, bool) {
	if f.head == len(f.buf) {
		return nil, false
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 256 && f.head*2 > len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = nil
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p, true
}

func (f *pktFIFO) clear() {
	f.buf = f.buf[:0]
	f.head = 0
}
