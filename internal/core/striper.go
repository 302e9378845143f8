package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"stripe/internal/channel"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// MarkerPolicy controls when the sender cuts synchronization markers.
type MarkerPolicy struct {
	// Every is the marker period in rounds: a marker batch (one marker
	// per channel) is cut every `Every` rounds. Zero disables markers.
	Every uint64
	// Position is the channel index the round-robin pointer must rest on
	// when the batch is cut: 0 places markers at the beginning of a
	// round, N-1 near its end. Section 6.3 studies how this placement
	// affects the number of out-of-order deliveries.
	Position int
}

// StriperConfig configures a sender engine.
type StriperConfig struct {
	// Sched is the causal scheduling automaton; the receiver must be
	// built from an automaton with identical parameters. Required
	// unless CausalSched is given.
	Sched sched.RoundBased
	// CausalSched stripes with a round-less causal scheduler (for
	// example RFQ). Markers are unavailable — the Section 5 protocol is
	// round-based — so configure Markers only with Sched.
	CausalSched sched.Causal
	// Channels are the transmit sides of the striped channels, indexed
	// exactly as the receiver indexes them (condition C2). Required.
	Channels []channel.Sender
	// Markers configures periodic synchronization markers.
	Markers MarkerPolicy
	// AddSeq makes the striper stamp an explicit sequence number on
	// every data packet — the "with header" protocol variants of
	// Table 1. The default (false) transmits data packets unmodified.
	AddSeq bool
	// Gate, when non-nil, is consulted before each transmission; it
	// implements per-channel flow control (credits). A nil gate admits
	// everything.
	Gate Gate
	// MarkerCredits, when non-nil, fills the Credits field of each
	// outgoing marker with the cumulative flow-control grant for the
	// *reverse* direction's channel c — the paper's observation that
	// credits piggyback naturally on the periodic marker traffic.
	MarkerCredits func(c int) uint64
	// Obs, when non-nil, is published the send ledger at every flush (see
	// SyncObs) and sent protocol events. A nil collector disables
	// instrumentation at the cost of one pointer test per packet.
	Obs *obs.Collector
	// Now supplies the sender clock (nanoseconds) stamped into each
	// marker's TxNs field for the peer telemetry plane's one-way delay
	// estimation. Nil selects time.Now. Deterministic harnesses inject
	// a virtual clock.
	Now func() int64
}

// Gate is the hook the credit-based flow controller plugs into.
type Gate interface {
	// Admit reports whether a packet of the given size may currently be
	// sent on channel c.
	Admit(c int, size int) bool
	// Consume records that a packet of the given size was sent on c.
	Consume(c int, size int)
	// Remaining returns the bytes of credit left on c, the mirror of
	// Admit that SendBatch predicts a run's length from.
	Remaining(c int) int64
}

// ErrGated is returned by Send when flow control blocks the selected
// channel. The caller retries after credits arrive; the scheduler state
// is untouched, so the retry goes to the same channel (anything else
// would break the receiver's simulation).
var ErrGated = errors.New("core: selected channel out of credits")

// Striper is the sender engine: it accepts a single FIFO stream of
// packets and pushes each to the channel chosen by the causal automaton,
// cutting periodic markers. It is a pure state machine — not safe for
// concurrent use; wrap it in one goroutine (as package stripe does).
type Striper struct {
	s             sched.Scheduler          // send-path automaton (rb or cs)
	rb            sched.RoundBased         // non-nil for round-based scheduling
	cs            sched.Causal             // non-nil for round-less causal scheduling
	csInit        sched.State              // cs start state, for resets
	mem           sched.Membership         // non-nil when the scheduler supports dynamic membership
	out           []channel.BufferedSender // slot c's transport, bound by bind
	dirty         uint64                   // slots a Buffer accepted packets on since their last Flush (see flushDirty)
	failed        uint64                   // slots a Buffer or Flush failed on during the current call (see flushDirty)
	one           [1]*packet.Packet        // Send's batch of one, alias-free between calls
	ctl           [1]*packet.Packet        // sendControl's batch of one; not one, which Send holds across the markers its run cuts
	policy        MarkerPolicy
	addSeq        bool
	gate          Gate
	markerCredits func(c int) uint64
	obs           *obs.Collector
	nextMark      uint64 // round at/after which the next marker batch is due
	nextSeq       uint64
	nextID        uint64
	clock         int64
	epoch         uint64
	now           func() int64
	stampTick     uint64 // marker batches cut; every 4th carries a TxNs stamp
	telemetryChan int    // next channel SendTelemetry rotates onto

	// Dynamic membership (see membership.go). The channel universe is
	// fixed at construction — slots are enabled and disabled, never
	// renumbered, preserving condition C2's identical numbering on both
	// ends across arbitrary join/leave histories.
	active       []bool
	activeN      int
	memberSeq    uint64
	lastAnnounce packet.MemberBlock
	announceLeft int      // marker batches that still piggyback the announcement
	errStreak    []int64  // consecutive failed calls per channel (see flushDirty)
	pendingJoin  []uint64 // announced join round per slot awaiting its round boundary (0 = none)
	pendingJoins int      // count of non-zero pendingJoin entries

	// led is the send ledger, the only count of every sender event: the
	// hot path touches only these plain fields, and SyncObs publishes them
	// to the collector at marker cadence (or every obsFlushEvery packets
	// as a backstop).
	led    StriperStats
	obsLag int
}

// obsFlushEvery bounds how many packets the collector's published
// ledgers may lag behind the engines when markers are infrequent or
// disabled.
const obsFlushEvery = 64

// maxChannels is the largest channel universe: one bit per slot in the
// membership bitmap (packet.MemberBlock) and in flushDirty's masks.
const maxChannels = 64

// NewStriper validates the configuration and returns a sender engine.
func NewStriper(cfg StriperConfig) (*Striper, error) {
	var s sched.Scheduler
	switch {
	case cfg.Sched != nil:
		s = cfg.Sched
	case cfg.CausalSched != nil:
		if cfg.Markers.Every != 0 {
			return nil, errors.New("core: markers require a round-based scheduler")
		}
		s = cfg.CausalSched
	default:
		return nil, errors.New("core: StriperConfig.Sched is required")
	}
	if len(cfg.Channels) != s.N() {
		return nil, fmt.Errorf("core: %d channels but scheduler expects %d", len(cfg.Channels), s.N())
	}
	if len(cfg.Channels) > maxChannels {
		return nil, fmt.Errorf("core: at most %d channels, have %d", maxChannels, len(cfg.Channels))
	}
	if cfg.Sched != nil && (cfg.Markers.Position < 0 || cfg.Markers.Position >= cfg.Sched.N()) {
		if cfg.Markers.Every != 0 {
			return nil, fmt.Errorf("core: marker position %d out of range [0,%d)", cfg.Markers.Position, cfg.Sched.N())
		}
	}
	if cfg.Obs != nil && cfg.Obs.N() != len(cfg.Channels) {
		return nil, fmt.Errorf("core: collector sized for %d channels, want %d", cfg.Obs.N(), len(cfg.Channels))
	}
	st := &Striper{
		s:             s,
		rb:            cfg.Sched,
		out:           make([]channel.BufferedSender, len(cfg.Channels)),
		policy:        cfg.Markers,
		addSeq:        cfg.AddSeq,
		gate:          cfg.Gate,
		markerCredits: cfg.MarkerCredits,
		obs:           cfg.Obs,
		now:           cfg.Now,
	}
	if st.now == nil {
		st.now = nowNs
	}
	if cfg.Sched == nil {
		st.cs = cfg.CausalSched
		st.csInit = st.cs.Snapshot().Clone()
	}
	st.led.PerChannel = make([]ChannelLoad, len(st.out))
	for c, tx := range cfg.Channels {
		st.out[c] = bind(tx)
	}
	st.mem, _ = s.(sched.Membership)
	st.active = make([]bool, len(st.out))
	for c := range st.active {
		st.active[c] = true
	}
	st.activeN = len(st.out)
	st.errStreak = make([]int64, len(st.out))
	st.pendingJoin = make([]uint64, len(st.out))
	if st.rb != nil {
		for c := range st.out {
			st.led.PerChannel[c].Quantum = st.rb.QuantumOf(c)
		}
	}
	if st.policy.Every != 0 {
		st.nextMark = st.policy.Every
	}
	return st, nil
}

// N returns the number of channels.
func (st *Striper) N() int { return len(st.out) }

// bind returns tx as the striper drives every slot, a BufferedSender:
// one hand-off, Buffer, and one flush discipline for every transport.
func bind(tx channel.Sender) channel.BufferedSender {
	if bs, ok := tx.(channel.BufferedSender); ok {
		return bs
	}
	w := &writeThrough{tx: tx}
	w.batch, _ = tx.(channel.BatchSender)
	return w
}

// writeThrough binds a channel that does not buffer. Buffer writes at
// once — SendBatch, or Send per packet when Send is all the channel has,
// stopping at the first error — so the channel sees the calls, order and
// errors a striper writing run by run gave it; Flush has nothing left.
type writeThrough struct {
	tx    channel.Sender
	batch channel.BatchSender // tx, when it batches
}

func (w *writeThrough) Send(p *packet.Packet) error                  { return w.tx.Send(p) }
func (w *writeThrough) SendBatch(pkts []*packet.Packet) (int, error) { return w.Buffer(pkts) }
func (w *writeThrough) Flush() error                                 { return nil }

func (w *writeThrough) Buffer(pkts []*packet.Packet) (int, error) {
	if w.batch != nil {
		return w.batch.SendBatch(pkts)
	}
	for i, p := range pkts {
		if err := w.tx.Send(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// sendControl hands one control packet (marker, announcement, credit,
// telemetry, probe, reset) to slot c, behind whatever the slot already
// holds; it reaches the wire with the entry point's flushDirty. p is a
// pooled packet built for this one send: once accepted it is the
// channel's (channel.Sender), and one the channel refused goes back to
// the pool here.
func (st *Striper) sendControl(c int, p *packet.Packet) error {
	st.ctl[0] = p
	n, err := st.out[c].Buffer(st.ctl[:1])
	st.ctl[0] = nil
	st.noteBuffer(c, n, err)
	if n == 0 {
		p.Release()
	}
	return err
}

// noteBuffer records what one Buffer call did to slot c, for flushDirty.
func (st *Striper) noteBuffer(c, n int, err error) {
	if n > 0 {
		st.dirty |= 1 << uint(c)
	}
	if err != nil {
		st.failed |= 1 << uint(c)
	}
}

// flushDirty is the striper's flush discipline: every exported method
// that can write to a channel calls it on every return path that may
// follow a write, so no byte lingers in a channel buffer when the
// striper returns. That invariant is what lets sendRun and sendControl
// merely buffer: a caller that goes on to wait for the peer (credits
// after ErrGated, a reply to a batch of one) waits with everything on
// the wire, exactly as when every run flushed itself — while a batch
// spread over k channels costs k writes however many service runs and
// markers it held. A failed Flush leaves the records buffered on that
// slot since its last flush accepted-but-uncertain, the tail
// channel.BatchSender documents; they stay committed, and the first
// failure is returned.
//
// It is also where a slot's error streak moves, once per call: up by one
// if any Buffer or Flush on the slot failed since the last flushDirty,
// to zero if the slot was written and nothing on it failed.
func (st *Striper) flushDirty() error {
	var first error
	for d := st.dirty | st.failed; d != 0; d &= d - 1 {
		c := bits.TrailingZeros64(d)
		bit := uint64(1) << uint(c)
		if st.dirty&bit != 0 {
			if err := st.out[c].Flush(); err != nil {
				st.failed |= bit
				if first == nil {
					first = st.sendFailed(c, err)
				}
			}
		}
		if st.failed&bit != 0 {
			st.errStreak[c]++
		} else {
			st.errStreak[c] = 0
		}
	}
	st.dirty, st.failed = 0, 0
	return first
}

// flushAfter is flushDirty for entry points that report one transport
// verdict: err when the send itself failed, else the flush's.
func (st *Striper) flushAfter(err error) error {
	if ferr := st.flushDirty(); err == nil {
		err = ferr
	}
	return err
}

// SendCredit transmits a credit packet on slot c: the receive side
// returning grant for channel c between markers, on the reverse channel
// of the same index. It is deliberately not a marker batch — it ticks no
// announcement or drain clock and stamps nothing — only the cumulative
// grant, which the peer folds in with a monotone max, so a lost,
// duplicated or reordered credit costs at most the wait for the next
// marker's copy. Like every control packet it bypasses the scheduler and
// the gate, and a transport error feeds the slot's error streak.
func (st *Striper) SendCredit(c int, grant uint64) error {
	if c < 0 || c >= len(st.out) || !st.active[c] {
		return fmt.Errorf("core: credit for channel %d, which is not in the live set", c)
	}
	cb := packet.CreditBlock{Channel: uint32(c), Grant: grant} // c ranges over [0, N): non-negative, small
	return st.flushAfter(st.sendControl(c, packet.NewCredit(cb)))
}

// Round returns the sender's global round number G (zero for
// round-less causal schedulers).
func (st *Striper) Round() uint64 {
	if st.rb == nil {
		return 0
	}
	return st.rb.Round()
}

// SentOn returns the data packets and payload bytes sent on channel c,
// for load-sharing observability.
func (st *Striper) SentOn(c int) (packets, bytes int64) {
	return st.led.PerChannel[c].Packets, st.led.PerChannel[c].Bytes
}

// maybeEmitMarkers cuts a marker batch if one is due and the automaton
// sits at a service boundary at (or past) the configured position.
// Markers bypass the scheduler: they are control traffic, not charged to
// any deficit counter, and the receiver likewise does not charge them.
func (st *Striper) maybeEmitMarkers() {
	if st.rb == nil || st.policy.Every == 0 || st.rb.MidService() {
		return
	}
	r := st.rb.Round()
	if r < st.nextMark {
		return
	}
	// At the due round, wait for the pointer to rest on the configured
	// position; if the round was overshot (the pointer skipped past the
	// position, which can happen when a channel's overdraft forfeits its
	// service), cut the batch at the first boundary available. A disabled
	// (or not-yet-joined) position channel is never rested on, so
	// membership changes fall back to first-boundary cadence rather than
	// stalling the marker clock.
	if r == st.nextMark && st.rb.Current() != st.policy.Position &&
		st.active[st.policy.Position] && st.pendingJoin[st.policy.Position] == 0 {
		return
	}
	st.emitBatch()
	st.nextMark = r + st.policy.Every
}

// EmitMarkers cuts a marker batch immediately, regardless of the
// round-based policy. Kernel implementations send markers from a timer
// so that a stalled sender (for example a window-limited TCP source)
// still resynchronizes the receiver; drive this method from whatever
// clock the embedding has. It is safe mid-service.
func (st *Striper) EmitMarkers() {
	if st.rb == nil {
		return
	}
	st.emitBatch()
	// A failed flush is on the slot's error streak, as a failed marker is.
	_ = st.flushDirty()
	st.SyncObs()
	if st.policy.Every != 0 {
		st.nextMark = st.rb.Round() + st.policy.Every
	}
}

// emitBatch sends one marker per channel carrying the implicit number
// (round, pre-quantum deficit) of the next packet on that channel. If
// the current channel is mid-service its quantum has already been
// granted, so the pre-quantum convention subtracts it back; the
// receiver's marker handling applies the mirror-image adjustment.
//
//stripe:allowescape marker batch: control-plane work amortized over a marker interval (policy.Every rounds); each marker is encoded into a pooled packet (sync.Pool.Get, and an append that the packet's own block already fits)
func (st *Striper) emitBatch() {
	// One delay sample per few marker batches is all the peer's 8-deep
	// min-filter needs, and a clock read per marker is real money at
	// tight marker cadences — so stamp every fourth batch, once for the
	// whole batch (markers cut at the same instant make cross-channel rx
	// differences directly comparable), and leave the rest TxNs=0, which
	// also skips the receiver's clock read on arrival.
	var txNs int64
	if st.stampTick++; st.stampTick&3 == 0 {
		txNs = st.now()
	}
	for c := range st.out {
		if !st.active[c] {
			continue
		}
		mb := packet.MarkerBlock{Channel: uint32(c), Sent: uint64(st.led.PerChannel[c].Bytes)}
		if j := st.pendingJoin[c]; j != 0 {
			// A joined slot awaiting its round boundary has an exact
			// implicit position already: first service at the join round
			// with a fresh deficit. The scheduler knows nothing useful
			// about the slot yet, but skipping it instead would stop the
			// channel's piggybacked credits — and on an idle direction
			// (rounds never advance, the join never fires) that would
			// starve the peer's reverse-path flow control for good.
			mb.Round = j
		} else {
			d := st.rb.Deficit(c)
			if st.rb.MidService() && st.rb.Current() == c {
				d -= st.rb.QuantumOf(c)
			}
			mb.Round = st.rb.NextServiceRound(c)
			mb.Deficit = d
		}
		if st.markerCredits != nil {
			mb.Credits = st.markerCredits(c)
		}
		mb.TxNs = txNs
		if st.sendControl(c, packet.NewMarker(mb)) == nil {
			st.led.PerChannel[c].Markers++
		}
	}
	// Membership announcements ride the marker cadence for a few batches
	// after each transition, so a single lost announcement packet cannot
	// leave the two ends with divergent live sets.
	if st.announceLeft > 0 {
		st.announceLeft--
		st.broadcastMember()
	}
}

// SyncObs refreshes the send ledger's gauges (round, epoch, per-channel
// surplus, remaining credit and membership) and publishes the ledger to
// the attached collector. It runs every obsFlushEvery packets, from the
// timer-driven EmitMarkers path, on membership changes and resets, and
// from Stats/Snapshot, so scrapes lag a loaded sender by at most
// obsFlushEvery packets and an idle one by at most a marker interval.
// Publishing the round and byte counters together also keeps the
// derived fairness gauge consistent for the flushed prefix.
//
//stripe:allowescape publishes the ledger and runs invariant checks (which lock) at most once per obsFlushEvery packets or marker interval
func (st *Striper) SyncObs() {
	st.obsLag = 0
	st.led.Round, st.led.Epoch = st.Round(), st.epoch
	for c := range st.led.PerChannel {
		row := &st.led.PerChannel[c]
		row.Removed = !st.active[c]
		if st.rb != nil {
			row.Surplus = st.rb.Deficit(c)
		}
		if st.gate != nil {
			row.CreditRemaining = st.gate.Remaining(c)
		}
	}
	st.obs.PublishSend(&st.led)
}

// Send stripes one data packet: a batch of one, so flow-control
// gating, transport-failure accounting, and marker cadence share
// SendBatch's single code path. The packet is transmitted verbatim
// unless AddSeq was configured. ErrGated means flow control vetoed the
// transmission; retry the same packet later.
//
//stripe:hotpath
func (st *Striper) Send(p *packet.Packet) error {
	st.one[0] = p
	_, err := st.SendBatch(st.one[:1])
	st.one[0] = nil
	return err
}

// SendBatch stripes pkts in FIFO order, amortizing scheduler
// selection, credit-gate checks, and channel writes across the batch:
// maximal runs of consecutive packets bound for the same channel are
// predicted against the scheduler's cost model and handed to the
// channel in one Buffer call. Where a run ends is the scheduler's
// decision and costs no syscall: on channels that buffer (TCP and UDP)
// the runs, and the markers cut between them, only accumulate, and each
// channel written to is flushed once, on the way out (flushDirty); a
// channel that does not buffer takes each run as it comes (see bind).
// It returns the number of packets transmitted; n < len(pkts) only
// alongside a non-nil error —
// ErrGated when flow control vetoed pkts[n] (retry pkts[n:] once
// credits arrive), or a *ChannelSendError when a transport failed.
// Exactly as with Send, a packet the transport did not accept is
// neither accounted to the scheduler nor charged to the gate, so the
// retry targets the same channel until the health monitor evicts it. A
// transport failure that first shows in the closing flush arrives as a
// *ChannelSendError too, with the packets it leaves in doubt already
// counted in n (possibly n == len(pkts)); it displaces ErrGated, which
// the retry reports again.
//
//stripe:hotpath
func (st *Striper) SendBatch(pkts []*packet.Packet) (int, error) {
	done := 0
	var err error
	for done < len(pkts) && err == nil {
		var n int
		n, err = st.sendRun(pkts[done:])
		done += n
	}
	if ferr := st.flushDirty(); ferr != nil && (err == nil || err == ErrGated) {
		err = ferr
	}
	return done, err
}

// sendRun transmits a maximal single-channel prefix of pkts: the
// packets the scheduler provably assigns to the channel it selects for
// pkts[0] before that channel's service ends, bounded by the remaining
// flow-control credit. Packets are stamped before the channel encodes
// them (the wire format carries Seq), but all commitment — scheduler
// accounting, gate consumption, counters, traces — happens per packet
// only after the transport accepts it, so a transport failure leaves
// the automaton exactly as a failed Send always has: un-advanced, the
// failed packets re-stamped by their retry.
//
//stripe:hotpath
func (st *Striper) sendRun(pkts []*packet.Packet) (int, error) {
	if st.activeN == 0 {
		return 0, ErrNoActiveChannels
	}
	if st.pendingJoins != 0 {
		st.applyPendingJoins()
	}
	st.maybeEmitMarkers()
	c := st.s.Select()
	if st.gate != nil && !st.gate.Admit(c, pkts[0].Len()) {
		st.led.PerChannel[c].BlockedSends++
		st.obs.Emit(obs.KindCreditExhausted, c, st.Round(), int64(pkts[0].Len()))
		// The packet has no identity yet (ID/Seq are stamped on the
		// successful send), so trace under the identity it will get.
		if st.addSeq {
			st.obs.TraceGated(st.nextSeq)
		} else {
			st.obs.TraceGated(st.nextID)
		}
		return 0, ErrGated
	}

	// Predict the run length m. pkts[1:m] stay on c exactly while the
	// deficit the scheduler granted survives each packet's cost (the
	// mirror of Account's advance rule: service ends when the counter
	// reaches zero) and while the gate's remaining credit admits each
	// packet (the mirror of Admit; gate state cannot change mid-run —
	// grants arrive under the same lock that serializes sends). A
	// round-less causal scheduler has no deficit to predict from, so its
	// runs are one packet.
	m := 1
	var runCost int64 // summed scheduler cost of pkts[:m]
	if st.rb != nil {
		runCost = st.rb.CostOf(pkts[0].Len())
		deficit := st.rb.Deficit(c) - runCost
		credit := int64(-1)
		if st.gate != nil {
			credit = st.gate.Remaining(c) - int64(pkts[0].Len())
		}
		for m < len(pkts) && deficit > 0 {
			sz := pkts[m].Len()
			if credit >= 0 && int64(sz) > credit {
				break
			}
			cost := st.rb.CostOf(sz)
			deficit -= cost
			runCost += cost
			if credit >= 0 {
				credit -= int64(sz)
			}
			m++
		}
	}

	// Stamp before the hand-off: Seq rides the wire, so it must be final
	// when the channel encodes the frame. The counters advance only at
	// commit, so a failed tail is freshly re-stamped by its retry.
	for i := 0; i < m; i++ {
		p := pkts[i]
		p.ID = st.nextID + uint64(i)
		p.Ingress = st.clock + int64(i)
		if st.addSeq {
			p.Seq = st.nextSeq + uint64(i)
			p.HasSeq = true
		}
	}

	// One hand-off for every channel. One that buffers only accumulates
	// the run, and SendBatch's flushDirty writes it out and learns whether
	// the link took it; one that does not has written it already (bind).
	sent, err := st.out[c].Buffer(pkts[:m])
	st.noteBuffer(c, sent, err)

	// Commit exactly the accepted prefix. Everything additive — counters,
	// gate consumption, scheduler cost — is charged in bulk; only traces
	// are inherently per packet, and the ledger's plain fields are
	// published only in SyncObs. A fully accepted predicted run takes the
	// scheduler's one-step AccountCost (state-identical, see
	// sched.RoundBased); a partial prefix falls back to per-packet Account
	// since the prediction's no-interior-advance guarantee covered the
	// whole run, not the prefix.
	if sent > 0 {
		var runBytes int64
		for i := 0; i < sent; i++ {
			n := int64(pkts[i].Len())
			runBytes += n
			if n > st.led.MaxPacket {
				st.led.MaxPacket = n
			}
		}
		st.nextID += uint64(sent)
		st.clock += int64(sent)
		if st.addSeq {
			st.nextSeq += uint64(sent)
		}
		if st.gate != nil {
			st.gate.Consume(c, int(runBytes))
		}
		st.led.PerChannel[c].Packets += int64(sent)
		st.led.PerChannel[c].Bytes += runBytes
		if sent == m && st.rb != nil {
			st.rb.AccountCost(runCost)
		} else {
			for i := 0; i < sent; i++ {
				st.s.Account(pkts[i].Len())
			}
		}
		if st.obs != nil {
			for i := 0; i < sent; i++ {
				st.obs.TraceSend(traceKey(pkts[i]), c)
			}
			if st.obsLag += sent; st.obsLag >= obsFlushEvery {
				st.SyncObs()
			}
		}
	}
	if err != nil {
		return sent, st.sendFailed(c, err)
	}
	st.maybeEmitMarkers()
	return sent, nil
}

// Reset broadcasts a reset packet on every channel and reinitialises the
// striping automaton to its start state. Both ends return to the common
// start state s0, which is how the paper handles node crashes and makes
// the marker scheme self-stabilizing in conjunction with a snapshot.
// The reset carries the new epoch number; the receiver discards traffic
// from older epochs still in flight.
func (st *Striper) Reset() error {
	st.epoch++
	var firstErr error
	for c := range st.out {
		if !st.active[c] {
			continue
		}
		// One packet, payload included, per channel: each has its own
		// consumer to release it.
		p := packet.Get()
		p.Kind = packet.Reset
		p.Payload = binary.BigEndian.AppendUint64(p.Payload[:0], st.epoch)
		if err := st.sendControl(c, p); firstErr == nil {
			firstErr = err
		}
	}
	firstErr = st.flushAfter(firstErr)
	if st.pendingJoins != 0 {
		// A reset returns both automatons to the common start state, which
		// subsumes any join still waiting on its round boundary: the slot
		// simply starts the new epoch enabled.
		st.flushPendingJoins()
	}
	if st.rb != nil {
		st.rb.Reset()
	} else {
		st.cs.Restore(st.csInit.Clone())
	}
	st.nextMark = st.policy.Every
	st.led.Resets++
	// The automaton restarts at round zero, so every channel's fairness
	// baseline restarts with it.
	for c := range st.led.PerChannel {
		row := &st.led.PerChannel[c]
		row.JoinRound, row.JoinBytes = 0, row.Bytes
	}
	st.SyncObs()
	st.obs.Emit(obs.KindReset, -1, st.Round(), int64(st.epoch))
	return firstErr
}

// Epoch returns the current reset epoch.
func (st *Striper) Epoch() uint64 { return st.epoch }

// ChannelLoad is one channel's row of the send ledger: the data load
// placed on it, its marker and blocked-send counts, and its gauges.
type ChannelLoad = obs.SendChannel

// StriperStats is the send ledger, the transmit-side mirror of
// ResequencerStats. See obs.SendLedger for the fields.
type StriperStats = obs.SendLedger

// Stats returns a copy of the send ledger with its totals summed. It
// also publishes the ledger, so a Stats call brings an attached
// collector fully up to date.
func (st *Striper) Stats() StriperStats {
	st.SyncObs()
	s := st.led
	s.PerChannel = append([]ChannelLoad(nil), st.led.PerChannel...)
	s.Sum()
	return s
}
