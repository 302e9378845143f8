package stripe

import (
	"errors"
	"sync"
	"time"

	"stripe/internal/core"
	"stripe/internal/flowcontrol"
	"stripe/internal/obs"
	"stripe/internal/packet"
)

// SessionConfig configures one end of a bidirectional striped
// connection.
type SessionConfig struct {
	// Config is the striping configuration, identical on both ends.
	Config
	// CreditWindow, when positive, enables credit-based flow control
	// with the given per-channel window in bytes: this end grants the
	// peer credits against its own receive buffers, piggybacked on this
	// end's periodic markers, exactly as Section 6.3 suggests, and
	// returned in credit packets of their own once the application has
	// drained half a window (at most one round of them per millisecond).
	// Sends block while the peer's grant is exhausted.
	CreditWindow int64
	// MarkerInterval, when positive, cuts marker batches from a timer in
	// addition to the round-based policy, so markers (and piggybacked
	// credits) keep flowing when the data stream idles. Default 50ms;
	// negative disables the timer (which also disables the health
	// monitor's periodic checks).
	MarkerInterval time.Duration
	// Health tunes the channel health monitor; the zero value enables
	// send-error eviction with defaults. See HealthConfig.
	Health HealthConfig
}

// HealthConfig tunes the session's channel health monitor, which evicts
// channels that are observably dead and reinstates them on recovery.
// Eviction is a forced membership removal: the scheduler stops
// selecting the channel, its outstanding credit is returned, the
// receive side drains what arrived and declares the missing tail lost,
// and the survivors carry the stream on. The zero value enables
// send-error eviction with the defaults below.
type HealthConfig struct {
	// EvictAfter is the consecutive transport-error streak on a channel
	// (data, marker, or announcement sends) that triggers eviction.
	// Default 8; negative disables error-based eviction.
	EvictAfter int64
	// ReinstateAfter is the consecutive successful probes (one per
	// marker-timer tick) after which an evicted channel is re-admitted.
	// Default 3; negative disables automatic reinstatement.
	ReinstateAfter int
	// ScoreEvictBelow, when positive, adds evidence-based eviction from
	// the windowed health score: an active channel whose HealthScore
	// stays below this threshold (0-100) for ScoreStreak consecutive
	// rollup windows is evicted. It catches channels that are degrading
	// — heavy loss, resync storms, runaway latency — long before the
	// error-streak rule, which only sees hard transport errors, would
	// fire. Requires a Windows rollup attached to the session's
	// Collector (stripe.NewWindows); without one this setting is inert.
	// Zero disables score-based eviction.
	ScoreEvictBelow int
	// ScoreStreak is the number of consecutive below-threshold rollup
	// windows required before a score eviction. Default 2; values below
	// 1 select the default. Shared by the peer-score rule, where it
	// counts consecutive below-threshold peer reports instead.
	ScoreStreak int
	// PeerScoreEvictBelow, when positive, adds eviction on the peer's
	// evidence: an active channel whose peer-reported score (loss as the
	// *receiver* measured it, plus resync rate) stays below this
	// threshold (0-100) for ScoreStreak consecutive telemetry reports is
	// evicted. This is the rule that catches silent loss — a transport
	// that accepts every send but delivers nothing keeps the local error
	// streak at zero forever; only the peer can report the bytes never
	// arrived. Zero disables peer-score eviction.
	PeerScoreEvictBelow int
}

// resolved returns h with its defaults applied, once, so the session
// reads plain numbers afterwards: EvictAfter and ReinstateAfter zero
// mean the rule is off, and ScoreStreak is at least 1.
func (h HealthConfig) resolved() HealthConfig {
	switch {
	case h.EvictAfter == 0:
		h.EvictAfter = 8
	case h.EvictAfter < 0:
		h.EvictAfter = 0
	}
	switch {
	case h.ReinstateAfter == 0:
		h.ReinstateAfter = 3
	case h.ReinstateAfter < 0:
		h.ReinstateAfter = 0
	}
	if h.ScoreStreak < 1 {
		h.ScoreStreak = 2
	}
	return h
}

// Session is one end of a duplex striped connection: a Sender for this
// end's data and a Receiver for the peer's, with markers carrying
// credits between them. Both directions must use the same number of
// channels. Safe for concurrent use.
type Session struct {
	// The receive half, and with it the session's one lock: mu, rxCond,
	// rs, col and the close signal are its fields. The transmit side is
	// guarded by the same mutex because the directions are coupled —
	// marker processing on the receive path applies credits to the
	// transmit gate, and marker emission on the transmit path reads
	// grants from the receive counters — so split locks would deadlock.
	recvHalf
	txCond *sync.Cond // on recvHalf.mu: credit-stalled senders
	st     *core.Striper
	gate   *flowcontrol.Gate // nil without a CreditWindow

	// Membership and health state (guarded by mu).
	n          int
	window     int64
	advertised []int64     // per receive channel, the cumulative grant last sent to the peer (marker or credit)
	creditAt   time.Time   // when credit packets last went out
	creditWake *time.Timer // sends what returnCreditLocked held back; nil until something is
	creditHeld bool        // creditWake is armed
	quanta     []int64
	autoMaxBuf bool         // MaxBuffered was derived; recompute it on membership changes
	health     HealthConfig // resolved: defaults applied, 0 = rule off
	evicted    []bool       // health-evicted, candidates for automatic reinstatement
	probeOK    []int        // consecutive successful probes per evicted channel
	drainTicks []int        // marker batches each receive slot has sat draining and empty
	lowScore   []int        // consecutive below-threshold health-score windows
	lastFoldAt int64        // AtNs of the newest rollup the score check consumed

	// Peer telemetry plane (guarded by mu where noted; the PeerView has
	// its own internal synchronization).
	peer        *obs.PeerView
	peerLow     []int  // consecutive below-threshold peer reports (mu)
	lastPeerSeq uint64 // Seq of the newest peer report the check consumed (mu)

	// one is Send's batch of one (guarded by mu), so the single-packet
	// path rides sendBatchLocked without allocating a slice per call.
	one [1]*packet.Packet
}

// NewSession builds one end over this end's transmit channels. Feed
// packets received from the peer (on all kinds) to Arrive.
func NewSession(channels []ChannelSender, cfg SessionConfig) (*Session, error) {
	n := len(channels)
	s := &Session{}
	// Receive side first: grants are read off its ledger (grantFor).
	// Every hook is invoked from the receive path with s.mu already held.
	rcfg := core.ResequencerConfig{
		// Mirror the peer's announced membership onto this end's transmit
		// side, so either end removing a channel retires the full duplex
		// link.
		OnMembership: func(c int, joined bool) { s.onPeerMembership(c, joined) },
		// Fold the peer's reported view of this end's transmit channels.
		OnTelemetry: func(t packet.TelemetryBlock) {
			s.peer.Apply(t, time.Now().UnixNano())
		},
	}
	if cfg.CreditWindow > 0 {
		// The peer's grants, from its markers and credit packets alike.
		rcfg.OnGrant = s.applyGrantLocked
	}
	err := s.init(n, cfg.Config, rcfg)
	if err != nil {
		return nil, err
	}
	s.txCond = sync.NewCond(&s.mu)
	s.n = n
	s.window = cfg.CreditWindow
	s.quanta = append([]int64(nil), cfg.Quanta...)
	s.health = cfg.Health.resolved()
	s.evicted = make([]bool, n)
	s.probeOK = make([]int, n)
	s.drainTicks = make([]int, n)
	s.lowScore = make([]int, n)
	s.peerLow = make([]int, n)
	s.peer = obs.NewPeerView(n)
	// Flow control bounds legitimate occupancy, so an unset cap defaults
	// to the one it implies (recomputeMaxBufLocked) instead of unbounded
	// memory.
	s.autoMaxBuf = cfg.MaxBuffered == 0 && cfg.CreditWindow > 0

	var scfg core.StriperConfig
	if cfg.CreditWindow > 0 {
		gate, err := flowcontrol.NewGate(n, cfg.CreditWindow)
		if err != nil {
			return nil, err
		}
		s.gate = gate
		scfg.Gate = gate
		s.advertised = make([]int64, n)
		for c := range s.advertised {
			s.advertised[c] = cfg.CreditWindow // the peer's gate opens with one window
		}
		// Invoked from the transmit path with s.mu already held.
		scfg.MarkerCredits = func(c int) uint64 {
			s.advertised[c] = s.grantFor(c)
			return uint64(s.advertised[c])
		}
		// Feed the invariant checker the gate's live credit ledgers. The
		// checker runs from flush paths that already hold s.mu, which is
		// also what guards the gate, so the reads are consistent (and one
		// slice serves every call).
		accts := make([]obs.CreditAccount, n)
		cfg.Collector.SetCreditSource(func() []obs.CreditAccount {
			for c := range accts {
				sent := gate.Sent(c)
				accts[c] = obs.CreditAccount{
					Channel:  c,
					Granted:  sent + gate.Remaining(c),
					Consumed: sent,
					Window:   cfg.CreditWindow,
					Retired:  gate.Retired(c),
				}
			}
			return accts
		})
	}
	if s.st, err = cfg.newStriper(channels, scfg); err != nil {
		return nil, err
	}
	s.recomputeMaxBufLocked()
	// Expose the peer view on the collector, so Snapshot, the health
	// endpoint, and the Prometheus export all carry the peer section.
	cfg.Collector.SetPeerView(s.peer)

	interval := cfg.MarkerInterval
	if interval == 0 {
		interval = 50 * time.Millisecond
	}
	if interval > 0 {
		go s.markerTimer(interval)
	}
	return s, nil
}

func (s *Session) markerTimer(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.mu.Lock()
			s.emitMarkersLocked()
			// Report this end's receive-side view back to the peer on the
			// same cadence the markers flow at. A send error feeds the
			// chosen channel's error streak, which the health tick below
			// already consumes; beyond that a lost report is harmless —
			// telemetry is cumulative and the next tick supersedes it.
			_ = s.st.SendTelemetry(s.rs.TelemetryBlock())
			s.healthTick()
			s.mu.Unlock()
		}
	}
}

// ErrSessionClosed is returned by Send after Close.
var ErrSessionClosed = errors.New("stripe: session closed")

// Send stripes one packet toward the peer, blocking while flow control
// holds the selected channel (credits arrive in the peer's credit
// packets as its application drains, and on its markers).
// Transport failures on one channel are retried: the failing channel's
// error streak grows until the health monitor's threshold evicts it,
// after which the packet goes out on a survivor. Send only returns a
// transport error once no eviction can absorb it (health monitoring
// disabled, or down to the last channel).
func (s *Session) Send(p *Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.one[0] = p
	_, err := s.sendBatchLocked(s.one[:1])
	s.one[0] = nil
	return err
}

// SendBatch stripes pkts in FIFO order toward the peer, taking the
// session lock once for the whole batch, handing maximal same-channel
// runs to the channels in single calls, and writing each buffering (TCP
// or UDP) channel once per attempt — before it returns and before it waits for
// credit, so nothing sent sits in a buffer. It blocks exactly as Send
// does — while flow control holds the selected channel, and across
// transport-failure retries the health monitor can absorb — and returns
// the number of packets sent. n < len(pkts) only alongside a non-nil
// error (session closed, or a transport error no eviction can absorb);
// pkts[n:] were not sent.
//
// Arrivals (and the credits they carry) are processed by Arrive on
// other goroutines, so a batch blocked on credit makes progress exactly
// as single-packet Sends would; the batch only amortizes lock and
// write overhead, it never holds the lock while waiting.
func (s *Session) SendBatch(pkts []*Packet) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendBatchLocked(pkts)
}

// sendBatchLocked is the session transmit loop: Send's historical
// gated-wait and eviction-retry behavior, applied to a batch. Caller
// holds s.mu.
func (s *Session) sendBatchLocked(pkts []*packet.Packet) (int, error) {
	var stalled time.Time
	done := 0
	for done < len(pkts) {
		select {
		case <-s.closed:
			s.noteStall(stalled)
			return done, ErrSessionClosed
		default:
		}
		n, err := s.st.SendBatch(pkts[done:])
		done += n
		if err == nil {
			continue
		}
		if err == core.ErrGated {
			if s.col != nil && stalled.IsZero() {
				stalled = time.Now()
			}
			s.txCond.Wait()
			continue
		}
		// Declared past the two common outcomes: errors.As makes cse
		// escape, and a heap word per batch is not free.
		var cse *core.ChannelSendError
		if errors.As(err, &cse) && s.health.EvictAfter > 0 && s.st.ActiveN() > 1 {
			// The failed send was not accounted to the scheduler, so the
			// retry targets the same channel until its streak trips the
			// eviction threshold; after eviction it goes to a survivor.
			if s.st.ErrStreak(cse.Channel) >= s.health.EvictAfter {
				s.evictLocked(cse.Channel, s.st.ErrStreak(cse.Channel))
			}
			continue
		}
		s.noteStall(stalled)
		return done, err
	}
	s.noteStall(stalled)
	return done, nil
}

// noteStall charges the time since the first gated attempt of a Send
// to the collector's credit-stall clock.
func (s *Session) noteStall(since time.Time) {
	if s.col == nil || since.IsZero() {
		return
	}
	s.col.AddCreditStall(time.Since(since))
}

// SendBytes stripes a payload.
func (s *Session) SendBytes(payload []byte) error { return s.Send(Data(payload)) }

// applyGrantLocked folds a cumulative grant the peer advertised for
// transmit channel c into the gate and wakes credit-stalled senders. It
// is the resequencer's OnGrant hook in a flow-controlled session, so it
// runs inside Arrive with s.mu held. Grants come off the wire: one the
// gate refuses is counted, not applied.
func (s *Session) applyGrantLocked(c int, grant uint64) {
	if s.gate.ApplyGrant(c, int64(grant)) != nil {
		s.col.OnCreditRejected(c)
		return
	}
	s.txCond.Broadcast()
}

// grantFor is the cumulative grant this end extends the peer on receive
// channel c: one window past everything that has left the channel and
// this end's buffers for good (Resequencer.ReleasedBytesOn, where the
// reasons it needs no further reconciliation are). Caller holds s.mu.
func (s *Session) grantFor(c int) int64 { return s.rs.ReleasedBytesOn(c) + s.window }

// creditGap is the least time between two rounds of credit packets. A
// credit costs the peer a reader wake-up, the session lock and a
// broadcast, so like markers it goes out on a bounded cadence: at most a
// thousand rounds a second, each carrying everything earned since the
// last. It is also what keeps a small window's throughput a function of
// the clock and not of how fast two schedulers can pass the grant back
// and forth (DESIGN.md, "Credit return").
const creditGap = time.Millisecond

// returnCreditLocked runs after every delivery to the application. Once
// some receive channel's grant has grown by half a window since the peer
// was last told (by a marker or a credit), every channel whose grant has
// grown at all gets a credit packet on its reverse channel, so a peer
// that has spent its window waits for the application to drain, not for
// this end's marker timer. Half a window keeps the sender's pipe from
// running dry; returning all channels together keeps a round-robin
// sender, which needs credit on each channel in turn, from stalling on
// the one whose credit is a moment behind. creditGap bounds the traffic:
// credit earned sooner than that after the last round is held for
// creditWake to send, because the delivery that earned it may be the
// last until the peer hears of it. Markers still carry the grant on the
// timer, which is what recovers a lost credit packet. Caller holds s.mu.
func (s *Session) returnCreditLocked() {
	if s.gate == nil || s.creditHeld {
		return
	}
	earned := false
	for c, told := range s.advertised {
		if g := s.grantFor(c); g > told && g-told >= s.window/2 {
			earned = true
			break
		}
	}
	if !earned {
		return
	}
	now := time.Now()
	if wait := creditGap - now.Sub(s.creditAt); wait > 0 {
		s.creditHeld = true
		if s.creditWake == nil {
			s.creditWake = time.AfterFunc(wait, s.sendHeldCredits)
		} else {
			s.creditWake.Reset(wait)
		}
		return
	}
	s.creditAt = now
	for c, told := range s.advertised {
		g := s.grantFor(c)
		if g <= told {
			continue
		}
		s.advertised[c] = g
		// Refused when reverse channel c has left the live set (the
		// peer's account for it is closed too); a transport failure is on
		// the channel's error streak, where the health monitor reads it.
		// Either way the grant itself rides the next marker.
		_ = s.st.SendCredit(c, uint64(g))
	}
}

// sendHeldCredits is creditWake's function: the gap a credit was held
// for has passed.
func (s *Session) sendHeldCredits() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.creditHeld = false
	select {
	case <-s.closed:
	default:
		s.returnCreditLocked()
	}
}

// recv is the session's receive call: the half's loop under the session
// lock, then credit back to the peer for what the application just took.
func (s *Session) recv(dst []*Packet, block bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.recvLocked(dst, block)
	if n > 0 {
		s.returnCreditLocked()
	}
	return n
}

// TryRecv returns the next in-order packet without blocking.
func (s *Session) TryRecv() (*Packet, bool) {
	var one [1]*Packet
	n := s.recv(one[:], false)
	return one[0], n > 0
}

// Recv blocks for the next in-order packet, or returns nil when the
// session is closed.
func (s *Session) Recv() *Packet {
	var one [1]*Packet
	s.recv(one[:], true)
	return one[0]
}

// RecvBatch fills dst with as many consecutive in-order packets as are
// deliverable right now, blocking (like Recv) until at least one is
// available, and returns the number filled. Zero means the session was
// closed. The lock is taken once per batch, not once per packet.
//
// Received packets are owned by the caller; pooled ones (the netchan
// receive path draws from the packet pool) may be handed back with
// Packet.Release once their payloads are consumed, which is what keeps
// the steady-state receive path allocation-free.
func (s *Session) RecvBatch(dst []*Packet) int { return s.recv(dst, true) }

// EmitMarkers cuts a marker batch (with piggybacked credits) now.
func (s *Session) EmitMarkers() {
	s.mu.Lock()
	s.emitMarkersLocked()
	s.mu.Unlock()
}

// emitMarkersLocked cuts a marker batch, publishes the receive ledger
// (an idle receiver's scrape lags by at most this cadence), and
// advances the death clock of draining receive slots. A slot drains
// until its own FIFO delimiter arrives; the peer repeats the departure
// announcement for core.MemberAnnounceBatches of its marker batches, so
// a slot still draining with an empty buffer after that many of this
// end's batches — timer-driven or manual, the two ends share a cadence —
// has lost its delimiter with the link, and is declared dead so the
// delivery scan stops waiting on it. Caller holds s.mu.
func (s *Session) emitMarkersLocked() {
	s.st.EmitMarkers()
	s.rs.SyncObs()
	for c := range s.drainTicks {
		if s.rs.MemberState(c) != core.MemberDraining || s.rs.Channel(c).Buffered != 0 {
			s.drainTicks[c] = 0
		} else if s.drainTicks[c]++; s.drainTicks[c] >= core.MemberAnnounceBatches {
			s.drainTicks[c] = 0
			_ = s.rs.RemoveChannel(c)
			s.rxCond.Broadcast()
		}
	}
}

// Close stops the marker timer and unblocks Send and Recv.
func (s *Session) Close() {
	s.closeRecv()
	// Broadcast under the session lock, for the reason closeRecv gives:
	// a credit-stalled sender likewise holds s.mu from its check of the
	// close signal to txCond.Wait, and no credit is coming after Close to
	// wake one an unlocked broadcast missed.
	s.mu.Lock()
	if s.creditWake != nil {
		s.creditWake.Stop()
	}
	s.txCond.Broadcast()
	s.rxCond.Broadcast()
	s.mu.Unlock()
}

// SendStats returns this end's transmit counters, including the
// per-channel data load.
func (s *Session) SendStats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Stats()
}

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured). It briefly takes the session lock
// to publish both directions' ledgers first, so the snapshot is exact
// as of this call.
func (s *Session) Snapshot() Snapshot {
	if s.col == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	s.st.SyncObs()
	s.rs.SyncObs()
	s.mu.Unlock()
	return s.col.Snapshot()
}

// PeerView returns the session's peer telemetry view: the remote
// resequencer's reported loss, occupancy, and marker timestamp pairs,
// folded into per-channel scores and one-way delay estimates. The view
// is live (it updates as reports arrive) and safe for concurrent use;
// before the first report Latest returns nil.
func (s *Session) PeerView() *obs.PeerView { return s.peer }

// CreditRemaining reports the unused grant for channel c (0 when flow
// control is disabled).
func (s *Session) CreditRemaining(c int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate == nil {
		return 0
	}
	return s.gate.Remaining(c)
}

// --- Dynamic membership -------------------------------------------------

// ActiveChannels returns the number of channels currently in this end's
// transmit live set.
func (s *Session) ActiveChannels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.ActiveN()
}

// ChannelState reports channel c's lifecycle state on this end's
// transmit side and receive side. The two can differ transiently while
// a membership change propagates (for example tx removed, rx still
// draining the peer's in-flight tail).
func (s *Session) ChannelState(c int) (tx, rx MemberState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Member(c), s.rs.MemberState(c)
}

// RemoveChannel gracefully retires channel c from this end's transmit
// set: a final marker batch fixes the channel's position, the departure
// is announced to the peer (which mirrors it onto its own transmit
// side), outstanding credit is returned, and the survivors carry the
// stream on with the fairness band re-formed over them. The receive
// side of c keeps draining the peer's in-flight tail in order and
// retires once the peer's mirrored removal completes. The last active
// channel cannot be removed.
func (s *Session) RemoveChannel(c int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.removeTxLocked(c)
	if err == nil && c >= 0 && c < s.n {
		// Manual removals are not reinstatement candidates.
		s.evicted[c] = false
	}
	return err
}

// AddChannel (re)admits channel c into this end's transmit set,
// optionally replacing its transport with tx (nil reuses the existing
// one). The join is announced to the peer, which re-admits its receive
// side at the announced join round and mirrors the join onto its own
// transmit side, restoring the full duplex link; FIFO delivery over the
// grown set resumes within one marker period.
func (s *Session) AddChannel(c int, tx ChannelSender) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitTxLocked(c, tx)
}

// removeTxLocked retires c from the transmit set and tears down its
// flow-control account. Caller holds s.mu.
func (s *Session) removeTxLocked(c int) error {
	if err := s.st.RemoveChannel(c); err != nil {
		return err
	}
	var returned int64
	if s.gate != nil {
		// Teardown returns the outstanding grant; the account is frozen at
		// granted == consumed so the conservation checker sees no leak.
		returned = s.gate.Retire(c)
	}
	s.col.Emit(obs.KindMemberDrain, c, s.st.Round(), returned)
	s.recomputeMaxBufLocked()
	// Senders parked on the removed channel's credit must re-Select.
	s.txCond.Broadcast()
	return nil
}

// admitTxLocked (re)admits c into the transmit set with a fresh credit
// window. Caller holds s.mu.
func (s *Session) admitTxLocked(c int, tx ChannelSender) error {
	wasActive := s.st.Member(c) == core.MemberActive
	join, err := s.st.AddChannel(c, tx)
	if err != nil {
		return err
	}
	if wasActive {
		return nil // transport swap only
	}
	if s.gate != nil {
		s.gate.Readmit(c)
	}
	s.evicted[c] = false
	s.probeOK[c] = 0
	s.col.Emit(obs.KindMemberJoin, c, join, 0)
	s.recomputeMaxBufLocked()
	s.txCond.Broadcast()
	return nil
}

// onPeerMembership mirrors the peer's announced membership onto this
// end's transmit side, so one end's removal (or join) retires or
// restores the full duplex link. The mirror terminates: re-applying an
// already-applied transition is a no-op and triggers no announcement.
// Invoked by the resequencer with s.mu held.
func (s *Session) onPeerMembership(c int, joined bool) {
	if joined {
		if s.st.Member(c) == core.MemberRemoved {
			_ = s.admitTxLocked(c, nil)
		}
		return
	}
	if s.st.Member(c) == core.MemberActive {
		_ = s.removeTxLocked(c)
	}
}

// evictLocked force-removes channel c after the health monitor (or the
// Send retry loop) observed it dead: transmit removal plus local
// receive-side retirement — a dead link will never complete the
// peer-mirrored drain, and the missing tail is declared lost so the
// stream resumes FIFO on the survivors. Caller holds s.mu.
func (s *Session) evictLocked(c int, value int64) {
	if s.removeTxLocked(c) != nil {
		return
	}
	_ = s.rs.RemoveChannel(c)
	s.evicted[c] = true
	s.probeOK[c] = 0
	s.col.Emit(obs.KindMemberEvict, c, s.st.Round(), value)
}

// scoreTick runs the evidence-based eviction check: an active channel
// whose windowed health score stays below HealthConfig.ScoreEvictBelow
// for ScoreStreak consecutive rollup windows is evicted, with the
// score as the eviction value. Each published rollup advances a
// channel's streak at most once (the marker timer ticks faster than
// the rollup folds). Caller holds s.mu.
func (s *Session) scoreTick() {
	threshold := s.health.ScoreEvictBelow
	if threshold <= 0 {
		return
	}
	snap := s.col.Windows().Latest()
	if snap == nil || snap.AtNs == s.lastFoldAt {
		return
	}
	s.lastFoldAt = snap.AtNs
	for _, h := range snap.Health {
		s.scoreStep(s.lowScore, h.Channel, h.Score, threshold)
	}
}

// peerTick runs the peer-evidence eviction check: an active channel
// whose peer-reported score stays below HealthConfig.PeerScoreEvictBelow
// for ScoreStreak consecutive telemetry reports is evicted, with the
// peer score as the eviction value. Each distinct report advances a
// channel's streak at most once (the marker timer can tick faster than
// peer reports arrive). This is the only rule that sees silent loss:
// the transport accepts every send, so the local error streak never
// moves, but the peer's resequencer measured the bytes that never
// arrived. Caller holds s.mu.
func (s *Session) peerTick() {
	threshold := s.health.PeerScoreEvictBelow
	if threshold <= 0 {
		return
	}
	snap := s.peer.Latest()
	if snap == nil || snap.Seq == s.lastPeerSeq {
		return
	}
	s.lastPeerSeq = snap.Seq
	for i := range snap.Channels {
		pc := &snap.Channels[i]
		s.scoreStep(s.peerLow, pc.Channel, pc.Score, threshold)
	}
}

// scoreStep folds one (channel, score) observation into low, the
// calling rule's streak counters: an inactive channel or a score at or
// above threshold resets the streak; otherwise it grows, and at
// ScoreStreak the channel is evicted with the score as the eviction
// value, unless it is the last active one. Caller holds s.mu.
func (s *Session) scoreStep(low []int, c, score, threshold int) {
	if c < 0 || c >= s.n {
		return
	}
	if s.st.Member(c) != core.MemberActive || score >= threshold {
		low[c] = 0
		return
	}
	if low[c]++; low[c] >= s.health.ScoreStreak && s.st.ActiveN() > 1 {
		s.evictLocked(c, int64(score))
		low[c] = 0
	}
}

// healthTick runs the periodic health checks: error-streak,
// windowed-health-score, and peer-score eviction for active channels,
// liveness probes and reinstatement for evicted ones. Runs on the marker
// timer with s.mu held.
func (s *Session) healthTick() {
	s.scoreTick()
	s.peerTick()
	for c := 0; c < s.n; c++ {
		switch {
		case s.st.Member(c) == core.MemberActive:
			// Never evict the last channel.
			if ea := s.health.EvictAfter; ea > 0 && s.st.ActiveN() > 1 && s.st.ErrStreak(c) >= ea {
				s.evictLocked(c, s.st.ErrStreak(c))
			}
		case s.evicted[c] && s.health.ReinstateAfter > 0:
			// Probe the evicted channel with an idempotent status
			// announcement; a streak of successful sends is the recovery
			// signal.
			if s.st.ProbeChannel(c) == nil {
				if s.probeOK[c]++; s.probeOK[c] >= s.health.ReinstateAfter {
					if s.admitTxLocked(c, nil) == nil {
						s.col.Emit(obs.KindMemberReinstate, c, s.st.Round(), 0)
					}
				}
			} else {
				s.probeOK[c] = 0
			}
		}
	}
}

// recomputeMaxBufLocked re-derives the resequencer's buffer cap for the
// current live set when the cap was derived (not explicitly
// configured): a smaller live set legitimately buffers less, and a
// grown one needs headroom back. Caller holds s.mu.
func (s *Session) recomputeMaxBufLocked() {
	if !s.autoMaxBuf {
		return
	}
	live := make([]int64, 0, s.n)
	for c := 0; c < s.n; c++ {
		if s.st.Member(c) == core.MemberActive {
			live = append(live, s.quanta[c])
		}
	}
	s.rs.SetMaxBuffered(DefaultMaxBuffered(len(live), s.window, live))
}
