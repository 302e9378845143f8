package stripe

import (
	"errors"
	"sync"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// Packet is the unit of striping. Payloads are carried verbatim in the
// default (no header) mode.
type Packet = packet.Packet

// Data builds a data packet around payload without copying.
func Data(payload []byte) *Packet { return packet.NewData(payload) }

// GetPacket returns a zeroed packet from the process-wide packet pool.
// Its payload has length zero but keeps the capacity of its previous
// life; see GetPacketSized for a sized one. Hand packets back with
// Packet.Release once done (optional — unreleased packets are ordinary
// garbage), and never Release a packet whose payload aliases memory you
// keep (such as one built with Data).
func GetPacket() *Packet { return packet.Get() }

// GetPacketSized returns a pooled data packet whose payload has length
// n, with unspecified contents. This is the allocation-free way to feed
// SendBatch in steady state: a released packet donates its payload
// backing array to the pool, so once capacities stabilize Get/Release
// cycles allocate nothing.
func GetPacketSized(n int) *Packet { return packet.GetSized(n) }

// Kinds, for inspecting packets read directly off channels.
const (
	KindData      = packet.Data
	KindMarker    = packet.Marker
	KindCredit    = packet.Credit
	KindReset     = packet.Reset
	KindMember    = packet.Member
	KindTelemetry = packet.Telemetry
)

// MemberState is one channel slot's position in the membership
// lifecycle (active → draining → removed, and back via AddChannel).
type MemberState = core.MemberState

// Membership lifecycle states.
const (
	MemberActive   = core.MemberActive
	MemberDraining = core.MemberDraining
	MemberRemoved  = core.MemberRemoved
)

// ErrNoActiveChannels is returned by Send once every channel has been
// removed from the live set.
var ErrNoActiveChannels = core.ErrNoActiveChannels

// ErrLastChannel is returned when a removal would empty the live set.
var ErrLastChannel = core.ErrLastChannel

// ChannelSendError wraps a transport failure with the channel it
// occurred on; unwrap with errors.As to react per channel.
type ChannelSendError = core.ChannelSendError

// MarkerPolicy controls periodic synchronization markers; see
// core.MarkerPolicy. Every is in rounds; Position is the channel index
// the round-robin pointer rests on when the batch is cut.
type MarkerPolicy = core.MarkerPolicy

// Mode selects the receiver discipline.
type Mode = core.Mode

// Receive disciplines.
const (
	// ModeLogical is the paper's scheme: per-channel buffering plus
	// simulation of the sender automaton. Quasi-FIFO under loss.
	ModeLogical = core.ModeLogical
	// ModeNone delivers in physical arrival order.
	ModeNone = core.ModeNone
	// ModeSequence resequences on explicit sequence numbers; requires
	// Config.AddSeq on the sender.
	ModeSequence = core.ModeSequence
)

// ChannelSender is the transmit side of one FIFO channel.
type ChannelSender = channel.Sender

// ChannelReceiver is the receive side of one FIFO channel.
type ChannelReceiver = channel.Receiver

// UniformQuanta returns n equal quanta of q bytes each.
func UniformQuanta(n int, q int64) []int64 { return sched.UniformQuanta(n, q) }

// QuantaForRates derives quanta proportional to channel bandwidths with
// the smallest at least minQuantum (set it to your maximum packet size).
func QuantaForRates(rates []float64, minQuantum int64) ([]int64, error) {
	return sched.QuantaForRates(rates, minQuantum)
}

// Scheme selects the striping discipline.
type Scheme uint8

const (
	// SchemeSRR is Surplus Round Robin: byte-denominated quanta, fair
	// with variable-length packets. The paper's scheme and the default.
	SchemeSRR Scheme = iota
	// SchemeRR is ordinary round robin: one packet per channel per
	// round, ignoring sizes (Quanta entries are ignored beyond their
	// count). A baseline.
	SchemeRR
	// SchemeGRR is generalized round robin: Quanta are per-round packet
	// counts approximating a bandwidth ratio. A baseline.
	SchemeGRR
)

// Config configures a striped connection. Sender and receiver must use
// identical Scheme, Quanta and Markers.
type Config struct {
	// Scheme is the striping discipline (default SchemeSRR).
	Scheme Scheme
	// Quanta are the per-channel SRR quanta in bytes, proportional to
	// channel bandwidth; each should be at least the maximum packet
	// size. For SchemeGRR they are per-round packet counts instead.
	// Required.
	Quanta []int64
	// Markers configures periodic resynchronization markers. The zero
	// value sends markers every 4 rounds at the round boundary, which
	// suits most uses; set Every to NoMarkers to disable.
	Markers MarkerPolicy
	// Mode is the receive discipline (default ModeLogical).
	Mode Mode
	// AddSeq stamps explicit sequence numbers on data packets — the
	// "with header" variant, required for ModeSequence.
	AddSeq bool
	// MaxBuffered caps the receiver's total buffered packets, making
	// resequencer memory hard-bounded: above the cap ordering is
	// abandoned for the backlog until it halves, and above twice the cap
	// arrivals are dropped like channel loss. Zero selects
	// DefaultMaxBuffered in sessions with flow control enabled (and
	// unbounded elsewhere); negative means explicitly unbounded.
	MaxBuffered int
	// Collector, when non-nil, is published the ledgers of every engine
	// built with this Config and sent their protocol events. Size it with
	// NewCollector(len(Quanta)). Expose it with Serve or read it with
	// Snapshot. A nil Collector costs one pointer test per packet.
	Collector *Collector
}

// NoMarkers disables periodic markers when assigned to Markers.Every.
const NoMarkers = ^uint64(0)

// DefaultMaxBuffered derives a principled resequencer buffer cap from
// the flow-control configuration: n channels, a per-channel credit
// window of window bytes, and the configured quanta.
//
// FCVC flow control already bounds what the cap must hold: the peer can
// have at most window un-granted bytes outstanding per channel, so the
// resequencer never legitimately buffers more than n·window payload
// bytes. Converting bytes to a packet count needs a floor on packet
// size; quanta are calibrated to the maximum packet (each quantum ≥ max
// packet size), and the paper's workloads put typical packets within a
// small factor of the maximum, so min(quanta)/8 is used as the floor —
// tiny-packet floods beyond that are exactly the pathology the cap
// exists to bound. The result is
//
//	cap = 8 · n · ⌈window / min(quanta)⌉
//
// with a floor of 64 packets so small windows never cripple reordering
// tolerance. Returns 0 (unbounded) when window or the quanta are
// non-positive. See DESIGN.md "Bounded resequencer memory".
func DefaultMaxBuffered(n int, window int64, quanta []int64) int {
	if n <= 0 || window <= 0 {
		return 0
	}
	minQ := int64(0)
	for _, q := range quanta {
		if q > 0 && (minQ == 0 || q < minQ) {
			minQ = q
		}
	}
	if minQ == 0 {
		return 0
	}
	per := (window + minQ - 1) / minQ
	cap64 := 8 * int64(n) * per
	if cap64 < 64 {
		return 64
	}
	return int(cap64)
}

func (c Config) sched() (sched.RoundBased, error) {
	switch c.Scheme {
	case SchemeRR:
		return sched.NewRR(len(c.Quanta))
	case SchemeGRR:
		return sched.NewGRR(c.Quanta)
	default:
		return sched.NewSRR(c.Quanta)
	}
}

func (c Config) markers() MarkerPolicy {
	m := c.Markers
	if m.Every == 0 {
		m = MarkerPolicy{Every: 4, Position: 0}
	} else if m.Every == NoMarkers {
		m = MarkerPolicy{}
	}
	return m
}

// newStriper builds the transmit engine over channels: the one place
// the root package fills a core.StriperConfig. scfg arrives carrying
// only what a Session adds (the credit gate and the marker-credit hook).
func (c Config) newStriper(channels []ChannelSender, scfg core.StriperConfig) (*core.Striper, error) {
	if len(c.Quanta) != len(channels) {
		return nil, errors.New("stripe: Quanta and channels must have equal length")
	}
	s, err := c.sched()
	if err != nil {
		return nil, err
	}
	scfg.Sched, scfg.Channels, scfg.Markers, scfg.Obs = s, channels, c.markers(), c.Collector
	// A lifecycle tracer keys packets by the sequence identity they
	// carry; without AddSeq that identity is in-process only and never
	// survives an encoded channel, so every remote lifecycle would be
	// torn. Configuring a tracer therefore implies explicit sequence
	// numbers.
	scfg.AddSeq = c.AddSeq || c.Collector.Tracer() != nil
	return core.NewStriper(scfg)
}

// Sender stripes a FIFO packet stream across the channels. It is safe
// for concurrent use.
type Sender struct {
	mu  sync.Mutex
	st  *core.Striper
	col *Collector
}

// NewSender builds the sending half over the given channels.
func NewSender(channels []ChannelSender, cfg Config) (*Sender, error) {
	st, err := cfg.newStriper(channels, core.StriperConfig{})
	if err != nil {
		return nil, err
	}
	return &Sender{st: st, col: cfg.Collector}, nil
}

// Send stripes one packet. The payload is transmitted unmodified.
func (s *Sender) Send(p *Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Send(p)
}

// SendBytes stripes a payload.
func (s *Sender) SendBytes(payload []byte) error { return s.Send(Data(payload)) }

// SendBatch stripes pkts in FIFO order, taking the sender lock once,
// handing maximal same-channel runs to the channels in single calls, and
// writing each buffering (TCP or UDP) channel once as it returns. It
// returns the number of packets sent; n < len(pkts) only alongside a
// non-nil error, and pkts[n:] were not sent.
func (s *Sender) SendBatch(pkts []*Packet) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.SendBatch(pkts)
}

// EmitMarkers cuts a marker batch immediately. Call it from a timer if
// the stream can go idle, so a stalled sender still resynchronizes the
// receiver after loss.
func (s *Sender) EmitMarkers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.EmitMarkers()
}

// Reset broadcasts a reset and reinitialises the striping automaton;
// the receiver discards stale in-flight traffic and both ends restart
// in the common start state.
func (s *Sender) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Reset()
}

// Stats reports the sender's protocol counters, including the
// per-channel data load (the observable half of the fairness bound).
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Stats()
}

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured). It briefly takes the sender lock
// to publish the send ledger first, so the snapshot is exact as of this
// call.
func (s *Sender) Snapshot() Snapshot {
	if s.col == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	s.st.SyncObs()
	s.mu.Unlock()
	return s.col.Snapshot()
}

// SentOn reports the data packets and payload bytes striped onto
// channel c — the observable half of the fairness bound.
func (s *Sender) SentOn(c int) (packets, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.SentOn(c)
}

// recvHalf is the receive half of a striped connection — the paper's
// one receiver algorithm (buffer per channel, simulate the sender's
// automaton) behind one lock, one wait loop and one close signal. A
// Receiver is exactly this; a Session embeds the same half, so the
// session lock is this lock and its transmit cond waits on it too.
type recvHalf struct {
	mu     sync.Mutex
	rxCond *sync.Cond // signalled by every arrival and by Close
	rs     *core.Resequencer
	col    *Collector
	// closed is a channel, not a flag: the session's timers select on it,
	// and stripevet's goroleak follows a goroutine looping on Recv to its
	// exit through the receive below.
	closed chan struct{}
	once   sync.Once
}

// init builds the half for n channels: the one place the root package
// fills a core.ResequencerConfig. rcfg arrives carrying only what a
// Session adds (the grant, membership and telemetry hooks).
func (h *recvHalf) init(n int, cfg Config, rcfg core.ResequencerConfig) error {
	if len(cfg.Quanta) != n {
		return errors.New("stripe: Quanta must have one entry per channel")
	}
	// Negative means explicitly unbounded, which the engine spells zero.
	rcfg.Mode, rcfg.N, rcfg.Obs, rcfg.MaxBuffered = cfg.Mode, n, cfg.Collector, max(cfg.MaxBuffered, 0)
	if cfg.Mode == ModeLogical {
		s, err := cfg.sched()
		if err != nil {
			return err
		}
		rcfg.Sched = s
	}
	rs, err := core.NewResequencer(rcfg)
	if err != nil {
		return err
	}
	h.rs, h.col = rs, cfg.Collector
	h.rxCond = sync.NewCond(&h.mu)
	h.closed = make(chan struct{})
	return nil
}

// recvLocked is the receive loop: fill dst with the consecutive
// in-order packets deliverable now and return how many; with block set
// and none deliverable, wait for an arrival or for Close, and return 0
// only once closed with nothing left to deliver. Caller holds h.mu.
func (h *recvHalf) recvLocked(dst []*Packet, block bool) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		if n := h.rs.NextBatch(dst); n > 0 || !block {
			return n
		}
		select {
		case <-h.closed:
			return 0
		default:
		}
		h.rxCond.Wait()
	}
}

// Arrive hands this end a packet physically received from the peer on
// channel c, of any kind: data, markers (with the credits a session's
// peer piggybacks on them), credits, membership, telemetry, resets. The
// resequencer is the one reader of all of them.
func (h *recvHalf) Arrive(c int, p *Packet) {
	h.mu.Lock()
	h.rs.Arrive(c, p)
	h.mu.Unlock()
	h.rxCond.Broadcast()
}

// Stats reports this end's receive counters.
func (h *recvHalf) Stats() ReceiverStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rs.Stats()
}

// closeRecv raises the close signal, once. Whoever owns the half then
// broadcasts under h.mu: a waiter holds the lock continuously from its
// check of closed to its Wait, so either it sees the signal or it is
// already waiting when the broadcast fires; an unlocked broadcast could
// fall between the two and wake nobody.
func (h *recvHalf) closeRecv() { h.once.Do(func() { close(h.closed) }) }

// Receiver reassembles the FIFO stream. Feed it with Arrive (one pump
// per channel is the usual shape) and consume with Recv or TryRecv. It
// is safe for concurrent use.
type Receiver struct{ recvHalf }

// NewReceiver builds the receiving half for n channels.
func NewReceiver(n int, cfg Config) (*Receiver, error) {
	r := &Receiver{}
	if err := r.init(n, cfg, core.ResequencerConfig{}); err != nil {
		return nil, err
	}
	return r, nil
}

// TryRecv returns the next in-order packet without blocking.
func (r *Receiver) TryRecv() (*Packet, bool) {
	var one [1]*Packet
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.recvLocked(one[:], false)
	return one[0], n > 0
}

// Recv blocks until the next in-order packet is available or the
// receiver is closed (nil return).
func (r *Receiver) Recv() *Packet {
	var one [1]*Packet
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recvLocked(one[:], true)
	return one[0]
}

// RecvBatch fills dst with as many consecutive in-order packets as are
// deliverable right now, blocking (like Recv) until at least one is
// available, and returns the number filled. Zero means the receiver was
// closed. The lock is taken once per batch. Packets received off
// netchan transports are pool-backed; Release them once consumed to
// keep the receive path allocation-free.
func (r *Receiver) RecvBatch(dst []*Packet) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recvLocked(dst, true)
}

// Close unblocks pending Recv calls; subsequent Recv calls drain
// nothing further once the ordering discipline blocks.
func (r *Receiver) Close() {
	r.closeRecv()
	r.mu.Lock()
	r.rxCond.Broadcast()
	r.mu.Unlock()
}

// Drain force-flushes everything still buffered, best effort, at end of
// stream.
func (r *Receiver) Drain() []*Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rs.Drain()
}

// Buffered reports the packets currently held in per-channel buffers.
func (r *Receiver) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rs.Buffered()
}

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured). It briefly takes the receiver lock
// to publish the receive ledger first, so the snapshot is exact as of
// this call.
func (r *Receiver) Snapshot() Snapshot {
	if r.col == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	r.rs.SyncObs()
	r.mu.Unlock()
	return r.col.Snapshot()
}
