package obs

import (
	"fmt"
	"sync"
)

// Kind enumerates the protocol transitions that fire events.
type Kind uint8

const (
	// KindResync: a marker changed receiver state (expected round or
	// deficit adopted). Channel is the resynchronized channel, Round the
	// marker's round, Value the adopted deficit.
	KindResync Kind = iota
	// KindSkip: the receiver passed over a channel under the r_c > G
	// rule. Channel is the skipped channel, Round the receiver's G.
	KindSkip
	// KindReset: an epoch reset was broadcast (sender) or applied
	// (receiver). Value is the new epoch.
	KindReset
	// KindSelfHeal: the receiver adopted state from uniformly stale
	// markers. Round is the adopted restart round.
	KindSelfHeal
	// KindFastForward: the receiver jumped its round because every
	// channel was skip-listed. Round is the old round, Value the jump
	// distance in rounds.
	KindFastForward
	// KindCreditExhausted: flow control vetoed a send. Channel is the
	// starved channel, Value the blocked packet's size.
	KindCreditExhausted
	// KindCreditReconcile: a marker-carried sender position wrote off
	// lost bytes and granted them back. Channel is the reconciled
	// channel, Value the bytes newly written off.
	KindCreditReconcile
	// KindReseqOverflow: the resequencer's buffered-packet count
	// crossed its configured cap. Channel is the arriving channel;
	// Value is the occupancy (negated when the arrival was dropped at
	// the hard cap).
	KindReseqOverflow
	// KindInvariantViolation: the runtime invariant checker found a
	// protocol invariant broken (Theorem 3.2 fairness band, credit
	// conservation, or monotone round progression). Channel is the
	// offending channel (-1 when global), Round the checker's view of
	// the sender round, Value the violation magnitude in the
	// invariant's own unit (bytes over the bound, rounds regressed).
	KindInvariantViolation
	// KindMemberJoin: a channel (re)joined the live set. Channel is the
	// joining channel, Round the round in which the scheduler first
	// serves it.
	KindMemberJoin
	// KindMemberDrain: a channel left the live set (graceful removal or
	// receiver-side drain completion). Channel is the departing channel,
	// Round the automaton round at departure, Value the outstanding
	// credit returned by gate teardown (sender side) or the buffered
	// packets declared lost (receiver side).
	KindMemberDrain
	// KindMemberEvict: the health monitor force-removed a channel.
	// Value is the consecutive send-error count (or, for an eviction on
	// the windowed or the peer-reported health score, that score).
	KindMemberEvict
	// KindMemberReinstate: the health monitor re-admitted a previously
	// evicted channel after observing recovery.
	KindMemberReinstate

	nKinds
)

var kindNames = [nKinds]string{
	"resync", "skip", "reset", "self_heal", "fast_forward", "credit_exhausted",
	"credit_reconcile", "reseq_overflow", "invariant_violation",
	"member_join", "member_drain", "member_evict", "member_reinstate",
}

// String returns the exposition name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one protocol transition. Channel is -1 for events that are
// not channel-specific; the meanings of Round and Value depend on Kind
// (see the Kind constants). At is nanoseconds since the process
// timebase (the same axis as PacketTrace stamps), so events and packet
// lifecycles interleave on one timeline in a Chrome trace.
type Event struct {
	Seq     uint64 // per-collector emission sequence, from 1
	At      int64  // nanoseconds since the process timebase
	Kind    Kind
	Channel int
	Round   uint64
	Value   int64
}

// String renders the event as one human-readable line.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s channel=%d round=%d value=%d",
		e.Seq, e.Kind, e.Channel, e.Round, e.Value)
}

// Sink observes protocol events. Implementations must be safe for
// concurrent use and should return quickly: sinks run inline on the
// protocol path.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(e Event) { f(e) }

// RingSink retains the most recent events in a bounded in-memory ring,
// so a live system always has its recent protocol history available at
// zero allocation cost per event.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRingSink returns a ring retaining the last n events (n defaults to
// 256 when not positive).
func NewRingSink(n int) *RingSink {
	if n <= 0 {
		n = 256
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Event implements Sink.
func (r *RingSink) Event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Events returns the retained events, oldest first.
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events ever observed (retained or
// overwritten).
func (r *RingSink) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
