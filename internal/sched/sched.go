// Package sched implements the scheduling theory at the heart of the
// paper: Causal Fair Queuing (CFQ) algorithms and their transformation
// into fair load-sharing (striping) algorithms.
//
// # The CFQ model (Section 3.1 of the paper)
//
// In the backlogged case, a causal fair queuing algorithm is fully
// characterised by an initial state s0 and two functions applied in
// succession: f(s) selects a queue given the current state, and g(s, p)
// updates the state after the packet p at the head of the selected queue
// is transmitted. Causality means decisions depend only on previously
// transmitted packets — never on future arrivals or on the contents of
// queues (for example the sizes of head-of-line packets, which is what
// makes the DKS bit-by-bit round-robin emulation non-causal).
//
// # The transformation (Section 3.2)
//
// The same (s0, f, g) triple runs "in reverse" as a load-sharing
// algorithm: where fair queuing uses f(s) to pull the next packet from
// queue f(s) onto a single output channel, load sharing uses f(s) to
// push the next packet from a single input queue to output channel f(s).
// Theorem 3.1 shows the transformation preserves fairness. The Scheduler
// interface below is exactly that shared automaton: Select is f, Account
// is g.
//
// # Why causality matters twice
//
// Causality also enables logical reception (Section 4): a receiver that
// knows (s0, f, g) can simulate the sender and therefore knows which
// channel the next packet will arrive on, restoring FIFO order with
// per-channel buffering and no packet modification. The Causal interface
// marks schedulers whose full state can be snapshotted and restored; the
// RoundBased interface additionally exposes the (round, deficit)
// per-channel implicit packet numbers that the marker-recovery protocol
// of Section 5 depends on.
package sched

import "fmt"

// Scheduler is the shared automaton (s0, f, g) of a causal fair queuing
// algorithm, usable either as a fair-queuing selector (pull the next
// packet from queue Select()) or, transformed, as a striping selector
// (push the next packet to channel Select()).
type Scheduler interface {
	// N returns the number of channels (equivalently, queues).
	N() int
	// Select returns the index of the channel the next packet must be
	// sent on — the function f(s). Select may advance internal
	// bookkeeping past channels whose deficit does not permit service,
	// but calling it repeatedly without an intervening Account returns
	// the same index.
	Select() int
	// Account charges a transmitted packet of the given payload size to
	// the channel returned by Select and updates the state — the
	// function g(s, p).
	Account(size int)
}

// State is a full snapshot of a causal scheduler, sufficient to replay
// its future decisions. Receivers use it to initialise their simulation
// of the sender, and tests use it to verify determinism.
type State struct {
	// Current is the index of the channel under (or about to be under)
	// service.
	Current int
	// Round is the global round number G: the count of completed
	// round-robin scans.
	Round uint64
	// Began reports whether the quantum for Current's service in this
	// round has already been added to its deficit counter.
	Began bool
	// Deficits holds the per-channel deficit counters.
	Deficits []int64
	// RNG is the generator state for randomized schedulers; zero
	// otherwise.
	RNG uint64
	// Disabled holds the per-slot membership mask for schedulers that
	// implement Membership. A nil Disabled means "leave membership
	// unchanged" on Restore, so snapshots taken before membership
	// existed (and the marker protocol's self-heal path, which restores
	// only automaton position) compose with dynamic link sets.
	Disabled []bool
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	c := s
	c.Deficits = append([]int64(nil), s.Deficits...)
	if s.Disabled != nil {
		c.Disabled = append([]bool(nil), s.Disabled...)
	}
	return c
}

// Causal is implemented by schedulers that satisfy the CFQ property:
// their decisions are a deterministic function of previously transmitted
// packets (plus, for randomized schedulers, a seedable generator). Only
// causal schedulers can drive logical reception, because the receiver
// must be able to reproduce the sender's decisions exactly.
type Causal interface {
	Scheduler
	// Snapshot captures the full scheduler state.
	Snapshot() State
	// Restore replaces the scheduler state with a snapshot.
	Restore(State)
}

// RoundBased is implemented by causal schedulers organised as
// round-robin scans with per-channel deficit counters — the family the
// marker-based synchronization protocol of Section 5 applies to. The
// implicit number of a packet is the pair (round, deficit) immediately
// before the packet is sent.
type RoundBased interface {
	Causal
	// Round returns the global round number G.
	Round() uint64
	// Current returns the channel the scan pointer rests on, without
	// side effects.
	Current() int
	// MidService reports whether the current channel's service has begun
	// (its quantum has been added) but not yet completed. Markers must
	// only be cut at service boundaries, where MidService is false.
	MidService() bool
	// Deficit returns channel c's deficit counter. When the channel is
	// not mid-service this is the value the marker protocol transmits:
	// the deficit before the next service's quantum is added.
	Deficit(c int) int64
	// SetDeficit overwrites channel c's deficit counter; the receiver
	// uses it to adopt the value carried by a marker.
	SetDeficit(c int, d int64)
	// NextServiceRound returns the round number in which channel c will
	// next begin service, assuming a backlogged sender: G if c has not
	// yet been visited in the current scan, G+1 otherwise.
	NextServiceRound(c int) uint64
	// SelectFor behaves like Select but consults skip before beginning
	// service of each candidate channel; if skip returns true the
	// channel is passed over without its quantum being added. The
	// receiver implements the Section 5 rule "skip channel c while
	// r_c > G" with it. A nil skip never skips.
	SelectFor(skip func(c int) bool) int
	// AdvanceRoundTo fast-forwards the global round number to r without
	// touching deficit counters, provided the scan pointer is at a
	// service boundary and r is ahead of the current round. The receiver
	// uses it when every channel is being skipped, so recovery takes
	// O(channels) work instead of O(rounds missed).
	AdvanceRoundTo(r uint64)
	// EndService force-completes the current channel's service,
	// advancing the scan pointer regardless of remaining deficit.
	EndService()
	// Skip advances past the current channel without granting its
	// quantum; valid only at a service boundary.
	Skip()
	// QuantumOf returns channel c's quantum.
	QuantumOf(c int) int64
	// CostOf returns what a packet of the given size charges a deficit
	// counter, so a caller can predict a service's length from Deficit.
	CostOf(size int) int64
	// AccountCost charges a whole run of summed CostOf in one step, in
	// the state per-packet Account calls reach, provided no packet but
	// the last could have ended the service.
	AccountCost(cost int64)
	// Reset reinitialises the automaton to its start state s0.
	Reset()
}

// Membership is implemented by schedulers whose channel set can change
// mid-run. The channel universe (N and the quantum vector) is fixed at
// construction; membership enables and disables slots within it, which
// keeps condition C2 of Section 5 (identical channel numbering at both
// ends) trivially true across leaves and rejoins.
//
// Disabling a slot retires its deficit to zero and removes it from the
// round-robin scan; the surviving channels keep the Theorem 3.2
// fairness band relative to the rounds elapsed since the change,
// because each still receives exactly its quantum per scan. Re-enabling
// a slot restarts it with a zero deficit — the same state both ends
// compute, so the receiver simulation stays in lockstep.
type Membership interface {
	// SetEnabled adds (true) or removes (false) slot c from the scan.
	// Disabling retires the deficit; if c is mid-service its service
	// ends immediately. Enabling grants a fresh zero deficit. Both are
	// no-ops when the slot is already in the requested state.
	SetEnabled(c int, on bool)
	// Enabled reports whether slot c participates in the scan.
	Enabled(c int) bool
	// ActiveN returns the number of enabled slots.
	ActiveN() int
}

// Quantum validation errors.
var (
	errNoChannels = fmt.Errorf("sched: need at least one channel")
)

func validateQuanta(quanta []int64) error {
	if len(quanta) == 0 {
		return errNoChannels
	}
	for i, q := range quanta {
		if q <= 0 {
			return fmt.Errorf("sched: quantum %d for channel %d must be positive", q, i)
		}
	}
	return nil
}
