package sched

import "fmt"

// CostModel determines what a deficit counter is denominated in.
type CostModel uint8

const (
	// CostBytes charges each packet its payload length — Surplus Round
	// Robin proper, which is what gives fair load sharing with variable
	// length packets.
	CostBytes CostModel = iota
	// CostPackets charges each packet one unit regardless of length.
	// With per-channel quantum 1 this degenerates to ordinary round
	// robin; with quanta set to an integer bandwidth ratio it is the
	// generalized round robin (GRR) baseline of Section 6.2.
	CostPackets
)

// SRR is the Surplus Round Robin automaton of Section 3.5, usable both
// as a fair-queuing selector and (by the Section 3.2 transformation) as
// a striping selector.
//
// Each channel i has a quantum Quantum_i and a deficit counter DC_i,
// initialised to zero. Channels are visited in round-robin order. When a
// channel's service begins, its quantum is added to its DC. While the DC
// is positive, packets are sent on the channel, each decrementing the DC
// by its cost. Once the DC becomes non-positive the scan advances; a
// channel that overdraws its account is penalised by the overdraft in
// its next round, hence "surplus" round robin.
//
// Fairness (Theorem 3.2 / Lemma 3.3): after any K rounds the difference
// between K·Quantum_i and the bytes actually sent on channel i is
// bounded by Max + 2·Quantum, independent of K.
//
// SRR is not safe for concurrent use; wrap it in the owning goroutine of
// a striper or resequencer.
type SRR struct {
	quanta []int64
	dc     []int64
	cost   CostModel
	cur    int
	round  uint64
	began  bool
	// disabled marks slots removed from the scan (dynamic membership);
	// activeN counts the survivors. The zero value (all enabled) keeps
	// static configurations on the original code path.
	disabled []bool
	activeN  int
}

// NewSRR returns a byte-denominated SRR over len(quanta) channels. For
// the Theorem 5.1 guarantee that no channel is ever passed over unserved
// (and therefore every marker period makes progress), choose each
// quantum at least as large as the maximum packet size.
func NewSRR(quanta []int64) (*SRR, error) {
	return newSRR(quanta, CostBytes)
}

// NewRR returns ordinary round robin over n channels: one packet per
// channel per round, regardless of packet sizes. It is the classic
// striping baseline whose poor load sharing with variable-length packets
// motivates the paper.
func NewRR(n int) (*SRR, error) {
	if n <= 0 {
		return nil, errNoChannels
	}
	quanta := make([]int64, n)
	for i := range quanta {
		quanta[i] = 1
	}
	return newSRR(quanta, CostPackets)
}

// NewGRR returns generalized round robin: channel i carries counts[i]
// consecutive packets per round, approximating a bandwidth ratio with
// packet counts. It ignores packet sizes, which is exactly the weakness
// the Section 6.2 adversarial workload exposes.
func NewGRR(counts []int64) (*SRR, error) {
	return newSRR(counts, CostPackets)
}

func newSRR(quanta []int64, cost CostModel) (*SRR, error) {
	if err := validateQuanta(quanta); err != nil {
		return nil, err
	}
	return &SRR{
		quanta:   append([]int64(nil), quanta...),
		dc:       make([]int64, len(quanta)),
		cost:     cost,
		disabled: make([]bool, len(quanta)),
		activeN:  len(quanta),
	}, nil
}

// MustSRR is NewSRR that panics on invalid quanta; for tests and
// examples with literal configuration.
func MustSRR(quanta []int64) *SRR {
	s, err := NewSRR(quanta)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of channels.
func (s *SRR) N() int { return len(s.quanta) }

// Quanta returns a copy of the per-channel quanta.
func (s *SRR) Quanta() []int64 { return append([]int64(nil), s.quanta...) }

// Cost returns the scheduler's cost model.
func (s *SRR) Cost() CostModel { return s.cost }

func (s *SRR) costOf(size int) int64 {
	if s.cost == CostPackets {
		return 1
	}
	return int64(size)
}

// CostOf implements RoundBased under the scheduler's cost model: bytes
// for SRR, one unit for the RR/GRR baselines.
//
//stripe:hotpath
func (s *SRR) CostOf(size int) int64 { return s.costOf(size) }

// Select implements Scheduler; it is SelectFor with no skip rule.
//
//stripe:hotpath
func (s *SRR) Select() int { return s.SelectFor(nil) }

// SelectFor implements RoundBased. It walks the round-robin scan until
// it finds a channel whose freshly credited deficit counter permits
// service, consulting skip (if non-nil) before crediting each candidate.
//
//stripe:hotpath
func (s *SRR) SelectFor(skip func(c int) bool) int {
	for {
		if !s.began {
			if s.disabled[s.cur] {
				// A removed slot is passed over without its quantum;
				// callers must not call Select with no enabled slots.
				s.advance()
				continue
			}
			if skip != nil && skip(s.cur) {
				s.advance()
				continue
			}
			s.dc[s.cur] += s.quanta[s.cur]
			s.began = true
		}
		if s.dc[s.cur] > 0 {
			return s.cur
		}
		// The fresh quantum did not clear the overdraft: the channel is
		// penalised by losing this round's service entirely.
		s.advance()
	}
}

// Account implements Scheduler. It must follow a Select (or SelectFor)
// that returned the channel the packet was sent on.
//
//stripe:hotpath
func (s *SRR) Account(size int) {
	if !s.began {
		// Select was skipped; begin service implicitly so that
		// Select/Account pairs cannot be misordered into corruption.
		s.dc[s.cur] += s.quanta[s.cur]
		s.began = true
	}
	s.dc[s.cur] -= s.costOf(size)
	if s.dc[s.cur] <= 0 {
		s.advance()
	}
}

// AccountCost implements RoundBased. Under its precondition (the deficit
// stays positive through the run's interior) none of the skipped
// intermediate states could have advanced the scan.
//
//stripe:hotpath
func (s *SRR) AccountCost(cost int64) {
	if !s.began {
		s.dc[s.cur] += s.quanta[s.cur]
		s.began = true
	}
	s.dc[s.cur] -= cost
	if s.dc[s.cur] <= 0 {
		s.advance()
	}
}

func (s *SRR) advance() {
	s.began = false
	s.cur++
	if s.cur == len(s.quanta) {
		s.cur = 0
		s.round++
	}
}

// Skip advances past the current channel without granting its quantum
// or servicing it. It must only be called at a service boundary.
func (s *SRR) Skip() {
	if s.began {
		panic("sched: Skip mid-service")
	}
	s.advance()
}

// EndService ends the current channel's service immediately, advancing
// the scan pointer, regardless of the remaining deficit. The receiver
// uses it when a marker reveals that the sender has already moved past
// the channel (the receiver was servicing it "too long" because packets
// were lost).
func (s *SRR) EndService() {
	if s.began {
		s.advance()
	}
}

// QuantumOf returns channel c's quantum.
func (s *SRR) QuantumOf(c int) int64 { return s.quanta[c] }

// Round implements RoundBased.
func (s *SRR) Round() uint64 { return s.round }

// Current implements RoundBased.
func (s *SRR) Current() int { return s.cur }

// MidService implements RoundBased.
func (s *SRR) MidService() bool { return s.began }

// Deficit implements RoundBased.
func (s *SRR) Deficit(c int) int64 { return s.dc[c] }

// SetDeficit implements RoundBased.
func (s *SRR) SetDeficit(c int, d int64) { s.dc[c] = d }

// NextServiceRound implements RoundBased.
func (s *SRR) NextServiceRound(c int) uint64 {
	if c < s.cur {
		return s.round + 1
	}
	return s.round
}

// AdvanceRoundTo implements RoundBased.
func (s *SRR) AdvanceRoundTo(r uint64) {
	if s.began {
		panic("sched: AdvanceRoundTo mid-service")
	}
	if r > s.round {
		s.round = r
		s.cur = 0
	}
}

// SetEnabled implements Membership. Disabling retires the slot's
// deficit to zero (Theorem 3.2 accounting restarts from scratch if it
// rejoins) and, when the slot is mid-service, ends that service so the
// scan pointer never rests on a removed slot with its quantum granted.
func (s *SRR) SetEnabled(c int, on bool) {
	if s.disabled[c] == !on {
		return
	}
	if on {
		s.disabled[c] = false
		s.dc[c] = 0
		s.activeN++
		return
	}
	if s.began && s.cur == c {
		s.advance()
	}
	s.disabled[c] = true
	s.dc[c] = 0
	s.activeN--
}

// Enabled implements Membership.
func (s *SRR) Enabled(c int) bool { return !s.disabled[c] }

// ActiveN implements Membership.
func (s *SRR) ActiveN() int { return s.activeN }

// Snapshot implements Causal.
func (s *SRR) Snapshot() State {
	return State{
		Current:  s.cur,
		Round:    s.round,
		Began:    s.began,
		Deficits: append([]int64(nil), s.dc...),
		Disabled: append([]bool(nil), s.disabled...),
	}
}

// Restore implements Causal. A nil st.Disabled leaves the membership
// mask unchanged (see State.Disabled).
func (s *SRR) Restore(st State) {
	if len(st.Deficits) != len(s.dc) {
		panic(fmt.Sprintf("sched: Restore with %d deficits into %d-channel SRR", len(st.Deficits), len(s.dc)))
	}
	s.cur = st.Current
	s.round = st.Round
	s.began = st.Began
	copy(s.dc, st.Deficits)
	if st.Disabled != nil {
		if len(st.Disabled) != len(s.disabled) {
			panic(fmt.Sprintf("sched: Restore with %d-slot mask into %d-channel SRR", len(st.Disabled), len(s.disabled)))
		}
		copy(s.disabled, st.Disabled)
		s.activeN = 0
		for _, d := range s.disabled {
			if !d {
				s.activeN++
			}
		}
	}
}

// Reset reinitialises the automaton to its start state s0: all deficit
// counters zero, pointer at channel 0, round 0. Both ends run Reset when
// a Reset packet is exchanged (crash recovery, Section 5). Membership is
// deliberately preserved: the epoch restarts over the same physical link
// set, and both ends apply Reset with identical masks.
func (s *SRR) Reset() {
	for i := range s.dc {
		s.dc[i] = 0
	}
	s.cur = 0
	s.round = 0
	s.began = false
}

// Clone returns an independent copy of the automaton in the same state.
// The receiver of a striped group clones the sender's start-state
// automaton to run the logical-reception simulation.
func (s *SRR) Clone() *SRR {
	return &SRR{
		quanta:   append([]int64(nil), s.quanta...),
		dc:       append([]int64(nil), s.dc...),
		cost:     s.cost,
		cur:      s.cur,
		round:    s.round,
		began:    s.began,
		disabled: append([]bool(nil), s.disabled...),
		activeN:  s.activeN,
	}
}

var _ Membership = (*SRR)(nil)

var (
	_ Scheduler  = (*SRR)(nil)
	_ Causal     = (*SRR)(nil)
	_ RoundBased = (*SRR)(nil)
)
