package flowcontrol

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

func TestGateAdmitConsume(t *testing.T) {
	g, err := NewGate(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Admit(0, 1000) {
		t.Fatal("initial window not granted")
	}
	if g.Admit(0, 1001) {
		t.Fatal("over-window packet admitted")
	}
	g.Consume(0, 600)
	if g.Remaining(0) != 400 {
		t.Fatalf("remaining = %d, want 400", g.Remaining(0))
	}
	if g.Admit(0, 500) {
		t.Fatal("admitted beyond remaining credit")
	}
	if !g.Admit(1, 1000) {
		t.Fatal("channel 1's credit affected by channel 0")
	}
}

func TestGateGrantMonotone(t *testing.T) {
	g, _ := NewGate(1, 100)
	g.Consume(0, 80)
	if err := g.ApplyGrant(0, 150); err != nil {
		t.Fatal(err)
	}
	if g.Remaining(0) != 70 {
		t.Fatalf("remaining = %d, want 70", g.Remaining(0))
	}
	if err := g.ApplyGrant(0, 120); err != nil { // stale: ignored, not an error
		t.Fatal(err)
	}
	if g.Remaining(0) != 70 {
		t.Fatalf("stale grant changed credit to %d", g.Remaining(0))
	}
}

// TestGateApplyCredit is the wire path production runs: decode the
// credit packet (packet.CreditOf), then ApplyGrant.
func TestGateApplyCredit(t *testing.T) {
	g, _ := NewGate(2, 4096)
	g.Consume(1, 1000)
	cb, err := packet.CreditOf(packet.NewCredit(packet.CreditBlock{Channel: 1, Grant: 5096}))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyGrant(int(cb.Channel), int64(cb.Grant)); err != nil {
		t.Fatal(err)
	}
	if g.Remaining(1) != 4096 {
		t.Fatalf("remaining = %d", g.Remaining(1))
	}
	if _, err := packet.CreditOf(packet.NewDataSized(8)); err == nil {
		t.Fatal("data packet accepted as credit")
	}
}

// TestGateGuards pins the gate's wire-input validation: grants are
// untrusted, and a bad one must leave the credit table untouched.
func TestGateGuards(t *testing.T) {
	g, _ := NewGate(2, 100)
	if err := g.ApplyGrant(-1, 50); err == nil {
		t.Error("negative channel accepted")
	}
	if err := g.ApplyGrant(2, 50); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if err := g.ApplyGrant(0, -1); err == nil {
		t.Error("negative grant accepted")
	}
	// A receiver can never legitimately grant past sent + window: such a
	// grant is corrupt (or an overflowed cast) and must be refused, or a
	// single bad credit packet would let the sender overrun the peer's
	// buffers by an arbitrary amount.
	if err := g.ApplyGrant(0, 201); err == nil {
		t.Error("grant beyond sent+window accepted")
	}
	if err := g.ApplyGrant(0, int64(^uint64(0)>>1)); err == nil {
		t.Error("overflowing grant accepted")
	}
	for c := 0; c < 2; c++ {
		if g.Remaining(c) != 100 {
			t.Fatalf("rejected grants changed channel %d credit to %d", c, g.Remaining(c))
		}
	}
	// Exactly at the bound is legitimate (receiver consumed everything).
	g.Consume(0, 60)
	if err := g.ApplyGrant(0, 160); err != nil {
		t.Fatal(err)
	}
	if g.Remaining(0) != 100 {
		t.Fatalf("remaining = %d, want 100", g.Remaining(0))
	}
	// Defensive accessors and mutators.
	if g.Admit(-1, 10) || g.Admit(2, 10) || g.Admit(0, -1) {
		t.Error("bad Admit input admitted")
	}
	g.Consume(-1, 10)
	g.Consume(2, 10)
	g.Consume(0, -5)
	if g.Remaining(-1) != 0 || g.Remaining(2) != 0 || g.Sent(2) != 0 {
		t.Error("out-of-range accessor returned nonzero")
	}
	if g.Sent(0) != 60 {
		t.Fatalf("bad Consume input corrupted sent to %d", g.Sent(0))
	}
}

// TestManagerReconcile pins the grant math: floor = senderSent + W −
// buffered, folded monotonically so stale or duplicated marker positions
// are harmless, and grant = max(floor, released + W) where released is
// the receive ledger's delivered + marker-proven lost — the manager
// keeps no loss count of its own.
func TestManagerReconcile(t *testing.T) {
	delivered, lost := []int64{0, 0}, []int64{0, 0}
	m, err := NewManager(2, 1000, func(c int) int64 { return delivered[c] + lost[c] })
	if err != nil {
		t.Fatal(err)
	}
	// Sender put 5000 bytes on channel 0; 3800 arrived (1200 lost, which
	// the ledger records), 300 of those still buffered, 3500 delivered.
	delivered[0], lost[0] = 3500, 1200
	floor, err := m.Reconcile(0, 5000, 3800, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Grant = max(floor, released+W): floor = 5000+1000−300 = 5700,
	// released path = 3500+1200+1000 = 5700. They agree at the marker.
	if got := m.GrantFor(0); floor != 5700 || got != 5700 {
		t.Fatalf("floor = %d, grant = %d, want 5700", floor, got)
	}
	// The application drains the 300 buffered bytes: the released path
	// moves the grant past the floor.
	delivered[0] = 3800
	if got := m.GrantFor(0); got != 6000 {
		t.Fatalf("grant = %d, want 6000", got)
	}
	// A stale (duplicated or reordered) position is a no-op.
	floor, err = m.Reconcile(0, 4000, 3800, 0)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 5700 || m.GrantFor(0) != 6000 {
		t.Fatalf("stale position changed state: floor=%d grant=%d", floor, m.GrantFor(0))
	}
	// Guards.
	if _, err := m.Reconcile(2, 0, 0, 0); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if _, err := m.Reconcile(0, -1, 0, 0); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := m.Reconcile(0, 100, 10, 20); err == nil {
		t.Error("more bytes buffered than arrived accepted")
	}
	if m.GrantFor(9) != 0 {
		t.Error("out-of-range accessor returned nonzero")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewGate(0, 10); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewGate(1, -1); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewManager(0, 10, func(int) int64 { return 0 }); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewManager(1, 0, func(int) int64 { return 0 }); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewManager(1, 10, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestManagerGrants(t *testing.T) {
	delivered := []int64{0, 0}
	m, err := NewManager(2, 1000, func(c int) int64 { return delivered[c] })
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GrantFor(0); got != 1000 {
		t.Fatalf("initial grant = %d", got)
	}
	delivered[0] = 700
	if got := m.GrantFor(0); got != 1700 {
		t.Fatalf("grant = %d, want 1700", got)
	}
}

// TestCreditsBoundBufferOccupancy is the end-to-end invariant: with
// grant = delivered + W, the receive buffer can never hold more than W
// bytes per channel, so a W-byte buffer never overflows.
func TestCreditsBoundBufferOccupancy(t *testing.T) {
	const window = 4 * 1024
	quanta := []int64{1500, 1500}
	g := channel.NewGroup(2, channel.Impairments{})
	gate, _ := NewGate(2, window)
	st, err := core.NewStriper(core.StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Gate:     gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.NewResequencer(core.ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  core.ModeLogical,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _ := NewManager(2, window, rs.DeliveredBytesOn)

	// Drive a slow consumer: one delivery for every three send attempts.
	sent, blocked := 0, 0
	for i := 0; i < 3000; i++ {
		p := packet.NewDataSized(1000)
		switch err := st.Send(p); err {
		case nil:
			sent++
		case core.ErrGated:
			blocked++
		default:
			t.Fatal(err)
		}
		// Move arrivals to the receiver.
		for c, q := range g.Queues {
			if pkt, ok := q.Recv(); ok {
				rs.Arrive(c, pkt)
			}
		}
		// Slow consumption.
		if i%3 == 0 {
			rs.Next()
		}
		// The invariant: bytes arrived on c but not yet delivered never
		// exceed the window.
		for c := 0; c < 2; c++ {
			occupancy := g.Queues[c].Stats().DeliveredBytes - rs.DeliveredBytesOn(c)
			if occupancy > window {
				t.Fatalf("channel %d buffer occupancy %d exceeds window %d", c, occupancy, window)
			}
		}
		// Credits at marker cadence.
		if i%10 == 0 {
			for c := 0; c < 2; c++ {
				gate.ApplyGrant(c, mgr.GrantFor(c))
			}
		}
	}
	if blocked == 0 {
		t.Fatal("flow control never engaged despite a slow consumer")
	}
	if sent == 0 {
		t.Fatal("nothing was sent")
	}
}
