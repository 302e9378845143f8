// Package flowcontrol implements the credit-based, per-channel flow
// control scheme the paper adopted for channels that provide none of
// their own (Section 6.3), following Kung and Chapman's flow-controlled
// virtual channels (FCVC): the receiver grants cumulative byte credits
// per channel, and the sender never lets a channel's cumulative sent
// bytes exceed its grant. With the grant set to consumed-bytes + W, at
// most W bytes can ever occupy the channel plus the receive buffer, so
// a receive buffer of W bytes cannot overflow — eliminating congestion
// loss entirely.
//
// # Loss-resilient reconciliation
//
// Keying grants to *delivered* bytes alone leaks window over lossy
// channels: a byte lost in flight is never delivered, so the receiver's
// grant stops W bytes past it and the sender stalls permanently once
// cumulative loss reaches W. The fix is to reconcile from the sender's
// own position: every marker carries the cumulative bytes the sender
// has put on the channel (MarkerBlock.Sent). Because channels are FIFO,
// everything sent before the marker has either arrived or is lost by
// the time the marker arrives, so the receiver computes the exact
// cumulative loss L = Sent − arrived and grants a window past
// arrived − buffered + L: the receive ledger's released position
// (core.Resequencer.ReleasedBytesOn, where the arithmetic and the
// reasons it suffices are). Lost bytes are thereby granted back
// automatically — the credit table is self-healing after any loss
// burst — while the occupancy invariant is preserved: the sender's
// unacked-but-not-lost bytes (in flight plus buffered) still never
// exceed W.
//
// Credits travel on the reverse path as Credit packets, and the paper
// notes they piggyback naturally on the periodic marker traffic; the
// session does both (DESIGN.md, "Credit return"). What a session uses of
// this package is the Gate; the Manager below is an earlier receiver-side
// issuer that only bench/'s flowcontrol.grant ladder row still calls, and
// it goes when the next benchmark PR rewrites that row.
package flowcontrol

import "fmt"

// Gate is the sender-side credit table. It implements core.Gate. It is
// a pure state machine; synchronise externally if shared.
type Gate struct {
	sent   []int64
	grant  []int64
	window int64
	// retired marks channels torn down by dynamic membership: they admit
	// nothing, their outstanding credit has been returned, and incoming
	// grants are ignored until Readmit. Counters stay cumulative across
	// retirement so a rejoin reconciles from the same byte positions.
	retired []bool
}

// NewGate returns a gate for n channels with an initial window of w
// bytes on each (the receiver's initial buffer grant).
func NewGate(n int, w int64) (*Gate, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flowcontrol: need positive channel count, got %d", n)
	}
	if w < 0 {
		return nil, fmt.Errorf("flowcontrol: negative initial window %d", w)
	}
	g := &Gate{sent: make([]int64, n), grant: make([]int64, n), window: w, retired: make([]bool, n)}
	for i := range g.grant {
		g.grant[i] = w
	}
	return g, nil
}

// Retire tears down channel c's credit account when it leaves the
// stripe, returning the outstanding (granted-but-unused) credit so the
// caller can account for it. After Retire the channel admits nothing
// and incoming grants for it are silently ignored (the peer keeps
// granting until its own membership view catches up — those grants are
// stale by definition, not errors). The cumulative sent counter is
// preserved: it is the position a rejoin reconciles from.
func (g *Gate) Retire(c int) int64 {
	if c < 0 || c >= len(g.grant) || g.retired[c] {
		return 0
	}
	outstanding := g.grant[c] - g.sent[c]
	// Clamp the grant to the sent position: the account closes with zero
	// debt, so credit-conservation checks stay clean across teardown.
	g.grant[c] = g.sent[c]
	g.retired[c] = true
	return outstanding
}

// Readmit reopens channel c's account with a fresh window above the
// preserved cumulative sent position. That is exactly the receiver's
// real capacity: its buffers for c drained at teardown, and bytes that
// died in flight are written off by the first marker reconciliation
// after the rejoin, so granting sent + W here cannot overflow the peer.
func (g *Gate) Readmit(c int) {
	if c < 0 || c >= len(g.grant) || !g.retired[c] {
		return
	}
	g.retired[c] = false
	g.grant[c] = g.sent[c] + g.window
}

// Retired reports whether channel c's account is torn down.
func (g *Gate) Retired(c int) bool {
	if c < 0 || c >= len(g.grant) {
		return false
	}
	return g.retired[c]
}

// Admit reports whether a packet of the given size fits channel c's
// remaining credit. Out-of-range channels admit nothing.
//
//stripe:hotpath
func (g *Gate) Admit(c int, size int) bool {
	if c < 0 || c >= len(g.grant) || size < 0 || g.retired[c] {
		return false
	}
	return g.sent[c]+int64(size) <= g.grant[c]
}

// Consume charges a transmitted packet against channel c's credit.
// Out-of-range channels and negative sizes are ignored: the gate never
// lets a bad caller corrupt the credit table.
//
//stripe:hotpath
func (g *Gate) Consume(c int, size int) {
	if c < 0 || c >= len(g.grant) || size < 0 {
		return
	}
	g.sent[c] += int64(size)
}

// ApplyGrant raises channel c's cumulative grant. Grants are monotone:
// a stale (lower) grant is ignored, so credit packets may be lost,
// reordered or duplicated without harm.
//
// Grants arrive off the wire, so they are validated rather than
// trusted: an out-of-range channel, a negative grant (a corrupt uint64
// cast), or a grant further ahead of the sender's position than the
// window permits (the receiver can never legitimately grant beyond
// sent + W, because everything it has consumed or written off as lost
// was first sent) returns an error and leaves the table untouched.
func (g *Gate) ApplyGrant(c int, grant int64) error {
	if c < 0 || c >= len(g.grant) {
		return fmt.Errorf("flowcontrol: grant for channel %d outside [0,%d)", c, len(g.grant))
	}
	if grant < 0 {
		return fmt.Errorf("flowcontrol: negative grant %d for channel %d", grant, c)
	}
	if grant > g.sent[c]+g.window {
		return fmt.Errorf("flowcontrol: grant %d for channel %d exceeds sent %d + window %d",
			grant, c, g.sent[c], g.window)
	}
	if g.retired[c] {
		// In-flight grants from before the peer learned of the teardown;
		// stale by definition, dropped without error.
		return nil
	}
	if grant > g.grant[c] {
		g.grant[c] = grant
	}
	return nil
}

// Remaining returns channel c's unused credit in bytes (zero for
// out-of-range channels).
func (g *Gate) Remaining(c int) int64 {
	if c < 0 || c >= len(g.grant) {
		return 0
	}
	return g.grant[c] - g.sent[c]
}

// Sent returns the cumulative bytes charged against channel c.
func (g *Gate) Sent(c int) int64 {
	if c < 0 || c >= len(g.sent) {
		return 0
	}
	return g.sent[c]
}

// Manager is the receiver-side credit issuer. It grants each channel a
// window of W bytes past the position the sender no longer occupies:
// bytes the receiver has consumed plus bytes written off as lost from
// marker-carried sender positions. It keeps no count of either — both
// are facts of the receive ledger, read through the released callback —
// only the monotone grant floor the marker positions establish. Its only
// caller is bench/'s flowcontrol.grant ladder row (sessions grant from
// Resequencer.ReleasedBytesOn directly, which makes the floor redundant);
// the next benchmark PR, the one allowed to edit bench/, deletes it.
type Manager struct {
	window   int64
	released func(c int) int64
	n        int
	floor    []int64 // monotone grant floor from sender-position reconciliation
}

// NewManager returns a manager granting a window of w bytes per channel
// above the position reported by the callback: the cumulative bytes on
// the channel that have left the pipeline for good, delivered plus
// marker-proven lost (Resequencer.ReleasedBytesOn). A callback reporting
// delivered bytes alone is the leaky scheme the package comment
// describes.
func NewManager(n int, w int64, released func(c int) int64) (*Manager, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flowcontrol: need positive channel count, got %d", n)
	}
	if w <= 0 {
		return nil, fmt.Errorf("flowcontrol: window must be positive, got %d", w)
	}
	if released == nil {
		return nil, fmt.Errorf("flowcontrol: nil released callback")
	}
	return &Manager{window: w, released: released, n: n, floor: make([]int64, n)}, nil
}

// Reconcile folds a marker-carried sender position into the grant floor
// for channel c and returns the floor now in force. senderSent is
// MarkerBlock.Sent; arrived and buffered are the receive ledger row's
// ArrivedBytes and BufferedBytes for the channel, read at the instant
// the marker arrived (the FIFO point at which in-flight bytes from
// before the marker are exactly zero). The loss the position proves,
// senderSent − arrived, is the ledger's to record (RecvChannel.LostBytes)
// and reaches the grant through the released callback; arrived is only
// checked for consistency here. Stale, duplicated or reordered marker
// positions are harmless: the floor is folded in with a monotone max.
func (m *Manager) Reconcile(c int, senderSent, arrived, buffered int64) (int64, error) {
	if c < 0 || c >= m.n {
		return 0, fmt.Errorf("flowcontrol: reconcile for channel %d outside [0,%d)", c, m.n)
	}
	if senderSent < 0 || buffered < 0 || arrived < buffered {
		return 0, fmt.Errorf("flowcontrol: inconsistent reconcile position (sent=%d arrived=%d buffered=%d)",
			senderSent, arrived, buffered)
	}
	// Grant floor: the sender may run W bytes past everything that has
	// left the pipeline, i.e. up to Sent + (W − buffered). Equivalent to
	// consumed + lost + W with consumed = arrived − buffered, which also
	// credits bytes the receiver dropped (old epochs, overflow) without
	// delivering.
	if f := senderSent + m.window - buffered; f > m.floor[c] {
		m.floor[c] = f
	}
	return m.floor[c], nil
}

// GrantFor returns the current cumulative grant for channel c: the
// larger of the reconciled floor and released + window (the latter
// keeps credits flowing between markers as the application drains the
// resequencer).
func (m *Manager) GrantFor(c int) int64 {
	if c < 0 || c >= m.n {
		return 0
	}
	g := m.released(c) + m.window
	if m.floor[c] > g {
		g = m.floor[c]
	}
	return g
}
