package flowcontrol

import (
	"testing"

	"stripe/internal/packet"
)

// FuzzApplyGrant hardens the wire-facing credit validation. Grants
// arrive as attacker-controlled packet fields, so no sequence of
// grants — in range, stale, negative-after-cast, or for a channel that
// does not exist — may panic, corrupt the credit table, or break the
// occupancy invariant grant <= sent + window that bounds receive-buffer
// memory.
func FuzzApplyGrant(f *testing.F) {
	f.Add(uint32(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint32(1), uint64(4096), uint64(8192), uint16(1500))
	f.Add(uint32(3), uint64(1)<<63, ^uint64(0), uint16(9000)) // negative after the int64 cast
	f.Add(uint32(9), uint64(1)<<62, uint64(1)<<62+1, uint16(100))
	f.Fuzz(func(t *testing.T, ch uint32, g1, g2 uint64, consumed uint16) {
		const n = 4
		const window = int64(65536)
		gate, err := NewGate(n, window)
		if err != nil {
			t.Fatal(err)
		}
		c := int(int32(ch)) // exercise negative and out-of-range channels
		gate.Consume(c, int(consumed))

		invariant := func() {
			for i := 0; i < n; i++ {
				if gate.Remaining(i) > window {
					t.Fatalf("channel %d: remaining %d exceeds window %d (grant ran past sent + window)",
						i, gate.Remaining(i), window)
				}
			}
		}
		snapshot := func() [n][2]int64 {
			var s [n][2]int64
			for i := 0; i < n; i++ {
				s[i] = [2]int64{gate.Sent(i), gate.Remaining(i)}
			}
			return s
		}

		before := snapshot()
		err1 := gate.ApplyGrant(c, int64(g1))
		invariant()
		if err1 != nil && snapshot() != before {
			t.Fatalf("rejected grant (%v) still changed the table: %v -> %v", err1, before, snapshot())
		}
		if err1 == nil && 0 <= c && c < n && gate.Remaining(c) < before[c][1] {
			t.Fatalf("accepted grant lowered channel %d remaining %d -> %d (grants must be monotone)",
				c, before[c][1], gate.Remaining(c))
		}

		// The same grants through the wire path: encode, decode, apply the
		// decoded values — what the resequencer's consumeCredit and the
		// session's grant hook do between them.
		before = snapshot()
		cb, err := packet.CreditOf(packet.NewCredit(packet.CreditBlock{Channel: ch, Grant: g2}))
		if err != nil {
			t.Fatalf("credit block did not survive its own codec: %v", err)
		}
		// Grant is validated below 2^63 by ApplyGrant, which rejects the
		// negative values a wrapped conversion produces.
		if err := gate.ApplyGrant(int(cb.Channel), int64(cb.Grant)); err != nil && snapshot() != before {
			t.Fatalf("rejected credit packet (%v) still changed the table", err)
		}
		invariant()
	})
}
