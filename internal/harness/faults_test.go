package harness

import (
	"testing"

	"stripe/internal/obs"
)

// TestCreditStallRedThenGreen is the regression for the credit-leak
// pathology: grants keyed to delivered bytes alone wedge the sender
// permanently once cumulative loss passes the window, and
// marker-position reconciliation removes the wedge under the identical
// fault schedule.
func TestCreditStallRedThenGreen(t *testing.T) {
	const window = 16 * 1024
	const bufCap = 256
	const total = 2500 // ~1.75MB: cumulative loss at 20% far exceeds the window
	plan := DefaultFaultPlan(4)

	red := RunFaults(plan, 42, window, bufCap, total, false, nil)
	if !red.Stalled {
		t.Fatalf("delivered-byte grants did not stall under 20%% loss: %+v", red)
	}
	if red.Sent >= total {
		t.Fatalf("red run completed despite the credit leak: %+v", red)
	}

	green := RunFaults(plan, 42, window, bufCap, total, true, nil)
	if green.Stalled {
		t.Fatalf("reconciled grants stalled: %+v", green)
	}
	if green.Sent != total {
		t.Fatalf("reconciled run sent %d of %d", green.Sent, total)
	}
	if green.LostReconciled == 0 {
		t.Fatal("no bytes were written off despite 20% loss")
	}
	// Gated streaks must clear within roughly one marker/credit cycle:
	// the refresh period is 16 iterations, so a streak orders of
	// magnitude longer would mean credits are leaking again.
	if green.MaxGatedStreak > 500 {
		t.Fatalf("max gated streak %d: credits are not self-healing", green.MaxGatedStreak)
	}
}

// TestJitterReordersButPreservesDelivery checks the FaultPlan delay
// jitter: packets on a jittery channel are delayed but stay FIFO within
// the channel, so the run still completes and delivers everything —
// while the cross-channel reordering forces the resequencer to buffer
// visibly more than the smooth run.
func TestJitterReordersButPreservesDelivery(t *testing.T) {
	const total = 1500
	mk := func(jit int) FaultPlan {
		plan := FaultPlan{Channels: make([]ChannelFaults, 4)}
		plan.Channels[2].Jitter = jit
		return plan
	}
	smooth := RunFaults(mk(0), 11, 16*1024, 256, total, true, nil)
	jittery := RunFaults(mk(12), 11, 16*1024, 256, total, true, nil)

	if jittery.Stalled || jittery.Sent != total {
		t.Fatalf("jittery run did not complete: %+v", jittery)
	}
	if jittery.Delivered != smooth.Delivered {
		t.Fatalf("jitter changed delivery count: smooth %d, jittery %d",
			smooth.Delivered, jittery.Delivered)
	}
	if jittery.Overflows != 0 {
		t.Fatalf("jitter alone overflowed the resequencer: %+v", jittery)
	}
	if jittery.MaxBuffered <= smooth.MaxBuffered {
		t.Fatalf("jitter did not reorder across channels: high-water %d vs smooth %d",
			jittery.MaxBuffered, smooth.MaxBuffered)
	}
}

// TestFaultsAcceptance is the issue's acceptance run, verified through
// the observability counters: 20% per-channel loss over traffic an
// order of magnitude past the credit window, zero permanent credit
// stalls, and resequencer occupancy bounded by the configured cap (the
// hard bound is twice the soft cap, at which point arrivals drop).
func TestFaultsAcceptance(t *testing.T) {
	const nch = 4
	const window = 16 * 1024
	const bufCap = 128
	const total = 3000 // ~2.1MB >> 10x window

	col := obs.NewCollector(nch)
	rep := RunFaults(DefaultFaultPlan(nch), 7, window, bufCap, total, true, col)
	if rep.Stalled {
		t.Fatalf("permanent credit stall: %+v", rep)
	}
	if rep.Sent != total {
		t.Fatalf("sent %d of %d", rep.Sent, total)
	}
	if rep.MaxBuffered > 2*bufCap {
		t.Fatalf("resequencer occupancy %d exceeded the hard bound %d", rep.MaxBuffered, 2*bufCap)
	}

	snap := col.Snapshot()
	if snap.BufferedHighWater > 2*bufCap {
		t.Fatalf("obs high-water %d exceeded the hard bound %d", snap.BufferedHighWater, 2*bufCap)
	}
	var reconciles, lost int64
	for _, ch := range snap.Channels {
		reconciles += ch.Rx.LossMarkers
		lost += ch.Rx.LostBytes
	}
	if reconciles == 0 || lost == 0 {
		t.Fatalf("obs recorded no reconciliation (reconciles=%d lost=%d)", reconciles, lost)
	}
	if lost != rep.LostReconciled {
		t.Fatalf("obs lost bytes %d != manager lost bytes %d", lost, rep.LostReconciled)
	}
	if snap.CreditRejects != 0 {
		t.Fatalf("%d legitimate grants were rejected by the gate", snap.CreditRejects)
	}
}
