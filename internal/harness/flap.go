package harness

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stripe"
	"stripe/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "flap",
		Title: "Channel flap: kill and restore links mid-transfer, FIFO and credits intact",
		Run:   runFlap,
	})
}

// killableLink wraps a channel transport with a cut switch. While cut,
// sends fail at the transmit side (the health monitor's error-streak
// signal) and the receive pump discards whatever was in flight — the
// full semantics of a dead link, not just a silent one.
type killableLink struct {
	inner stripe.ChannelSender
	dead  atomic.Bool
}

func (k *killableLink) Send(p *stripe.Packet) error {
	if k.dead.Load() {
		return errLinkDown
	}
	return k.inner.Send(p)
}

var errLinkDown = fmt.Errorf("harness: link down")

// FlapReport is the outcome of one channel-flap run.
type FlapReport struct {
	Total        int   // data packets the sender pushed in
	Delivered    int   // data packets the receiver handed up
	FIFOBreaks   int   // deliveries whose payload index did not increase (must be 0)
	LostInFlight int   // data packets the dead link destroyed in transit
	DeclaredLost int64 // data packets the receiver wrote off at retirement
	Evictions    int64 // health-monitor evictions on the sender's end
	Reinstates   int64 // probe-driven reinstatements on the sender's end
	Violations   int64 // invariant-checker findings across both ends (must be 0)
	Reinstated   bool  // the killed channel returned to the live set
	Completed    bool  // every packet was delivered or accounted as lost
}

// Accounted reports how many of the Total packets have a known fate.
func (r FlapReport) Accounted() int {
	return r.Delivered + r.LostInFlight + int(r.DeclaredLost)
}

// RunFlap drives a full duplex session pair across three channels and
// flaps the membership mid-transfer: channel 1's link is cut (the
// sender's error streak must evict it and the survivors carry on),
// later restored (liveness probes must reinstate it), and channel 2 is
// gracefully removed and re-added through the public API. Throughout,
// delivery must stay FIFO (payload indexes strictly increasing), every
// packet must end up delivered or accounted as lost, and the credit
// invariant checker on both ends must stay silent — eviction returns a
// channel's outstanding grant instead of leaking it.
func RunFlap(seed int64, total int) FlapReport {
	const nch = 3
	const flapCh = 1
	const window = 16 * 1024
	quanta := stripe.UniformQuanta(nch, 1500)

	colA := stripe.NewNamedCollector("flap-a", nch)
	colB := stripe.NewNamedCollector("flap-b", nch)
	colA.SetChecker(stripe.NewChecker())
	colB.SetChecker(stripe.NewChecker())

	mk := func(base int64) []*stripe.LocalChannel {
		chs := make([]*stripe.LocalChannel, nch)
		for i := range chs {
			chs[i] = stripe.NewLocalChannel(stripe.LocalChannelConfig{
				Delay: 200 * time.Microsecond,
				Seed:  base + int64(i)*7919,
			})
		}
		return chs
	}
	a2b, b2a := mk(seed), mk(seed+104729)

	link := &killableLink{inner: a2b[flapCh]}
	txA := make([]stripe.ChannelSender, nch)
	txB := make([]stripe.ChannelSender, nch)
	for i := 0; i < nch; i++ {
		txA[i], txB[i] = a2b[i], b2a[i]
	}
	txA[flapCh] = link

	cfg := func(col *stripe.Collector) stripe.SessionConfig {
		return stripe.SessionConfig{
			Config:         stripe.Config{Quanta: quanta, Mode: stripe.ModeLogical, Collector: col},
			CreditWindow:   window,
			MarkerInterval: 2 * time.Millisecond,
			Health:         stripe.HealthConfig{EvictAfter: 4, ReinstateAfter: 2},
		}
	}
	a, err := stripe.NewSession(txA, cfg(colA))
	if err != nil {
		panic(err)
	}
	b, err := stripe.NewSession(txB, cfg(colB))
	if err != nil {
		panic(err)
	}

	// Pumps. The dead link destroys in-flight traffic: while cut, the
	// A→B pump on the flapped channel discards instead of delivering.
	var lostInFlight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nch; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for p := range a2b[i].Out() {
				if i == flapCh && link.dead.Load() {
					if p.Kind == stripe.KindData {
						lostInFlight.Add(1)
					}
					continue
				}
				b.Arrive(i, p)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for p := range b2a[i].Out() {
				a.Arrive(i, p)
			}
		}(i)
	}

	// Consumer: payload indexes must be strictly increasing — gaps are
	// losses, regressions are FIFO violations.
	rep := FlapReport{Total: total}
	var delivered atomic.Int64
	var fifoBreaks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			delivered.Add(1)
		}
	}()

	// waitState polls for a transmit-side lifecycle transition; the
	// marker timer drives eviction sweeps and probes, so these settle in
	// a few ticks.
	waitState := func(c int, want stripe.MemberState) bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if tx, _ := a.ChannelState(c); tx == want {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	send := func(i int) {
		// Data wraps the payload without copying, so each packet needs
		// its own backing array while it sits in channel queues.
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			panic(fmt.Sprintf("send %d: %v", i, err))
		}
	}
	for i := 0; i < total; i++ {
		switch {
		case i == total/4:
			// Cut the link cold. The next sends the scheduler lands on it
			// fail, the error streak trips, and the health monitor evicts.
			link.dead.Store(true)
		case i == total/2:
			// Restore the link and wait out the probe streak so the
			// reinstatement is observable before the graceful flap below.
			link.dead.Store(false)
			rep.Reinstated = waitState(flapCh, stripe.MemberActive)
		case i == 5*total/8:
			if err := a.RemoveChannel(2); err != nil {
				panic(err)
			}
		case i == 3*total/4:
			if err := a.AddChannel(2, nil); err != nil {
				panic(err)
			}
		}
		send(i)
	}

	// Completion: every packet sent is delivered or has a counted fate
	// (destroyed in flight, or written off by the receiver at
	// retirement). The marker timer keeps credits and announcements
	// moving while the tail drains.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		bs := b.Stats()
		rep.Delivered = int(delivered.Load())
		rep.LostInFlight = int(lostInFlight.Load())
		rep.DeclaredLost = bs.MemberLost + bs.MemberDrops
		if rep.Accounted() >= total {
			rep.Completed = true
			break
		}
		time.Sleep(time.Millisecond)
	}

	snapA, snapB := a.Snapshot(), b.Snapshot()
	a.Close()
	b.Close()
	for i := 0; i < nch; i++ {
		a2b[i].Close()
		b2a[i].Close()
	}
	wg.Wait()
	<-done

	rep.FIFOBreaks = int(fifoBreaks.Load())
	for _, cs := range snapA.Channels {
		rep.Evictions += cs.MemberEvictions
		rep.Reinstates += cs.MemberReinstates
	}
	rep.Violations = snapA.InvariantViolations + snapB.InvariantViolations
	return rep
}

// runFlap regenerates the dynamic-membership acceptance scenario: a
// three-channel session survives a link cut (auto-eviction), a probe
// reinstatement, and a graceful remove/re-add, all mid-transfer, with
// FIFO delivery intact and zero credit leak; plus a correlated-outage
// fault run in which 2 of 4 channels go dark simultaneously and the
// stream still completes with bounded buffers.
func runFlap(cfg Config) *Result {
	total := 6000
	if cfg.Quick {
		total = 1500
	}
	rep := RunFlap(cfg.Seed, total)

	// Correlated outages: same striper/resequencer fault driver as the
	// faults experiment, but with shared-fate windows where half the
	// channels are down at once.
	const nch = 4
	const window = 16 * 1024
	const bufCap = 256
	ftotal := 4000
	if cfg.Quick {
		ftotal = 1200
	}
	corr := RunFaults(CorrelatedFaultPlan(nch, 2), cfg.Seed+1, window, bufCap, ftotal, true, nil)

	var bld strings.Builder
	fmt.Fprintln(&bld, "# Channel flap: 3-channel duplex session; link 1 cut at 25% (evicted),")
	fmt.Fprintln(&bld, "# restored at 50% (reinstated by probes); channel 2 gracefully removed")
	fmt.Fprintln(&bld, "# at 62% and re-added at 75%. FIFO = payload indexes strictly increase.")
	fmt.Fprintln(&bld, row("metric", "value", "requirement"))
	fmt.Fprintln(&bld, row("delivered", fmt.Sprintf("%d/%d", rep.Delivered, rep.Total), ""))
	fmt.Fprintln(&bld, row("accounted (delivered+lost)", fmt.Sprintf("%d/%d", rep.Accounted(), rep.Total), "== total"))
	fmt.Fprintln(&bld, row("lost in flight / declared", fmt.Sprintf("%d / %d", rep.LostInFlight, rep.DeclaredLost), ""))
	fmt.Fprintln(&bld, row("FIFO violations", fmt.Sprintf("%d", rep.FIFOBreaks), "== 0"))
	fmt.Fprintln(&bld, row("evictions / reinstates", fmt.Sprintf("%d / %d", rep.Evictions, rep.Reinstates), ">= 1 each"))
	fmt.Fprintln(&bld, row("credit/invariant violations", fmt.Sprintf("%d", rep.Violations), "== 0"))
	fmt.Fprintln(&bld, row("completed", fmt.Sprintf("%v", rep.Completed), "true"))
	fmt.Fprintln(&bld, "\n# Correlated outages: 4 channels at 20% loss, two windows with 2 of 4")
	fmt.Fprintln(&bld, "# channels down simultaneously, reconciled credits.")
	fmt.Fprintln(&bld, row("", "sent", "stalled", "max gated streak", "reseq high-water"))
	fmt.Fprintln(&bld, row("2-of-4 shared fate",
		fmt.Sprintf("%d/%d", corr.Sent, corr.Target),
		fmt.Sprintf("%v", corr.Stalled),
		fmt.Sprintf("%d", corr.MaxGatedStreak),
		fmt.Sprintf("%d", corr.MaxBuffered)))

	tb := &stats.Table{Title: "Channel flap accounting", XLabel: "metric(0=delivered,1=accounted,2=total)", YLabel: "packets", X: []float64{0, 1, 2}}
	tb.AddColumn("packets", []float64{float64(rep.Delivered), float64(rep.Accounted()), float64(rep.Total)})
	return &Result{ID: "flap", Title: "Dynamic membership under link flaps", Text: bld.String(), Tables: []*stats.Table{tb},
		Violations: rep.Violations}
}
