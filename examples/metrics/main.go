// Live observability: a duplex striped session under the Figure 15
// workload (random bimodal mixture of 200 B and 1000 B packets) with
// the runtime metrics endpoint serving throughout.
//
//	go run ./examples/metrics            # serve on a random port for 3s
//	go run ./examples/metrics -addr :9090 -d 30s
//
// While it runs:
//
//	curl localhost:PORT/metrics          # Prometheus text format
//	curl localhost:PORT/debug/stripe/health   # the same ledger rows as JSON
//	go tool pprof localhost:PORT/debug/pprof/profile?seconds=5
//
// The interesting metric is the live fairness gauge: the paper's
// Theorem 3.2 guarantees |K*Quantum_i - bytes_i| <= Max + 2*Quantum on
// every prefix, and the endpoint exposes both sides of the inequality
// (stripe_fairness_discrepancy_bytes vs stripe_fairness_bound_bytes),
// so a violation would be visible on a dashboard, not just in a test.
// At exit the example scrapes its own endpoint and verifies the bound.
//
// The lossy channels also make the credit machinery visible: every
// marker carries the sender's byte position, so bob writes dropped
// bytes off as lost and grants them back, and alice's
// stripe_credit_remaining_bytes saw-tooths instead of draining to zero
// (stripe_credit_lost_bytes_total counts what reconciliation
// reclaimed). Before grants were reconciled this example stalled for
// good a couple of seconds in — the pathology the endpoint was built
// to make visible, now the fix it demonstrates.
//
// A lifecycle tracer shared by both ends adds sampled latency
// histograms (stripe_latency_* under /metrics, chrome://tracing JSON
// under /debug/stripe/trace), an invariant checker asserts the
// theorems on every flush, and a flight recorder stands by to dump the
// event history if an anomaly trips; the exit report prints the
// latency quantiles and both verdicts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stripe"
)

func sumBlocked(s stripe.Snapshot) (n int64) {
	for _, c := range s.Channels {
		n += c.Tx.BlockedSends
	}
	return n
}

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:0", "metrics listen address")
		dur  = flag.Duration("d", 3*time.Second, "how long to run the workload")
		loss = flag.Float64("loss", 0.05, "channel loss probability (drives resync metrics)")
	)
	flag.Parse()

	// One collector per session end: alice's carries the transmit-side
	// fairness gauge for the lossy direction, bob's the receive-side
	// resync/skip/buffer metrics for the same traffic.
	const nch = 2
	colA := stripe.NewNamedCollector("alice", nch)
	colB := stripe.NewNamedCollector("bob", nch)
	events := stripe.NewRingSink(32)
	colB.AddSink(events)

	// One lifecycle tracer shared by both ends (default 1-in-16
	// sampling): alice's striper stamps the transmit stages, bob's
	// resequencer the receive stages, and the latency histograms show
	// up under /metrics and /debug/stripe/trace.
	tracer := stripe.NewTracer(stripe.TracerConfig{})
	colA.SetTracer(tracer)
	colB.SetTracer(tracer)
	// The invariant checker asserts Theorem 3.2 and credit conservation
	// on every flush; the flight recorder dumps the event history when
	// an anomaly (or a checker finding) trips.
	checker := stripe.NewChecker()
	colA.SetChecker(checker)
	recorder := stripe.NewFlightRecorder(colA, stripe.FlightRecorderConfig{})
	colA.AddSink(recorder)
	// Windowed rollups on both ends: counter deltas fold into short
	// windows on the engine flush, giving per-channel rates, loss
	// fractions, and 0-100 health scores at /debug/stripe/health and as
	// stripe_channel_health / stripe_*_rate gauges under /metrics.
	wcfg := stripe.WindowConfig{
		Tick:  250 * time.Millisecond,
		Spans: []time.Duration{time.Second, 10 * time.Second},
	}
	stripe.NewWindows(colA, wcfg)
	stripe.NewWindows(colB, wcfg)

	cfg := stripe.SessionConfig{
		Config: stripe.Config{
			Quanta:    stripe.UniformQuanta(nch, 1500),
			Markers:   stripe.MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
		},
		CreditWindow:   32 * 1024,
		MarkerInterval: 5 * time.Millisecond,
	}
	backCfg := cfg
	backCfg.Collector = colB

	srv, err := stripe.Serve(*addr, colA, colB)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving http://%s/metrics, /debug/stripe/health, /debug/pprof/ for %v\n", srv.Addr(), *dur)

	// Two directions of lossy in-process channels. Only the forward
	// direction (alice -> bob) is instrumented.
	mkDirection := func(c *stripe.Collector, lossP float64) ([]stripe.ChannelSender, []*stripe.LocalChannel) {
		send := make([]stripe.ChannelSender, nch)
		recv := make([]*stripe.LocalChannel, nch)
		for i := 0; i < nch; i++ {
			ch := stripe.NewLocalChannel(stripe.LocalChannelConfig{
				Loss:      lossP,
				Seed:      int64(i + 1),
				Collector: c,
				Index:     i,
			})
			send[i], recv[i] = ch, ch
		}
		return send, recv
	}
	abSend, abRecv := mkDirection(colA, *loss)
	baSend, baRecv := mkDirection(nil, 0)

	alice, err := stripe.NewSession(abSend, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := stripe.NewSession(baSend, backCfg)
	if err != nil {
		log.Fatal(err)
	}

	stop := make(chan struct{})
	var pumps sync.WaitGroup
	pump := func(recv []*stripe.LocalChannel, dst *stripe.Session) {
		for i, rc := range recv {
			pumps.Add(1)
			go func(i int, rc *stripe.LocalChannel) {
				defer pumps.Done()
				for {
					select {
					case <-stop:
						return
					case p, ok := <-rc.Out():
						if !ok {
							return
						}
						dst.Arrive(i, p)
					}
				}
			}(i, rc)
		}
	}
	pump(abRecv, bob)
	pump(baRecv, alice)

	// Figure 15 workload: equiprobable 200 B / 1000 B packets.
	rng := rand.New(rand.NewSource(1))
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			size := 200
			if rng.Intn(2) == 1 {
				size = 1000
			}
			if err := alice.SendBytes(make([]byte, size)); err != nil {
				return
			}
		}
	}()
	go func() { // bob drains
		for {
			if bob.Recv() == nil {
				return
			}
		}
	}()
	go func() { // alice drains the (marker-only) reverse direction
		for {
			if alice.Recv() == nil {
				return
			}
		}
	}()

	time.Sleep(*dur)
	close(stop)
	alice.Close()
	bob.Close()
	pumps.Wait()

	// Self-scrape: fetch the endpoint like any monitoring agent would
	// and check the fairness invariant from the exposition alone.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	vals := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	fmt.Println("\nkey samples from /metrics:")
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "stripe_") {
			continue
		}
		for _, want := range []string{
			"stripe_channel_bytes_total", "stripe_markers_total",
			"stripe_resync_events_total", "stripe_fairness_",
			"stripe_reseq_buffered_high_water", "stripe_channel_lost_packets_total",
			"stripe_channel_health", "stripe_channel_loss_rate",
		} {
			if strings.HasPrefix(line, want) {
				fmt.Println("  " + line)
			}
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
				vals[line[:i]] = v
			}
		}
	}
	disc := vals[`stripe_fairness_discrepancy_bytes{session="alice"}`]
	bound := vals[`stripe_fairness_bound_bytes{session="alice"}`]
	fmt.Printf("\nfairness: |K*Quantum - bytes| = %d <= bound %d (Theorem 3.2): %v\n",
		disc, bound, disc <= bound)

	// The windowed health view, fetched the way stripetop does.
	hresp, err := http.Get("http://" + srv.Addr() + "/debug/stripe/health")
	if err != nil {
		log.Fatal(err)
	}
	var health struct{ Sessions []stripe.HealthReport }
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	hresp.Body.Close()
	fmt.Println("windowed health (/debug/stripe/health):")
	for _, s := range health.Sessions {
		if s.Windows == nil {
			continue
		}
		for _, h := range s.Windows.Health {
			reasons := ""
			if len(h.Reasons) > 0 {
				reasons = "  (" + strings.Join(h.Reasons, ",") + ")"
			}
			fmt.Printf("  %s ch%d: score %d/100%s\n", s.Session, h.Channel, h.Score, reasons)
		}
	}

	snap := bob.Snapshot()
	fmt.Printf("bob: resequencer high-water %d pkts, events %v\n",
		snap.BufferedHighWater, snap.Events)
	fmt.Printf("alice: credit stall %v, blocked sends %d\n",
		alice.Snapshot().CreditStall, sumBlocked(alice.Snapshot()))

	// Lifecycle latency quantiles from the shared tracer (1-in-16
	// sampled): end-to-end includes the credit stalls the small window
	// causes; resequencing delay is what loss recovery costs bob.
	ts := tracer.Snapshot()
	q := func(h stripe.HistogramSnapshot) string {
		return fmt.Sprintf("p50 %v  p90 %v  p99 %v",
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.90)), time.Duration(h.Quantile(0.99)))
	}
	fmt.Printf("latency (%d lifecycles traced, 1 in %d sampled):\n", ts.Tracked, ts.SampleEvery)
	fmt.Printf("  end-to-end   %s\n", q(ts.EndToEnd))
	fmt.Printf("  reseq delay  %s\n", q(ts.ReseqDelay))
	fmt.Printf("  send stall   %s\n", q(ts.SendStall))
	fmt.Printf("invariant checker: %d violation(s)\n", checker.ViolationCount())
	if d, ok := recorder.LastDump(); ok {
		fmt.Printf("flight recorder: %d dump(s), last trigger %q with %d events of history\n",
			recorder.Dumps(), d.Reason, len(d.Events))
	}
	if evs := events.Events(); len(evs) > 0 {
		fmt.Printf("last protocol events (%d):\n", len(evs))
		for i, e := range evs {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(evs)-5)
				break
			}
			fmt.Printf("  %s\n", e)
		}
	}
}
