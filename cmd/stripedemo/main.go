// Command stripedemo runs a live two-channel striping session over
// loopback UDP and prints a timeline: packets striped by SRR, delivered
// in FIFO order by logical reception, with optional loss injected on
// the sending side to show quasi-FIFO behaviour and marker recovery.
//
//	stripedemo                    # lossless: exact FIFO
//	stripedemo -loss 0.1          # 10% loss: quasi-FIFO with marker recovery
//	stripedemo -n 50 -v           # print each delivery
//	stripedemo -metrics :9090     # serve /metrics + /debug/pprof during the run
//	stripedemo -trace out.json    # write packet lifecycles as chrome://tracing JSON
//
// With -metrics the demo serves the runtime observability endpoint
// (Prometheus text at /metrics, health JSON at /debug/stripe/health,
// pprof under /debug/pprof/) while it runs, prints recent protocol events, and
// fetches its own /metrics at the end so the counters are visible even
// without an external curl.
//
// With -trace every packet's lifecycle (stripe, UDP send, UDP receive,
// resequence, deliver) is stamped and written to the named file; open it
// at chrome://tracing or https://ui.perfetto.dev. A tracer implies
// AddSeq, so both ends key a packet by the same wire-carried sequence
// number.
// Either flag also arms a flight recorder that dumps the recent event
// history when an anomaly (credit stall, resync storm, overflow,
// invariant violation) trips mid-run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"stripe"
)

// lossyChannel drops packets before a real UDP channel, so the demo can
// inject loss deterministically.
type lossyChannel struct {
	inner stripe.ChannelSender
	p     float64
	rng   *rand.Rand
}

func (l *lossyChannel) Send(pkt *stripe.Packet) error {
	if pkt.Kind == stripe.KindData && l.rng.Float64() < l.p {
		return nil
	}
	return l.inner.Send(pkt)
}

func main() {
	var (
		n        = flag.Int("n", 200, "packets to send")
		loss     = flag.Float64("loss", 0, "data-packet loss probability")
		verbose  = flag.Bool("v", false, "print each delivery")
		seed     = flag.Int64("seed", 42, "loss-process seed")
		metrics  = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090)")
		traceOut = flag.String("trace", "", "write packet lifecycles as chrome://tracing JSON to this file")
	)
	flag.Parse()

	const nch = 2
	cfg := stripe.Config{
		Quanta:  stripe.UniformQuanta(nch, 1500),
		Markers: stripe.MarkerPolicy{Every: 2, Position: 0},
	}

	var (
		events   *stripe.RingSink
		srv      *stripe.Server
		tracer   *stripe.Tracer
		recorder *stripe.FlightRecorder
	)
	if *metrics != "" || *traceOut != "" {
		col := stripe.NewCollector(nch)
		events = stripe.NewRingSink(64)
		col.AddSink(events)
		recorder = stripe.NewFlightRecorder(col, stripe.FlightRecorderConfig{})
		col.AddSink(recorder)
		cfg.Collector = col
	}
	if *traceOut != "" {
		// Stamp every packet. Attached before NewSender, the tracer makes
		// it carry sequence numbers on the wire.
		tracer = stripe.NewTracer(stripe.TracerConfig{Sample: 1})
		cfg.Collector.SetTracer(tracer)
	}
	if *metrics != "" {
		var err error
		srv, err = stripe.Serve(*metrics, cfg.Collector)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stripedemo:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	sendEnds := make([]stripe.ChannelSender, nch)
	recvEnds := make([]*stripe.UDPChannel, nch)
	for i := 0; i < nch; i++ {
		s, r, err := stripe.NewUDPChannelPair()
		if err != nil {
			fmt.Fprintln(os.Stderr, "stripedemo:", err)
			os.Exit(1)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = &lossyChannel{inner: s, p: *loss, rng: rand.New(rand.NewSource(*seed + int64(i)))}
		recvEnds[i] = r
	}

	tx, err := stripe.NewSender(sendEnds, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stripedemo:", err)
		os.Exit(1)
	}
	rx, err := stripe.NewReceiver(nch, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stripedemo:", err)
		os.Exit(1)
	}

	stop := make(chan struct{})
	var pumps sync.WaitGroup
	for i, rc := range recvEnds {
		pumps.Add(1)
		go func(i int, rc *stripe.UDPChannel) {
			defer pumps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := rc.ReadPacket(50 * time.Millisecond)
				if err != nil || p == nil {
					continue
				}
				rx.Arrive(i, p)
			}
		}(i, rc)
	}

	fmt.Printf("striping %d packets over %d UDP channels (loss %.0f%%)\n", *n, nch, *loss*100)
	//stripe:allowleak bounded: sends *n packets plus 20 marker ticks and exits on its own
	go func() {
		for i := 0; i < *n; i++ {
			payload := make([]byte, 400+((i*37)%800))
			copy(payload, fmt.Sprintf("pkt-%05d", i))
			if err := tx.SendBytes(payload); err != nil {
				fmt.Fprintln(os.Stderr, "send:", err)
				return
			}
		}
		// Keep markers flowing while the tail resynchronizes.
		for i := 0; i < 20; i++ {
			time.Sleep(20 * time.Millisecond)
			tx.EmitMarkers()
		}
	}()

	delivered, late := 0, 0
	lastID := -1
	deadline := time.After(5 * time.Second)
	var order []int
	// One reader goroutine feeds the collect loop and announces its own
	// exit by closing results; it stops either when the stop channel
	// closes (deadline path) or when rx.Close unblocks Recv with nil.
	results := make(chan *stripe.Packet)
	go func() {
		defer close(results)
		for {
			p := rx.Recv()
			if p == nil {
				return
			}
			select {
			case results <- p:
			case <-stop:
				return
			}
		}
	}()
collect:
	for delivered < *n {
		select {
		case p, ok := <-results:
			if !ok {
				break collect
			}
			var id int
			fmt.Sscanf(string(p.Payload), "pkt-%d", &id)
			order = append(order, id)
			if id < lastID {
				late++
			} else {
				lastID = id
			}
			if *verbose {
				fmt.Printf("  delivered pkt-%05d (%4d bytes)\n", id, p.Len())
			}
			delivered++
		case <-deadline:
			break collect // remainder was lost
		}
	}
	close(stop)
	pumps.Wait()
	rx.Close() // unblocks a Recv parked in the reader goroutine

	st := rx.Stats()
	fmt.Printf("\ndelivered %d/%d packets, %d out of order\n", delivered, *n, late)
	fmt.Printf("markers consumed: %d, resynchronizations: %d, skips: %d\n",
		st.Markers, st.Resyncs, st.Skips)
	if *loss == 0 && late == 0 && delivered == *n {
		fmt.Println("FIFO delivery: exact (Theorem 4.1)")
	}
	if *loss > 0 {
		fmt.Println("quasi-FIFO: misordering confined to loss windows; markers restore sync")
	}
	_ = order

	if recorder != nil {
		if d, ok := recorder.LastDump(); ok {
			fmt.Printf("\nflight recorder: %d dump(s), last trigger %q with %d events of history\n",
				recorder.Dumps(), d.Reason, len(d.Events))
		}
	}
	if *traceOut != "" {
		lifecycles := tracer.Recent()
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stripedemo:", err)
			os.Exit(1)
		}
		if err := stripe.WriteChromeTrace(f, lifecycles, events.Events()); err != nil {
			fmt.Fprintln(os.Stderr, "stripedemo:", err)
		}
		f.Close()
		ts := tracer.Snapshot()
		fmt.Printf("\nwrote %d packet lifecycles to %s (open at chrome://tracing or ui.perfetto.dev)\n",
			len(lifecycles), *traceOut)
		fmt.Printf("end-to-end latency: p50 %v  p90 %v  p99 %v\n",
			time.Duration(ts.EndToEnd.Quantile(0.50)),
			time.Duration(ts.EndToEnd.Quantile(0.90)),
			time.Duration(ts.EndToEnd.Quantile(0.99)))
	}

	if srv != nil {
		if evs := events.Events(); len(evs) > 0 {
			fmt.Printf("\nlast %d protocol events:\n", len(evs))
			for _, e := range evs {
				fmt.Printf("  %s\n", e)
			}
		}
		fmt.Printf("\nself-scrape of http://%s/metrics (stripe_* samples):\n", srv.Addr())
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stripedemo:", err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "stripe_") {
				fmt.Println("  " + line)
			}
		}
	}
}
