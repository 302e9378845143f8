package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/packet"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "loss",
		Title: "Section 6.3: marker recovery across loss rates up to 80%",
		Run:   runLossSweep,
	})
	register(Experiment{
		ID:    "markerfreq",
		Title: "Section 6.3: marker frequency vs out-of-order deliveries",
		Run:   runMarkerFrequency,
	})
	register(Experiment{
		ID:    "markerpos",
		Title: "Section 6.3: marker position within a round vs out-of-order deliveries",
		Run:   runMarkerPosition,
	})
}

// lossyRun drives the transport-layer pipeline of Section 6.3: an SRR
// striper over nch channels where each of the first lossyCount data
// packets is dropped with probability loss, followed by a lossless
// tail. It returns the delivered IDs and receiver stats.
func lossyRun(cfg Config, nch int, loss float64, markers core.MarkerPolicy, lossyCount, total int) ([]uint64, core.ResequencerStats) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(loss*1e4) + int64(markers.Every)*7 + int64(markers.Position)*13))
	r := newRig(rigConfig{
		quanta:  sched.UniformQuanta(nch, 1500),
		markers: markers,
		sender: func(_ int, q *channel.Queue) channel.Sender {
			return &probDropper{inner: q, rng: rng, p: loss, until: uint64(lossyCount)}
		},
	})
	sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed+5)
	for i := 0; i < total; i++ {
		r.send(sizes.Next())
		// Interleaved arrivals, slightly irregular.
		for k := 0; k < 1+i%2; k++ {
			r.arrive((i + k) % nch)
		}
		r.deliver(0)
	}
	return r.settle(), r.reseq.Stats()
}

// runLossSweep regenerates the first finding of Section 6.3: for loss
// rates up to 80%, marker resynchronization restores FIFO delivery once
// losses stop. For each loss rate we report the out-of-order fraction
// during the lossy phase and whether the post-loss tail was delivered
// complete and in order.
func runLossSweep(cfg Config) *Result {
	lossyCount, total := 4000, 6000
	if cfg.Quick {
		lossyCount, total = 800, 1400
	}
	losses := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	markers := core.MarkerPolicy{Every: 4, Position: 0}

	var b strings.Builder
	fmt.Fprintln(&b, "# Section 6.3 loss sweep: 3 channels, markers every 4 rounds; loss applies")
	fmt.Fprintln(&b, "# to the first phase only. 'recovered' = lossless tail complete and FIFO.")
	fmt.Fprintln(&b, row("loss", "delivered", "ooo fraction", "resyncs", "recovered"))

	var x, ooo, rec []float64
	margin := 150 // packets of slack for recovery after loss stops
	for _, loss := range losses {
		ids, st := lossyRun(cfg, 3, loss, markers, lossyCount, total)
		r := stats.AnalyzeOrder(ids)
		// Tail check: everything sent after recovery margin must arrive
		// in order with nothing missing.
		boundary := uint64(lossyCount + margin)
		var tail []uint64
		for _, id := range ids {
			if id >= boundary {
				tail = append(tail, id)
			}
		}
		recovered := len(tail) == total-int(boundary)
		for i := 1; i < len(tail) && recovered; i++ {
			if tail[i] != tail[i-1]+1 {
				recovered = false
			}
		}
		fmt.Fprintln(&b, row(fmt.Sprintf("%.0f%%", loss*100),
			fmt.Sprintf("%d/%d", len(ids), total),
			fmt.Sprintf("%.4f", r.OutOfOrderFraction()),
			fmt.Sprintf("%d", st.Resyncs),
			fmt.Sprintf("%v", recovered)))
		x = append(x, loss*100)
		ooo = append(ooo, r.OutOfOrderFraction())
		if recovered {
			rec = append(rec, 1)
		} else {
			rec = append(rec, 0)
		}
	}
	tb := &stats.Table{Title: "Loss sweep", XLabel: "loss %", YLabel: "ooo fraction / recovered", X: x}
	tb.AddColumn("ooo", ooo)
	tb.AddColumn("recovered", rec)
	return &Result{ID: "loss", Title: "Loss sweep", Text: b.String(), Tables: []*stats.Table{tb}}
}

// runMarkerFrequency regenerates the second finding: at a fixed loss
// rate, more frequent markers mean fewer out-of-order deliveries. The
// control-overhead column quantifies the price — even at a marker per
// round it is a small fraction of the data volume, the "little
// overhead" scalability claim.
func runMarkerFrequency(cfg Config) *Result {
	lossyCount, total := 6000, 7000
	if cfg.Quick {
		lossyCount, total = 1200, 1500
	}
	const loss = 0.1
	everies := []uint64{1, 2, 4, 8, 16, 32, 64}

	var b strings.Builder
	fmt.Fprintln(&b, "# Section 6.3: out-of-order deliveries vs marker period (10% loss, 3 channels).")
	fmt.Fprintln(&b, row("marker period (rounds)", "ooo deliveries", "ooo fraction", "markers seen", "overhead %"))
	var x, ooo, oh []float64
	for _, every := range everies {
		ids, st := lossyRun(cfg, 3, loss, core.MarkerPolicy{Every: every, Position: 0}, lossyCount, total)
		r := stats.AnalyzeOrder(ids)
		overhead := float64(st.Markers) * float64(packet.MarkerWireLen) /
			float64(st.DeliveredBytes) * 100
		fmt.Fprintln(&b, row(fmt.Sprintf("%d", every),
			fmt.Sprintf("%d", r.OutOfOrder),
			fmt.Sprintf("%.4f", r.OutOfOrderFraction()),
			fmt.Sprintf("%d", st.Markers),
			fmt.Sprintf("%.3f", overhead)))
		x = append(x, float64(every))
		ooo = append(ooo, float64(r.OutOfOrder))
		oh = append(oh, overhead)
	}
	tb := &stats.Table{Title: "Marker frequency", XLabel: "period (rounds)", YLabel: "ooo deliveries", X: x}
	tb.AddColumn("ooo", ooo)
	tb.AddColumn("overhead %", oh)
	return &Result{ID: "markerfreq", Title: "Marker frequency", Text: b.String(), Tables: []*stats.Table{tb}}
}

// runMarkerPosition regenerates the third finding: the position of the
// marker batch within a round affects out-of-order deliveries, with
// round boundaries (position 0, or equivalently the end of the round)
// doing best.
func runMarkerPosition(cfg Config) *Result {
	lossyCount, total := 6000, 7000
	if cfg.Quick {
		lossyCount, total = 1200, 1500
	}
	const loss = 0.1
	const nch = 8
	var b strings.Builder
	fmt.Fprintln(&b, "# Section 6.3: out-of-order deliveries vs marker position within the round")
	fmt.Fprintln(&b, "# (8 channels, markers every 4 rounds, 10% loss). Position 0 = round start.")
	fmt.Fprintln(&b, row("position", "ooo deliveries", "ooo fraction"))
	var x, ooo []float64
	for pos := 0; pos < nch; pos++ {
		ids, _ := lossyRun(cfg, nch, loss, core.MarkerPolicy{Every: 4, Position: pos}, lossyCount, total)
		r := stats.AnalyzeOrder(ids)
		fmt.Fprintln(&b, row(fmt.Sprintf("%d", pos),
			fmt.Sprintf("%d", r.OutOfOrder),
			fmt.Sprintf("%.4f", r.OutOfOrderFraction())))
		x = append(x, float64(pos))
		ooo = append(ooo, float64(r.OutOfOrder))
	}
	tb := &stats.Table{Title: "Marker position", XLabel: "position", YLabel: "ooo deliveries", X: x}
	tb.AddColumn("ooo", ooo)
	return &Result{ID: "markerpos", Title: "Marker position", Text: b.String(), Tables: []*stats.Table{tb}}
}
