package harness

import (
	"fmt"
	"sort"
	"strings"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "video",
		Title: "Section 6.3: quasi-FIFO delivery of an NV-like video stream",
		Run:   runVideo,
	})
}

// runVideo regenerates the NV experiment: a synthetic video trace is
// striped over four lossy channels with quasi-FIFO delivery, and frame
// damage is compared against a hypothetical channel with the identical
// loss pattern but perfect ordering. The paper found the playback
// difference imperceptible below ~40% loss, and that at 40% the damage
// from pure loss already equals the damage from loss plus reordering —
// i.e. reordering's marginal contribution is insignificant.
//
// A frame is "usable" when every packet of it is delivered, and all of
// them arrive before any packet of frame f+3 (a two-frame playout
// jitter buffer, comfortably under NV's interactive latency budget).
func runVideo(cfg Config) *Result {
	frames := 2000
	if cfg.Quick {
		frames = 400
	}
	vt, err := trace.SynthesizeVideo(trace.VideoConfig{
		Frames: frames,
		GOP:    8,
		IMean:  8000,
		PMean:  1500,
		MTU:    1024,
		Seed:   cfg.Seed + 7,
	})
	if err != nil {
		panic(err)
	}
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}

	var b strings.Builder
	fmt.Fprintln(&b, "# Section 6.3 NV video: synthetic trace striped over 4 lossy channels,")
	fmt.Fprintln(&b, "# quasi-FIFO delivery vs the same loss with perfect ordering.")
	fmt.Fprintln(&b, row("loss", "usable (quasi-FIFO)", "usable (loss only)", "reorder penalty"))

	var x, quasi, pure []float64
	for _, loss := range losses {
		q := videoUsableFraction(cfg, vt, loss, true)
		p := videoUsableFraction(cfg, vt, loss, false)
		fmt.Fprintln(&b, row(fmt.Sprintf("%.0f%%", loss*100),
			fmt.Sprintf("%.4f", q),
			fmt.Sprintf("%.4f", p),
			fmt.Sprintf("%.4f", p-q)))
		x = append(x, loss*100)
		quasi = append(quasi, q)
		pure = append(pure, p)
	}
	tb := &stats.Table{Title: "NV video usability", XLabel: "loss %", YLabel: "usable frame fraction", X: x}
	tb.AddColumn("quasi-FIFO", quasi)
	tb.AddColumn("loss-only", pure)
	return &Result{ID: "video", Title: "Video quasi-FIFO", Text: b.String(), Tables: []*stats.Table{tb}}
}

// videoUsableFraction stripes the trace and scores usable frames. When
// reorder is false the delivered packets are replayed in sending order
// (perfect resequencing of whatever survived) to isolate pure loss.
func videoUsableFraction(cfg Config, vt *trace.VideoTrace, loss float64, reorder bool) float64 {
	const nch = 4
	r := newRig(rigConfig{
		quanta:  sched.UniformQuanta(nch, 1024),
		markers: core.MarkerPolicy{Every: 2, Position: 0},
		queues:  channel.NewGroup(nch, channel.Impairments{Loss: loss, Seed: cfg.Seed + 11}).Queues,
	})
	for i := range vt.Packets {
		r.send(vt.Packets[i].Size)
		if i%16 == 0 {
			r.quiesce()
		}
	}
	ids := r.settle()
	if !reorder {
		// Perfect ordering of the survivors: sort by ingress ID.
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}

	// Score frames: all packets present, all before any packet of frame
	// f+3 in the delivery sequence.
	ppf := vt.PacketsPerFrame()
	nFrames := len(ppf)
	seen := make([]int, nFrames)
	lastPos := make([]int, nFrames) // last delivery position of frame f
	firstPos := make([]int, nFrames)
	for f := range firstPos {
		firstPos[f] = -1
	}
	for pos, id := range ids {
		f := vt.FrameOfPacket(int(id))
		seen[f]++
		lastPos[f] = pos
		if firstPos[f] == -1 {
			firstPos[f] = pos
		}
	}
	usable := 0
	for f := 0; f < nFrames; f++ {
		if seen[f] != ppf[f] {
			continue // lost packets
		}
		if f+3 < nFrames && firstPos[f+3] != -1 && lastPos[f] > firstPos[f+3] {
			continue // delivered too late for the jitter buffer
		}
		usable++
	}
	return float64(usable) / float64(nFrames)
}
