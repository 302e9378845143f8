package core

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// releasedRig is one striper feeding one resequencer over queues the
// test pumps a packet at a time, with the released position's two
// standing properties checked after every step.
type releasedRig struct {
	t    *testing.T
	st   *Striper
	rs   *Resequencer
	g    *channel.Group
	prev []int64
}

// check asserts the released position never fell and never passed what
// the striper put on the channel less what the receiver still holds.
func (r *releasedRig) check(after string) {
	r.t.Helper()
	for c := range r.prev {
		rel := r.rs.ReleasedBytesOn(c)
		if rel < r.prev[c] {
			r.t.Fatalf("after %s: channel %d released position fell %d -> %d", after, c, r.prev[c], rel)
		}
		_, sent := r.st.SentOn(c)
		if bound := sent - r.rs.Channel(c).BufferedBytes; rel > bound {
			r.t.Fatalf("after %s: channel %d released %d past sent %d - buffered %d", after, c, rel, sent, sent-bound)
		}
		r.prev[c] = rel
	}
}

func (r *releasedRig) send(n, size int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.st.Send(packet.NewDataSized(size)); err != nil {
			r.t.Fatal(err)
		}
	}
	r.check("send")
}

// take pops the next packet off channel c's queue.
func (r *releasedRig) take(c int) *packet.Packet {
	r.t.Helper()
	p, ok := r.g.Queues[c].Recv()
	if !ok {
		r.t.Fatalf("channel %d queue is empty", c)
	}
	return p
}

// pump moves the next packet on channel c into the resequencer.
func (r *releasedRig) pump(c int) {
	r.t.Helper()
	r.rs.Arrive(c, r.take(c))
	r.check("arrive")
}

func (r *releasedRig) next(want bool) {
	r.t.Helper()
	if _, ok := r.rs.Next(); ok != want {
		r.t.Fatalf("Next delivered = %v, want %v", ok, want)
	}
	r.check("next")
}

// TestReleasedPositionCountsEveryDeparture walks one 100-byte packet to
// each fate that takes it out of the channel and the receive buffers —
// delivery, loss a marker proves, and the four discards — and asserts
// the released position rises by its length at that very step: the
// position is what the session grants a window past, so a departure it
// missed would be credit the sender never gets back. Two channels of
// quantum 100 alternate packet by packet, channel 0 first.
func TestReleasedPositionCountsEveryDeparture(t *testing.T) {
	const nch, size = 2, 100
	for _, tc := range []struct {
		name        string
		maxBuffered int
		c           int                // the channel the packet travels on
		setup       func(*releasedRig) // brings it to the brink
		act         func(*releasedRig) // the one step that decides its fate
		fate        func(obs.RecvChannel) int64
	}{
		{
			name:  "Delivered",
			c:     0,
			setup: func(r *releasedRig) { r.send(2, size); r.pump(0) },
			act:   func(r *releasedRig) { r.next(true) },
			fate:  func(row obs.RecvChannel) int64 { return row.Delivered },
		},
		{
			name: "LostBytes",
			c:    0,
			// The packet dies in flight; the marker cut behind it says so.
			setup: func(r *releasedRig) { r.send(2, size); r.take(0); r.st.EmitMarkers() },
			act:   func(r *releasedRig) { r.pump(0) },
			fate:  func(row obs.RecvChannel) int64 { return row.LostBytes / size },
		},
		{
			name: "OldEpochDrops",
			c:    1,
			// Channel 0's packet dies in flight, so its reset boundary is
			// the first thing the scan meets; channel 1's packet from the
			// old epoch arrives after the receiver has turned the epoch.
			setup: func(r *releasedRig) {
				r.send(2, size)
				if err := r.st.Reset(); err != nil {
					r.t.Fatal(err)
				}
				r.take(0)
				r.pump(0)
				r.next(false) // consumes the reset: now waiting out channel 1
			},
			act:  func(r *releasedRig) { r.pump(1) },
			fate: func(row obs.RecvChannel) int64 { return row.OldEpochDrops },
		},
		{
			name:        "OverflowDrops",
			maxBuffered: 2,
			c:           1,
			// Channel 0 is withheld, so channel 1 fills the buffers to
			// twice the cap, where arrivals are refused.
			setup: func(r *releasedRig) {
				r.send(10, size)
				for i := 0; i < 4; i++ {
					r.pump(1)
				}
			},
			act:  func(r *releasedRig) { r.pump(1) },
			fate: func(row obs.RecvChannel) int64 { return row.OverflowDrops },
		},
		{
			name: "MemberDrops",
			c:    1,
			setup: func(r *releasedRig) {
				if err := r.rs.RemoveChannel(1); err != nil {
					r.t.Fatal(err)
				}
				r.send(2, size)
			},
			act:  func(r *releasedRig) { r.pump(1) },
			fate: func(row obs.RecvChannel) int64 { return row.MemberDrops },
		},
		{
			name: "MemberLost",
			c:    1,
			// Buffered behind the withheld channel 0 when its slot starts
			// draining, then the slot flaps back: the backlog is abandoned.
			setup: func(r *releasedRig) {
				r.send(2, size)
				r.pump(1)
				if err := r.rs.RemoveChannel(1); err != nil {
					r.t.Fatal(err)
				}
				r.check("remove")
			},
			act: func(r *releasedRig) {
				if err := r.rs.AddChannel(1, 1); err != nil {
					r.t.Fatal(err)
				}
			},
			fate: func(row obs.RecvChannel) int64 { return row.MemberLost },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			quanta := sched.UniformQuanta(nch, size)
			g := channel.NewGroup(nch, channel.Impairments{})
			r := &releasedRig{
				t:    t,
				g:    g,
				st:   mustStriper(t, StriperConfig{Sched: sched.MustSRR(quanta), Channels: g.Senders()}),
				rs:   mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical, MaxBuffered: tc.maxBuffered}),
				prev: make([]int64, nch),
			}
			tc.setup(r)
			before, fated := r.rs.ReleasedBytesOn(tc.c), tc.fate(r.rs.Channel(tc.c))
			tc.act(r)
			r.check("the fate")
			if got := tc.fate(r.rs.Channel(tc.c)) - fated; got != 1 {
				t.Fatalf("the step counted %d %s, want 1: the scenario did not reach its fate", got, tc.name)
			}
			if rose := r.rs.ReleasedBytesOn(tc.c) - before; rose != size {
				t.Errorf("released position rose %d at the packet's %s, want its %d bytes", rose, tc.name, size)
			}
		})
	}
}
