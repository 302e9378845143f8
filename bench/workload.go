package main

import "time"

// nch is the protocol's parameter (channels per direction), not load.
const (
	nch     = 4
	quantum = 1500
)

// workload is one fixed traffic shape. The names are cited by later
// issues and never change; the why strings are copied into
// BENCHMARK.json.
type workload struct {
	name string
	why  string

	udp      bool
	sizes    []int // drawn with equal probability per packet, from the seed
	batch    int   // SendBatch/RecvBatch size; 1 selects Send/Recv
	duplex   bool  // both directions flood at once
	pingpong bool  // no flood phase: the ping phase is the workload

	creditWindow   int64
	markerInterval time.Duration // 0 keeps the session default (50ms)

	lossRate float64 // seeded drop shim on every channel, both directions
	obs      bool    // Collector + Tracer + Checker + FlightRecorder on both ends

	// hostBound marks a workload whose every timing is a chain of thread
	// hand-offs and so follows the single-thread speed of the host. The
	// one command runs it like the others, but BENCHMARK.json, which
	// gates later changes on the spread of ten runs, leaves it out.
	hostBound bool
}

var bimodal = []int{200, 1400}

var workloads = []*workload{
	{
		name:  "bulk_tcp",
		why:   "one-way TCP flood of 200/1400 B packets: bytes dominate (kernel copy, netchan framing); the control for lock and flow-control changes",
		sizes: bimodal, batch: 64,
	},
	{
		name:  "small_tcp",
		why:   "one-way TCP flood of 64 B packets: per-packet user-space cost dominates (SRR, striper runs, Session.mu, Arrive, pool)",
		sizes: []int{64}, batch: 64,
	},
	{
		name:  "duplex_tcp_fc",
		why:   "both directions flood at once under a 256 KiB credit window: each Session sends and receives under its one mutex",
		sizes: bimodal, batch: 64, duplex: true,
		creditWindow: 256 << 10, markerInterval: 2 * time.Millisecond,
	},
	{
		name: "udp_fc",
		why:  "one-way UDP flood of 256 B datagrams under a 24 KiB credit window: one syscall per datagram, credits return on the timer",
		udp:  true, sizes: []int{256}, batch: 16,
		creditWindow: 24 << 10, markerInterval: time.Millisecond,
	},
	{
		name:  "pingpong_tcp",
		why:   "closed loop, one 200 B request outstanding, single-packet API: the latency floor of the per-packet path",
		sizes: []int{200}, batch: 1, pingpong: true, hostBound: true,
	},
	{
		name:  "lossy_tcp_obs",
		why:   "bulk_tcp with 1% seeded loss of every packet kind and the full obs stack: marker resync, skip rule, per-event hooks",
		sizes: bimodal, batch: 64, lossRate: 0.01, obs: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
