package main

import (
	"fmt"
	"runtime"
	"time"

	"stripe"
	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/flowcontrol"
	"stripe/internal/netchan"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// The ladder times each layer alone: one goroutine, the package's
// public functions called from here, the bulk_tcp size schedule, the
// fastest of ladderPasses passes (the passes differ only in how much
// the box interfered). A layer's cost inside a workload is then a
// subtraction between rows, not a guess.
const (
	ladderPasses = 5
	ladderBatch  = 64
	ladderRead   = 5 * time.Second // a socket row that waits this long has lost a packet
)

// bestOf runs pass(n) once to warm up and ladderPasses times on the
// clock, and returns the fastest pass as ns and allocations per packet.
func bestOf(n int, pass func(n int) error) (ns, allocs float64, err error) {
	if err = pass(n / 8); err != nil {
		return
	}
	var before, after runtime.MemStats
	for i := 0; i < ladderPasses; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err = pass(n); err != nil {
			return
		}
		d := float64(time.Since(start).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&after)
		if ns == 0 || d < ns {
			ns, allocs = d, float64(after.Mallocs-before.Mallocs)/float64(n)
		}
	}
	return
}

// discard accepts everything: the striper rows measure the striper.
type discard struct{}

func (discard) Send(*packet.Packet) error                    { return nil }
func (discard) SendBatch(pkts []*packet.Packet) (int, error) { return len(pkts), nil }

// arrival is one packet as a channel delivered it, recorded once and
// replayed into a fresh resequencer on every pass.
type arrival struct {
	c int
	p *packet.Packet
}

type capture struct {
	c   int
	log *[]arrival
}

func (k capture) Send(p *packet.Packet) error {
	*k.log = append(*k.log, arrival{k.c, p})
	return nil
}

func (k capture) SendBatch(pkts []*packet.Packet) (int, error) {
	for _, p := range pkts {
		*k.log = append(*k.log, arrival{k.c, p})
	}
	return len(pkts), nil
}

var sink uint64 // keeps the codec rows' results alive

// runLadder measures every ladder row.
func runLadder(seed int64) (map[string]metricValue, error) {
	gen := newPayloadGen(seed, bimodal)
	quanta := sched.UniformQuanta(nch, quantum)
	markers := core.MarkerPolicy{Every: 4}
	backing := make([]byte, maxPayload)
	v := map[string]float64{}
	// row measures one row; after the first failure the rest are skipped
	// and runLadder returns that failure.
	var failed error
	row := func(name string, n int, pass func(n int) error) {
		if failed != nil {
			return
		}
		ns, allocs, err := bestOf(n, pass)
		if err != nil {
			failed = fmt.Errorf("ladder row %s: %w", name, err)
			return
		}
		v[name+"_ns"] = ns
		v[name+"_allocs"] = allocs // kept only where the tables name it
	}
	// prebuilt returns n packets on the size schedule over one shared
	// backing array, for rows that must not pay for the pool.
	prebuilt := func(n int) []*packet.Packet {
		pkts := make([]*packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.NewData(backing[:gen.size(uint64(i))])
		}
		return pkts
	}
	pooled := func(pkts []*packet.Packet, from int) {
		for i := range pkts {
			pkts[i] = packet.GetSized(gen.size(uint64(from + i)))
		}
	}

	srr := sched.MustSRR(quanta)
	row("sched.decision", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += uint64(srr.Select())
			srr.Account(gen.size(uint64(i)))
		}
		return nil
	})

	row("packet.pool", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			packet.GetSized(gen.size(uint64(i))).Release()
		}
		return nil
	})

	var buf []byte
	mb := packet.MarkerBlock{Channel: 2, Round: 77, Deficit: 300, Credits: 1 << 20, Sent: 1 << 30, TxNs: 12345}
	row("packet.marker_codec", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			mb.Round++
			buf = mb.Encode(buf[:0])
			got, err := packet.DecodeMarker(buf)
			if err != nil {
				return err
			}
			sink += got.Round
		}
		return nil
	})

	frame := packet.NewData(backing)
	row("netchan.frame_codec", 200_000, func(n int) error {
		for i := 0; i < n; i++ {
			frame.Payload = backing[:gen.size(uint64(i))]
			buf = netchan.EncodeFrame(buf[:0], frame)
			got, err := netchan.DecodeFrame(buf)
			if err != nil {
				return err
			}
			got.Release()
		}
		return nil
	})

	// One channel pair, SendBatch then ReadPacket, in one goroutine: a
	// batch of 64 is about 51 KB, well inside the loopback socket
	// buffers.
	socket := func(name string, udp bool, batch, n int) error {
		tx, rx, err := newChannelPair(udp)
		if err != nil {
			return err
		}
		defer tx.Close()
		defer rx.Close()
		pkts := prebuilt(batch)
		row(name, n, func(n int) error {
			for i := 0; i < n; i += batch {
				if _, err := tx.SendBatch(pkts); err != nil {
					return err
				}
				for range pkts {
					got, err := rx.ReadPacket(ladderRead)
					if err != nil {
						return err
					}
					if got == nil {
						return fmt.Errorf("no packet within %v", ladderRead)
					}
					got.Release()
				}
			}
			return nil
		})
		return nil
	}
	if err := socket("netchan.tcp_b1", false, 1, 8_000); err != nil {
		return nil, err
	}
	if err := socket("netchan.tcp_b64", false, ladderBatch, 64_000); err != nil {
		return nil, err
	}
	if err := socket("netchan.udp", true, 1, 8_000); err != nil {
		return nil, err
	}

	q := channel.NewQueue(channel.Impairments{})
	one := prebuilt(1)[0]
	row("channel.queue", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := q.Send(one); err != nil {
				return err
			}
			q.Recv()
		}
		return nil
	})

	// A window nothing exhausts, so the row is Admit+Consume alone.
	gate, err := flowcontrol.NewGate(nch, 1<<50)
	if err != nil {
		return nil, err
	}
	row("flowcontrol.gate", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			c, size := i%nch, gen.size(uint64(i))
			if !gate.Admit(c, size) {
				return fmt.Errorf("gate refused channel %d", c)
			}
			gate.Consume(c, size)
		}
		return nil
	})
	var position [nch]int64
	mgr, err := flowcontrol.NewManager(nch, 256<<10, func(c int) int64 { return position[c] })
	if err != nil {
		return nil, err
	}
	row("flowcontrol.grant", 400_000, func(n int) error {
		for i := 0; i < n; i++ {
			c := i % nch
			position[c] += quantum
			if _, err := mgr.Reconcile(c, position[c], position[c], 0); err != nil {
				return err
			}
			if err := gate.ApplyGrant(c, mgr.GrantFor(c)); err != nil {
				return err
			}
		}
		return nil
	})

	striper := func(senders []channel.Sender, col *obs.Collector) (*core.Striper, error) {
		return core.NewStriper(core.StriperConfig{Sched: sched.MustSRR(quanta), Channels: senders, Markers: markers, Obs: col})
	}
	const nStriper = 200_000
	stream := prebuilt(nStriper)
	for _, batch := range []int{1, ladderBatch} {
		st, err := striper([]channel.Sender{discard{}, discard{}, discard{}, discard{}}, nil)
		if err != nil {
			return nil, err
		}
		row(fmt.Sprintf("core.striper_b%d", batch), nStriper, func(n int) error {
			for i := 0; i+batch <= n; i += batch {
				if _, err := st.SendBatch(stream[i : i+batch]); err != nil {
					return err
				}
			}
			return nil
		})
	}

	var log []arrival
	senders := make([]channel.Sender, nch)
	for c := range senders {
		senders[c] = capture{c, &log}
	}
	st, err := striper(senders, nil)
	if err != nil {
		return nil, err
	}
	if _, err := st.SendBatch(stream); err != nil {
		return nil, err
	}
	out := make([]*packet.Packet, ladderBatch)
	row("core.reseq", nStriper, func(n int) error {
		rs, err := core.NewResequencer(core.ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: core.ModeLogical})
		if err != nil {
			return err
		}
		data := 0
		for i := 0; data < n && i < len(log); i++ {
			rs.Arrive(log[i].c, log[i].p)
			if log[i].p.Kind != packet.Data {
				continue
			}
			if data++; data%ladderBatch == 0 {
				for rs.NextBatch(out) > 0 {
				}
			}
		}
		return nil
	})

	// striper -> Queue -> resequencer, batch 64, packets through the
	// pool as the socket workloads take them. The obs rows repeat it
	// with a Collector, then with the default (1-in-16) Tracer on top.
	pkts := make([]*packet.Packet, ladderBatch)
	pipeline := func(name string, col *obs.Collector) error {
		g := channel.NewGroup(nch, channel.Impairments{})
		st, err := striper(g.Senders(), col)
		if err != nil {
			return err
		}
		rs, err := core.NewResequencer(core.ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: core.ModeLogical, Obs: col})
		if err != nil {
			return err
		}
		row(name, 128_000, func(n int) error {
			for i := 0; i < n; i += ladderBatch {
				pooled(pkts, i)
				if _, err := st.SendBatch(pkts); err != nil {
					return err
				}
				for c, q := range g.Queues {
					for p, ok := q.Recv(); ok; p, ok = q.Recv() {
						rs.Arrive(c, p)
					}
				}
				for k := rs.NextBatch(out); k > 0; k = rs.NextBatch(out) {
					for _, p := range out[:k] {
						p.Release()
					}
				}
			}
			return nil
		})
		return nil
	}
	if err := pipeline("core.pipeline", nil); err != nil {
		return nil, err
	}
	col := obs.NewCollector(nch)
	if err := pipeline("pipeline+collector", col); err != nil {
		return nil, err
	}
	col = obs.NewCollector(nch)
	col.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	if err := pipeline("pipeline+tracer16", col); err != nil {
		return nil, err
	}
	v["obs.collector_ns"] = v["pipeline+collector_ns"] - v["core.pipeline_ns"]
	v["obs.tracer16_ns"] = v["pipeline+tracer16_ns"] - v["pipeline+collector_ns"]

	// A Session pair over channel.Queue, marker timer off, everything on
	// this goroutine: a sends a batch, its queues are pumped into b, b
	// delivers, b cuts markers (which carry the credits when there is a
	// window), and those are pumped back into a. Minus core.pipeline_ns
	// this is what the session layer costs when nothing contends.
	session := func(name string, window int64) error {
		var ends [2]*stripe.Session
		var queues [2]*channel.Group
		for e := range ends {
			queues[e] = channel.NewGroup(nch, channel.Impairments{})
			s, err := stripe.NewSession(queues[e].Senders(), stripe.SessionConfig{
				Config:         stripe.Config{Quanta: quanta},
				CreditWindow:   window,
				MarkerInterval: -1,
			})
			if err != nil {
				return err
			}
			defer s.Close()
			ends[e] = s
		}
		a, b := ends[0], ends[1]
		pump := func(from *channel.Group, to *stripe.Session) {
			for c, q := range from.Queues {
				for p, ok := q.Recv(); ok; p, ok = q.Recv() {
					to.Arrive(c, p)
				}
			}
		}
		row(name, 128_000, func(n int) error {
			for i := 0; i < n; i += ladderBatch {
				pooled(pkts, i)
				if _, err := a.SendBatch(pkts); err != nil {
					return err
				}
				pump(queues[0], b)
				for got := 0; got < ladderBatch; {
					k := b.RecvBatch(out)
					if k == 0 {
						return fmt.Errorf("session closed")
					}
					for _, p := range out[:k] {
						p.Release()
					}
					got += k
				}
				b.EmitMarkers()
				pump(queues[1], a)
			}
			return nil
		})
		return nil
	}
	if err := session("stripe.session_inproc", 0); err != nil {
		return nil, err
	}
	if err := session("stripe.session_fc_inproc", 256<<10); err != nil {
		return nil, err
	}
	return named(ladderMetrics, v), failed
}
