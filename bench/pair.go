package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stripe"
)

const (
	// probePackets are delivered in order before set-up counts as done.
	// A 1 000-packet probe made setup_s 2-7 ms of dialling and goroutine
	// wake-ups, which moved 15-50% with the state of the host; this many
	// make it mostly throughput, which moves 10-15%.
	probePackets = 10_000
	latEvery     = 8 // flood latency is sampled on every 8th sequence number
	pumpPoll     = 50 * time.Millisecond
	sampleCap    = 1 << 22 // preallocated latency samples per array
)

// rxChannel is the receive end of a netchan channel.
type rxChannel interface {
	ReadPacket(timeout time.Duration) (*stripe.Packet, error)
	Close() error
}

type txChannel interface {
	batchSender
	Close() error
}

func newChannelPair(udp bool) (txChannel, rxChannel, error) {
	if udp {
		return stripe.NewUDPChannelPair()
	}
	return stripe.NewTCPChannelPair()
}

// samples is a preallocated array of durations in nanoseconds, written
// by one goroutine. Samples beyond its capacity are counted, not kept.
type samples struct {
	v       []uint32
	dropped int64
}

func newSamples() *samples { return &samples{v: make([]uint32, 0, sampleCap)} }

func (s *samples) add(ns int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, clampU32(ns))
	} else {
		s.dropped++
	}
}

// sampleSet is the latency arrays of one measurement. They are
// allocated once, before the first set-up, and handed to every pair the
// measurement builds: 64 MB of fresh memory per pair would otherwise be
// most of setup_s.
type sampleSet struct {
	loaded [2]*samples // flood phase, per direction: generator stamp -> consumer's receive call returned
	oneWay *samples    // ping phase: request stamp -> b.Recv returned
	rtt    *samples    // ping phase: a.Send -> a.Recv of the echo returned
}

func newSampleSet() *sampleSet {
	return &sampleSet{loaded: [2]*samples{newSamples(), newSamples()}, oneWay: newSamples(), rtt: newSamples()}
}

// flow is one direction of generated traffic: what src's generator
// sends and dst's consumer checks.
type flow struct {
	gen      *payloadGen
	src, dst *stripe.Session
	end      int // index of src in pair.sess

	nextSeq uint64 // owned by whichever goroutine is generating

	sent, delivered, inorder, misordered, wrong atomic.Int64

	lat *samples // flood phase: generator stamp -> consumer's receive call returned
}

// pair is a duplex Session pair over nch loopback channels per
// direction, with one pump goroutine per receive channel and one
// consumer goroutine per end.
type pair struct {
	w    *workload
	sess [2]*stripe.Session // a, b
	ab   *flow
	ba   *flow

	socks []io.Closer
	drops []*dropShim

	tr       *tracer
	sendSpan [2]atomic.Uint64 // open send span per end, for the tx shims

	stopPumps atomic.Bool
	measuring atomic.Bool
	workers   sync.WaitGroup // pumps and consumers

	// Window counters: in-order deliveries (round trips for the ping
	// phase) and the payload bytes of in-order deliveries.
	ops, bytes  atomic.Int64
	idleReturns atomic.Int64

	probeOnce sync.Once
	probeDone chan struct{}

	serverReady chan struct{} // closed once b's consumer is the ping server
	pingStop    atomic.Bool
	pingDone    chan struct{} // closed when a's ping client has returned
	*sampleSet

	killPump atomic.Int32 // test hook: 1+index of an a->b pump to stop

	abortOnce sync.Once
	aborted   chan struct{}
	stallNote string
	closeOnce sync.Once
}

func (p *pair) a() *stripe.Session { return p.sess[0] }
func (p *pair) b() *stripe.Session { return p.sess[1] }

// buildPair dials the channels, builds both Sessions and starts the
// pumps and consumers. Flow seeds derive from seed so the two
// directions carry different schedules.
func buildPair(w *workload, seed int64, tr *tracer, set *sampleSet) (*pair, error) {
	p := &pair{
		w: w, tr: tr,
		probeDone:   make(chan struct{}),
		pingDone:    make(chan struct{}),
		serverReady: make(chan struct{}),
		aborted:     make(chan struct{}),
		sampleSet:   set,
	}
	var rx [2][]rxChannel // rx[e]: what end e receives on
	for e := 0; e < 2; e++ {
		cfg := stripe.SessionConfig{
			Config:         stripe.Config{Quanta: stripe.UniformQuanta(nch, quantum)},
			CreditWindow:   w.creditWindow,
			MarkerInterval: w.markerInterval,
		}
		switch {
		case w.obs:
			col := stripe.NewCollector(nch)
			col.SetTracer(stripe.NewTracer(stripe.TracerConfig{}))
			col.SetChecker(stripe.NewChecker())
			col.AddSink(stripe.NewFlightRecorder(col, stripe.FlightRecorderConfig{}))
			cfg.Collector = col
		case tr != nil:
			// Attached only to read CreditStall and BufferedHighWater.
			cfg.Collector = stripe.NewCollector(nch)
		}

		senders := make([]stripe.ChannelSender, nch)
		for c := 0; c < nch; c++ {
			tx, r, err := newChannelPair(w.udp)
			if err != nil {
				p.close()
				return nil, fmt.Errorf("channel %d of end %d: %w", c, e, err)
			}
			p.socks = append(p.socks, tx, r)
			rx[1-e] = append(rx[1-e], r)
			var s batchSender = tx
			if w.lossRate > 0 {
				d := newDropShim(s, w.lossRate, seed*1000+int64(e*nch+c))
				p.drops = append(p.drops, d)
				s = d
			}
			if tr != nil {
				s = &txShim{next: s, tr: tr, lane: tr.newLane(false), parent: &p.sendSpan[e]}
			}
			senders[c] = s
		}
		s, err := stripe.NewSession(senders, cfg)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("session %d: %w", e, err)
		}
		p.sess[e] = s
	}
	p.ab = &flow{gen: newPayloadGen(seed, w.sizes), src: p.a(), dst: p.b(), end: 0, lat: set.loaded[0]}
	p.ba = &flow{gen: newPayloadGen(seed+1<<32, w.sizes), src: p.b(), dst: p.a(), end: 1, lat: set.loaded[1]}

	for e := 0; e < 2; e++ {
		for c, r := range rx[e] {
			p.workers.Add(1)
			go p.pump(e, c, r)
		}
	}
	p.workers.Add(2)
	go p.consume(p.ab)
	go p.consume(p.ba)
	return p, nil
}

// pump moves packets from one receive channel into its session, as
// examples/duplex does.
func (p *pair) pump(end, c int, r rxChannel) {
	defer p.workers.Done()
	s := p.sess[end]
	ln := p.tr.newLane(true)
	var n uint64
	for !p.stopPumps.Load() {
		if end == 1 && p.killPump.Load() == int32(c+1) {
			return
		}
		n++
		timed := n%perPacketSample == 0 && p.tr.active()
		var t0, t1 int64
		if timed {
			t0 = nanotime()
		}
		pk, err := r.ReadPacket(pumpPoll)
		if err != nil {
			return
		}
		if pk == nil {
			if p.tr.active() {
				p.idleReturns.Add(1)
			}
			continue
		}
		if !timed {
			s.Arrive(c, pk)
			continue
		}
		t1 = nanotime()
		s.Arrive(c, pk)
		t2 := nanotime()
		ln.add(spanRx, t0, t1, 0, n, 1)
		ln.add(spanArrive, t1, t2, 0, n, 1)
	}
}

// setDrops switches every drop shim.
func (p *pair) setDrops(on bool) {
	for _, d := range p.drops {
		d.on.Store(on)
	}
}

// abort is the watchdog's action: it marks the run stalled, dumps
// every goroutine's stack, and closes everything a goroutine of the
// run can be parked on — sockets (a Flush held under Session.mu
// returns an error) and sessions (credit and receive waits return).
func (p *pair) abort(why, outDir string) {
	p.abortOnce.Do(func() {
		p.stallNote = why
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			name := filepath.Join(outDir, "stall-"+p.w.name+".txt")
			if err := os.WriteFile(name, buf, 0o644); err == nil {
				p.stallNote += " (goroutine stacks in " + name + ")"
			}
		}
		close(p.aborted)
		p.close()
	})
}

func (p *pair) stalled() bool {
	select {
	case <-p.aborted:
		return true
	default:
		return false
	}
}

// close tears the pair down and waits for its goroutines.
func (p *pair) close() {
	p.closeOnce.Do(func() {
		p.stopPumps.Store(true)
		p.pingStop.Store(true)
		// Sockets first: Session.Close takes Session.mu, which a producer
		// parked in Flush holds until its socket is closed under it.
		for _, c := range p.socks {
			c.Close()
		}
		for _, s := range p.sess {
			if s != nil {
				s.Close()
			}
		}
	})
	p.workers.Wait()
}

// sleep waits for d, or returns false at once when the run is aborted.
func (p *pair) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.aborted:
		return false
	case <-t.C:
		return true
	}
}
