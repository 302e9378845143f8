package harness

import (
	"math/rand"

	"stripe/internal/baseline"
	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/flowcontrol"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// rig is the one in-process pipeline of the package, the machine every
// Section 6.3 study and ablation drives: a striper (or one of table1's
// baseline selectors), N FIFO lines, and the receiver's simulation of
// the sender (Theorem 4.1). newRig is the only place either engine is
// constructed, so "same quanta, hence two identical automata, one per
// end" is stated once. An experiment keeps only its schedule — which
// line moves when, who drains how fast, when credits refresh — and
// drives the rig through three verbs: arrive (one line moves one hop),
// deliver (the consumer takes up to k in order) and settle (both to
// their fixed point — quiesce, for a pause mid-run — then Drain).
//
// Left out on purpose: flap.go drives the public Session over
// wall-clock LocalChannels, which is its point; internal/sim/path.go is
// the simulator's own path builder and sits below this package in the
// import graph; and the pipelines in internal/core's tests and the root
// bench_test.go cannot import an unexported type (ROADMAP item 2
// decides where the rig finally lives).
type rig struct {
	striper *core.Striper // nil when a baseline selector stripes
	reseq   *core.Resequencer
	gate    *flowcontrol.Gate // nil without a credit window

	queues  []*channel.Queue // line c's transmit FIFO: loss, bounds
	senders []channel.Sender // what the striper writes line c through
	flight  []delayLine      // line c's packets off the queue and not yet due
	delay   func(c int) int64
	window  int64

	// now is the rig's clock, in whatever unit the experiment's delays
	// use. The experiment sets it; settle ticks it.
	now int64
	// ids are the delivered packets' ingress IDs, in delivery order.
	ids   []uint64
	batch []*packet.Packet // deliver's reused result

	sel    baseline.Selector
	nextID uint64
}

// rigConfig is what the experiments actually vary.
type rigConfig struct {
	quanta  []int64
	mode    core.Mode
	addSeq  bool
	markers core.MarkerPolicy
	// sched overrides the automaton built at each end (default: SRR
	// over quanta).
	sched func() sched.RoundBased
	// selector, when non-nil, replaces the striper with a baseline
	// scheme.
	selector baseline.Selector
	// queues are the lines' transmit FIFOs, one per quantum (default:
	// perfect and unbounded).
	queues []*channel.Queue
	// sender is what the striper writes line c through (default: the
	// queue itself): a dropper in front of the queue, or a simulator
	// link in place of it.
	sender func(c int, q *channel.Queue) channel.Sender
	// delay is how long, on the rig's clock, a packet leaving line c's
	// queue stays in flight. It is called once per packet in arrival
	// order, so it may draw from an RNG. Nil means no flight time.
	delay func(c int) int64
	// window, when positive, gates the striper on that many bytes of
	// credit per channel.
	window      int64
	maxBuffered int
	obs         *obs.Collector
	// virtualClock makes both engines read the rig's clock instead of
	// time.Now.
	virtualClock bool
}

// newRig panics on a configuration either engine rejects: every caller
// passes constants, so that is a bug in this package.
func newRig(cfg rigConfig) *rig {
	nch := len(cfg.quanta)
	r := &rig{
		queues:  cfg.queues,
		senders: make([]channel.Sender, nch),
		flight:  make([]delayLine, nch),
		delay:   cfg.delay,
		window:  cfg.window,
		sel:     cfg.selector,
	}
	if r.queues == nil {
		r.queues = channel.NewGroup(nch, channel.Impairments{}).Queues
	}
	for c := range r.queues {
		r.senders[c] = r.queues[c]
		if cfg.sender != nil {
			r.senders[c] = cfg.sender(c, r.queues[c])
		}
	}
	automaton := func() sched.RoundBased {
		if cfg.sched != nil {
			return cfg.sched()
		}
		return sched.MustSRR(cfg.quanta)
	}
	var clock func() int64
	if cfg.virtualClock {
		clock = func() int64 { return r.now }
	}

	if cfg.selector == nil {
		scfg := core.StriperConfig{
			Sched:    automaton(),
			Channels: r.senders,
			Markers:  cfg.markers,
			AddSeq:   cfg.addSeq,
			Obs:      cfg.obs,
			Now:      clock,
		}
		if cfg.window > 0 {
			r.gate = must(flowcontrol.NewGate(nch, cfg.window))
			scfg.Gate = r.gate
		}
		r.striper = must(core.NewStriper(scfg))
	}
	rcfg := core.ResequencerConfig{
		Mode:        cfg.mode,
		N:           nch,
		MaxBuffered: cfg.maxBuffered,
		Obs:         cfg.obs,
		Now:         clock,
	}
	if cfg.mode == core.ModeLogical {
		rcfg.Sched = automaton()
	}
	r.reseq = must(core.NewResequencer(rcfg))
	return r
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// send stripes one data packet of the given size and reports whether
// it was accepted: false means the credit gate refused it. The lines
// never fail a Send, so any other error is a bug here.
func (r *rig) send(size int) bool {
	pkt := packet.NewDataSized(size)
	var err error
	if r.striper != nil {
		err = r.striper.Send(pkt)
	} else {
		pkt.ID = r.nextID
		r.nextID++
		err = baseline.Stripe(r.sel, r.senders, pkt)
	}
	if err != nil && err != core.ErrGated {
		panic(err)
	}
	return err == nil
}

// arrive moves line c one hop: the head of its queue goes into flight
// for delay(c), and whatever of the line is due by now reaches the
// resequencer. It reports whether the queue had a head.
func (r *rig) arrive(c int) bool {
	p, ok := r.queues[c].Recv()
	if r.delay == nil {
		if ok {
			r.reseq.Arrive(c, p)
		}
		return ok
	}
	if ok {
		r.flight[c].push(p, r.now+r.delay(c))
	}
	for {
		p := r.flight[c].pop(r.now)
		if p == nil {
			return ok
		}
		r.reseq.Arrive(c, p)
	}
}

// deliver hands the consumer up to k packets in delivery order —
// everything deliverable when k <= 0 — and records their IDs. The
// result is valid until the next call.
func (r *rig) deliver(k int) []*packet.Packet {
	n := 0
	for k <= 0 || n < k {
		want := 64
		if k > 0 {
			want = k - n
		}
		if short := n + want - len(r.batch); short > 0 {
			r.batch = append(r.batch, make([]*packet.Packet, short)...)
		}
		got := r.reseq.NextBatch(r.batch[n : n+want])
		if got == 0 {
			break
		}
		n += got
	}
	r.took(r.batch[:n])
	return r.batch[:n]
}

func (r *rig) took(pkts []*packet.Packet) {
	for _, p := range pkts {
		r.ids = append(r.ids, p.ID)
	}
}

// quiesce runs the arrival process to its fixed point: every line moves
// one hop per tick of the clock and the consumer takes all it can,
// until the lines are empty. What is left in the resequencer is waiting
// on a packet that will never come.
func (r *rig) quiesce() {
	for {
		moved := false
		for c := range r.queues {
			if r.arrive(c) || r.flight[c].len() > 0 {
				moved = true
			}
		}
		r.deliver(0)
		if !moved {
			return
		}
		r.now++
	}
}

// settle ends a run: quiesce, then Drain forces out what the
// simulation was still blocked on. It returns every ID delivered since
// the rig was built.
func (r *rig) settle() []uint64 {
	r.quiesce()
	r.took(r.reseq.Drain())
	return r.ids
}

// refreshCredits grants every channel a window past released(c), the
// receiver's cumulative release position on it.
func (r *rig) refreshCredits(released func(c int) int64) {
	for c := range r.queues {
		if err := r.gate.ApplyGrant(c, released(c)+r.window); err != nil {
			panic(err)
		}
	}
}

// sentBytes returns per-channel transmitted byte counts.
func (r *rig) sentBytes() []int64 {
	out := make([]int64, len(r.queues))
	for c, q := range r.queues {
		out[c] = q.Stats().SentBytes
	}
	return out
}

// delayLine is a FIFO of packets in flight, each due at a time on the
// rig's clock: fault jitter, table1's skew and the peer-skew
// propagation delays are all one of these per line.
type delayLine struct {
	q    []inFlight
	head int
}

type inFlight struct {
	p   *packet.Packet
	due int64
}

// push queues p to come due at the given time, or when its predecessor
// does if that is later: a channel never reorders.
func (l *delayLine) push(p *packet.Packet, due int64) {
	if n := len(l.q); n > l.head && l.q[n-1].due > due {
		due = l.q[n-1].due
	}
	l.q = append(l.q, inFlight{p, due})
}

// pop returns the head if it is due by now, nil otherwise.
func (l *delayLine) pop(now int64) *packet.Packet {
	if l.head == len(l.q) || l.q[l.head].due > now {
		return nil
	}
	p := l.q[l.head].p
	l.q[l.head].p = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return p
}

func (l *delayLine) len() int { return len(l.q) - l.head }

// probDropper drops data packets with probability p while ID < until,
// silently: Send reports success, so the sender's error accounting
// never moves.
type probDropper struct {
	inner channel.Sender
	rng   *rand.Rand
	p     float64
	until uint64
}

func (d *probDropper) Send(p *packet.Packet) error {
	if p.Kind == packet.Data && p.ID < d.until && d.rng.Float64() < d.p {
		return nil
	}
	return d.inner.Send(p)
}
