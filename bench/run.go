package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stripe"
)

const (
	warmUp     = time.Second
	drainQuiet = 300 * time.Millisecond
	// pingShare is the length of the ping phase that follows a traced
	// flood, as a share of the measured window; its first tenth is
	// warm-up. It is long enough that a disturbance of a second spoils a
	// minority of its ten parts.
	pingShare = 0.4
	// watchdogGrace is how far past its schedule a run may go before
	// the watchdog closes its sockets.
	watchdogGrace = 10 * time.Second
	windowSlices  = 10
	setupRepeats  = 15
)

// produce floods f until stop is set, in the workload's batch size.
// Packets come from the pool and go back to it as soon as SendBatch
// returns: socket channels copy in EncodeFrame, so holding them would
// only add harness garbage to allocs_per_pkt.
func (p *pair) produce(f *flow, stop *atomic.Bool, limit int64) error {
	pkts := make([]*stripe.Packet, p.w.batch)
	ln := p.tr.newLane(false)
	open := &p.sendSpan[f.end]
	for !stop.Load() && (limit < 0 || f.sent.Load() < limit) {
		for i := range pkts {
			pk := stripe.GetPacketSized(f.gen.size(f.nextSeq))
			f.gen.fill(pk.Payload, f.nextSeq)
			f.nextSeq++
			pkts[i] = pk
		}
		now := nanotime()
		for _, pk := range pkts {
			stamp(pk.Payload, now)
		}
		var n int
		var err error
		traced := p.tr.active()
		if traced {
			open.Store(ln.nextID())
		}
		if len(pkts) == 1 {
			if err = f.src.Send(pkts[0]); err == nil {
				n = 1
			}
		} else {
			n, err = f.src.SendBatch(pkts)
		}
		if traced {
			open.Store(0)
			id := ln.nextID()
			ln.add(spanSend, now, nanotime(), 0, id, n)
		}
		for i, pk := range pkts {
			pk.Release()
			pkts[i] = nil
		}
		f.sent.Add(int64(n))
		if err != nil {
			return fmt.Errorf("send on %s: %w", p.w.name, err)
		}
	}
	return nil
}

// consume is the one receiver of f.dst. In the flood phase it checks
// every delivery; the sentinel turns it into the ping server (on b) or
// the ping client (on a).
func (p *pair) consume(f *flow) {
	defer p.workers.Done()
	buf := make([]*stripe.Packet, p.w.batch)
	ln := p.tr.newLane(false)
	var last uint64
	var have bool
	for {
		var t0 int64
		traced := p.tr.active()
		if traced {
			t0 = nanotime()
		}
		n := 1
		if len(buf) == 1 {
			if buf[0] = f.dst.Recv(); buf[0] == nil {
				return
			}
		} else if n = f.dst.RecvBatch(buf); n == 0 {
			return
		}
		now := nanotime()
		if traced {
			ln.add(spanRecv, t0, now, 0, ln.nextID(), n)
		}
		measuring := p.measuring.Load()
		var inorder, bytes, misordered, wrong int64
		sentinel := false
		for i, pk := range buf[:n] {
			if binary.BigEndian.Uint64(pk.Payload) == sentinelSeq {
				sentinel = true
			} else if seq, st, ok := f.gen.verify(pk.Payload); !ok {
				wrong++
			} else if have && seq <= last {
				misordered++
			} else {
				inorder++
				bytes += int64(len(pk.Payload))
				last, have = seq, true
				if measuring && seq%latEvery == 0 {
					f.lat.add(now - st)
				}
			}
			pk.Release()
			buf[i] = nil
		}
		if sentinel {
			n--
		}
		f.delivered.Add(int64(n))
		f.misordered.Add(misordered)
		f.wrong.Add(wrong)
		p.ops.Add(inorder)
		p.bytes.Add(bytes)
		if f.inorder.Add(inorder) >= probePackets && f == p.ab {
			p.probeOnce.Do(func() { close(p.probeDone) })
		}
		if sentinel {
			if f == p.ab {
				p.pingServer(last, ln)
			} else {
				p.pingClient(ln)
			}
			return
		}
	}
}

// pingServer echoes every request back on the reverse direction, with
// the single-packet API. It ends when the session is closed.
func (p *pair) pingServer(last uint64, ln *lane) {
	req, echo := p.ab, p.ba
	open := &p.sendSpan[1]
	close(p.serverReady)
	for {
		var t0 int64
		traced := p.tr.active()
		if traced {
			t0 = nanotime()
		}
		pk := p.b().Recv()
		if pk == nil {
			return
		}
		now := nanotime()
		if traced {
			ln.add(spanRecv, t0, now, 0, ln.nextID(), 1)
		}
		req.delivered.Add(1)
		seq, st, ok := req.gen.verify(pk.Payload)
		switch {
		case !ok:
			req.wrong.Add(1)
		case seq <= last:
			req.misordered.Add(1)
		default:
			last = seq
			req.inorder.Add(1)
			p.bytes.Add(int64(len(pk.Payload)))
			if p.measuring.Load() {
				p.oneWay.add(now - st)
			}
		}
		if traced {
			open.Store(ln.nextID())
		}
		// Counted before the send: the client may see the echo, and the
		// run may be tallied, before Send returns here.
		echo.sent.Add(1)
		err := p.b().Send(pk)
		if traced {
			open.Store(0)
			ln.add(spanSend, now, nanotime(), 0, ln.nextID(), 1)
		}
		pk.Release()
		if err != nil {
			return
		}
	}
}

// pingClient keeps one request outstanding: a.Send, then a.Recv of the
// echo, until pingStop.
func (p *pair) pingClient(ln *lane) {
	defer close(p.pingDone)
	req, echo := p.ab, p.ba
	open := &p.sendSpan[0]
	for !p.pingStop.Load() {
		seq := req.nextSeq
		req.nextSeq++
		pk := stripe.GetPacketSized(req.gen.size(seq))
		req.gen.fill(pk.Payload, seq)
		size := int64(len(pk.Payload))
		traced := p.tr.active()
		t0 := nanotime()
		stamp(pk.Payload, t0)
		if traced {
			open.Store(ln.nextID())
		}
		req.sent.Add(1)
		err := p.a().Send(pk)
		var t1 int64
		if traced {
			open.Store(0)
			t1 = nanotime()
			ln.add(spanSend, t0, t1, 0, ln.nextID(), 1)
		}
		pk.Release()
		if err != nil {
			return
		}
		r := p.a().Recv()
		if r == nil {
			return
		}
		t2 := nanotime()
		if traced {
			ln.add(spanRecv, t1, t2, 0, ln.nextID(), 1)
		}
		echo.delivered.Add(1)
		if rseq, st, ok := req.gen.verify(r.Payload); ok && rseq == seq && st == t0 {
			echo.inorder.Add(1)
			p.bytes.Add(size)
			if p.w.pingpong {
				p.ops.Add(1)
			}
			if p.measuring.Load() {
				p.rtt.add(t2 - t0)
			}
		} else {
			echo.wrong.Add(1)
		}
		r.Release()
	}
}

// probe sends the first probePackets of the a->b flow and waits for
// the consumer to have seen them all in order.
func (p *pair) probe() error {
	var never atomic.Bool
	if err := p.produce(p.ab, &never, probePackets); err != nil {
		return err
	}
	t := time.NewTimer(watchdogGrace)
	defer t.Stop()
	select {
	case <-p.probeDone:
		return nil
	case <-t.C:
		return fmt.Errorf("probe: %d of %d packets delivered in order after %v",
			p.ab.inorder.Load(), probePackets, watchdogGrace)
	}
}

// snapshot is one reading of the window counters and the process
// meters.
type snapshot struct {
	t, ops, bytes, cpu int64
	mallocs            uint64
}

func (p *pair) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return snapshot{
		t:       nanotime(),
		ops:     p.ops.Load(),
		bytes:   p.bytes.Load(),
		cpu:     ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
	}
}

// window measures for d and returns the readings at its slice
// boundaries, first and last included. A short result means the run
// was aborted.
func (p *pair) window(d time.Duration) []snapshot {
	p.measuring.Store(true)
	p.tr.setOn(true)
	defer p.measuring.Store(false)
	defer p.tr.setOn(false)
	snaps := []snapshot{p.snapshot()}
	start := time.Now()
	for i := 1; i <= windowSlices; i++ {
		if !p.sleep(time.Until(start.Add(d * time.Duration(i) / windowSlices))) {
			break
		}
		snaps = append(snaps, p.snapshot())
	}
	return snaps
}

// drain waits until deliveries have been quiet for drainQuiet.
func (p *pair) drain() {
	seen := int64(-1)
	quietSince := time.Now()
	for {
		if d := p.ab.delivered.Load() + p.ba.delivered.Load(); d != seen {
			seen, quietSince = d, time.Now()
		} else if time.Since(quietSince) >= drainQuiet {
			return
		}
		if !p.sleep(10 * time.Millisecond) {
			return
		}
	}
}

// runOpts are the knobs of one run.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// grace overrides watchdogGrace and hook runs once the flood is
	// under way; tests use them to kill a pump and see the watchdog.
	grace time.Duration
	hook  func(p *pair)
}

// measurement is what one pass over a workload yields before it is
// turned into named metrics.
type measurement struct {
	snaps  []snapshot
	setups []float64
	// Latency samples in nanoseconds, in the order they were taken:
	// loaded is generator stamp to receive call returned during the
	// flood, one slice per flooding direction; oneWay and rtt come from
	// the ping phase.
	loaded    [][]uint32
	oneWay    []uint32
	rtt       []uint32
	flood     tally // the flows' counters once the flood has drained
	total     tally // and at the end of the run
	problems  []string
	stalled   bool
	latLost   int64
	shimDrops int64 // data packets the drop shims discarded
	tr        *tracer
	stats     [2]stripe.ReceiverStats
	sendStats [2]stripe.SenderStats
	snapsObs  [2]stripe.Snapshot
	stallObs  [2]time.Duration // CreditStall at window start
	idle      int64
}

type tally struct{ sent, delivered, inorder, misordered, wrong int64 }

func (p *pair) tally() tally {
	var t tally
	for _, f := range []*flow{p.ab, p.ba} {
		t.sent += f.sent.Load()
		t.delivered += f.delivered.Load()
		t.inorder += f.inorder.Load()
		t.misordered += f.misordered.Load()
		t.wrong += f.wrong.Load()
	}
	return t
}

// measure runs one workload once: set-up (repeated, for setup_s),
// warm-up, the measured window, drain, the ping phase, verification,
// tear-down.
func measure(w *workload, o runOpts) (*measurement, error) {
	m := &measurement{}
	if o.traced {
		m.tr = &tracer{}
	}
	set := newSampleSet()
	var p *pair
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		if p, err = buildPair(w, o.seed, m.tr, set); err != nil {
			return nil, err
		}
		if err = p.probe(); err != nil {
			p.close()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	defer p.close()

	window := time.Duration(o.seconds * float64(time.Second))
	// The ping phase feeds only per-layer metrics, so an untraced flood
	// ends at its drain.
	var ping time.Duration
	if o.traced {
		ping = time.Duration(pingShare * float64(window))
	}
	grace := watchdogGrace
	if o.grace > 0 {
		grace = o.grace
	}
	budget := warmUp + window + drainQuiet + ping + grace
	wd := time.AfterFunc(budget, func() {
		p.abort(fmt.Sprintf("watchdog: %s still running %v after start", w.name, budget), o.outDir)
	})
	defer wd.Stop()

	readStall := func() (d [2]time.Duration) {
		for e, s := range p.sess {
			d[e] = s.Snapshot().CreditStall
		}
		return
	}

	if !w.pingpong {
		p.setDrops(true)
		var stop atomic.Bool
		var producers sync.WaitGroup
		errs := make(chan error, 2) // one slot per producer
		flows := []*flow{p.ab}
		if w.duplex {
			flows = append(flows, p.ba)
		}
		for _, f := range flows {
			producers.Add(1)
			go func() {
				defer producers.Done()
				if err := p.produce(f, &stop, -1); err != nil {
					errs <- err
				}
			}()
		}
		if o.hook != nil {
			o.hook(p)
		}
		if p.sleep(warmUp) {
			m.stallObs = readStall()
			m.snaps = p.window(window)
		}
		stop.Store(true)
		producers.Wait()
		close(errs)
		for err := range errs {
			if !p.stalled() {
				m.problems = append(m.problems, err.Error())
			}
		}
		p.drain()
		p.setDrops(false)
	}
	m.flood = p.tally()
	m.captureStats(p) // before the ping phase adds its own traffic

	// Ping phase. The sentinels ride the sessions themselves, so each
	// consumer switches roles without a second receiver on its session;
	// the client's goes out once the server is in place, or a batched
	// receive on b could swallow the first request.
	if !p.stalled() && (w.pingpong || ping > 0) {
		for _, f := range []*flow{p.ab, p.ba} {
			s := stripe.GetPacketSized(minPayload)
			binary.BigEndian.PutUint64(s.Payload, sentinelSeq)
			err := f.src.Send(s)
			s.Release()
			if err != nil {
				m.problems = append(m.problems, "sentinel: "+err.Error())
			}
			select {
			case <-p.serverReady:
			case <-p.aborted:
			}
		}
		if w.pingpong {
			if p.sleep(warmUp) {
				m.stallObs = readStall()
				m.snaps = p.window(window)
			}
		} else if p.sleep(ping / 10) {
			p.measuring.Store(true)
			p.sleep(ping - ping/10)
			p.measuring.Store(false)
		}
		p.pingStop.Store(true)
		select {
		case <-p.pingDone:
		case <-p.aborted:
		}
	}
	if w.pingpong {
		m.flood = p.tally()
		m.captureStats(p)
	}
	m.total = p.tally()
	wd.Stop()
	m.stalled = p.stalled()
	if m.stalled {
		m.problems = append(m.problems, p.stallNote)
	}
	p.close()

	m.idle = p.idleReturns.Load()
	for _, f := range []*flow{p.ab, p.ba} {
		if len(f.lat.v) > 0 {
			m.loaded = append(m.loaded, f.lat.v)
		}
	}
	m.oneWay, m.rtt = p.oneWay.v, p.rtt.v
	m.latLost = p.ab.lat.dropped + p.ba.lat.dropped + p.oneWay.dropped + p.rtt.dropped
	for _, d := range p.drops {
		m.shimDrops += int64(len(d.droppedData))
	}
	m.verify(w)
	return m, nil
}

func (m *measurement) captureStats(p *pair) {
	for e, s := range p.sess {
		m.stats[e] = s.Stats()
		m.sendStats[e] = s.SendStats()
		m.snapsObs[e] = s.Snapshot()
	}
}

// verify applies the output checks of the one command; every finding
// is a line in problems and makes the run incorrect.
func (m *measurement) verify(w *workload) {
	bad := func(format string, args ...any) {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
	t := m.total
	if t.wrong > 0 {
		bad("%d deliveries failed the length, fill or CRC check", t.wrong)
	}
	if len(m.snaps) != windowSlices+1 && !m.stalled {
		bad("measured window was cut short: %d of %d slices", len(m.snaps)-1, windowSlices)
	}
	if w.lossRate == 0 {
		if t.inorder != t.sent || t.misordered != 0 {
			bad("lossless workload: sent %d, delivered %d, in order %d, out of order %d; receive stats a %+v b %+v",
				t.sent, t.delivered, t.inorder, t.misordered, m.stats[0], m.stats[1])
		}
	} else {
		if lost := t.sent - t.delivered; lost != m.shimDrops {
			bad("lossy workload: %d packets undelivered but the shims dropped %d", lost, m.shimDrops)
		}
		for e, s := range m.snapsObs {
			if s.InvariantViolations != 0 {
				bad("end %d: %d invariant violations, latest: %+v", e, s.InvariantViolations, s.Violations)
			}
		}
	}
	// Theorem 3.2: after K rounds every channel carries K*Quantum bytes
	// give or take Max + 2*Quantum.
	for e, st := range m.sendStats {
		if st.DataPackets == 0 {
			continue
		}
		bound := int64(slices.Max(w.sizes) + 2*quantum)
		for c, load := range st.PerChannel {
			if d := int64(st.Round)*quantum - load.Bytes; d > bound || d < -bound {
				bad("end %d channel %d: %d bytes after %d rounds is %d from its share, bound %d",
					e, c, load.Bytes, st.Round, d, bound)
			}
		}
	}
}

// failed counts the operations whose outcome broke the protocol's
// promise. On the lossless workloads that is every packet not
// delivered in order. On lossy_tcp_obs the shim's drops and the
// quasi-FIFO deliveries before each resync are the workload, not
// failures of the program: there a packet fails when it is neither
// delivered nor dropped by a shim, or is delivered damaged.
func (m *measurement) failed(w *workload) int64 {
	t := m.total
	if w.lossRate == 0 {
		return t.sent - t.inorder
	}
	unaccounted := t.sent - t.delivered - m.shimDrops
	if unaccounted < 0 {
		unaccounted = -unaccounted
	}
	return unaccounted + t.wrong
}
