package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// The traced run records spans from outside the program: around the
// calls the harness makes into the session (send, recv, arrive) and
// around the calls the session makes into its channels (tx, via a
// BatchSender-preserving shim) and the pumps make into theirs (rx).
// Lock wait cannot be split from work inside Arrive or SendBatch from
// out here; spans inside the program are a later issue.
type spanKind uint8

const (
	spanSend   spanKind = iota // Session.SendBatch / Send, one span per call
	spanTx                     // ChannelSender.SendBatch / Send, one span per call
	spanRx                     // ReadPacket, 1 call in perPacketSample
	spanArrive                 // Session.Arrive, 1 call in perPacketSample
	spanRecv                   // Session.RecvBatch / Recv, one span per call
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"stripe.send", "netchan.tx", "netchan.rx", "stripe.arrive", "stripe.recv"}

const (
	// perPacketSample is the sampling rate of the per-packet spans; at
	// 1.6M packets/s timing every Arrive would cost more than the
	// Arrive.
	perPacketSample = 64
	// laneSpanCap bounds the spans one lane keeps for the span file.
	// Aggregates cover every recorded span regardless.
	laneSpanCap = 8192
	// laneDurCap bounds the Arrive durations a pump's lane keeps for
	// stripe.arrive_p99_ns.
	laneDurCap = 1 << 17
)

// span is one timed call. id and parent are lane<<40 | ordinal, so a
// child written by one goroutine can name a parent another goroutine
// is still inside of. op groups the spans of one operation: the send
// call number on the transmit side, the pump's packet ordinal on the
// receive side.
type span struct {
	kind       spanKind
	start, end int64
	parent     uint64
	op         uint64
	pkts       int32
}

// lane is the span buffer of one goroutine (or of one channel shim,
// whose calls the channel's own contract already serialises), so
// recording takes no lock.
type lane struct {
	id     uint64
	count  uint64
	spans  []span
	agg    [nSpanKinds]struct{ calls, pkts, ns int64 }
	child  int64    // ns of the tx spans that had a send span for parent
	arrive []uint32 // durations of the arrive spans; nil on lanes that record none
}

func (l *lane) nextID() uint64 { return l.id<<40 | (l.count + 1) }

func (l *lane) add(kind spanKind, start, end int64, parent, op uint64, pkts int) {
	l.count++
	a := &l.agg[kind]
	a.calls++
	a.pkts += int64(pkts)
	a.ns += end - start
	if kind == spanTx && parent != 0 {
		l.child += end - start
	}
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{kind, start, end, parent, op, int32(pkts)})
	}
	if kind == spanArrive && len(l.arrive) < cap(l.arrive) {
		l.arrive = append(l.arrive, clampU32(end-start))
	}
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// tracer owns the lanes of one traced run. A nil *tracer is the
// untraced configuration: newLane returns nil and every call site
// guards on that.
type tracer struct {
	on    atomic.Bool // spans are recorded only inside the measured window
	mu    sync.Mutex
	lanes []*lane
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newLane hands out a buffer; a pump's lane also keeps its Arrive
// durations.
func (t *tracer) newLane(pump bool) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{id: uint64(len(t.lanes) + 1), spans: make([]span, 0, laneSpanCap)}
	if pump {
		l.arrive = make([]uint32, 0, laneDurCap)
	}
	t.lanes = append(t.lanes, l)
	return l
}

// totals sums one span kind over every lane.
func (t *tracer) totals(kind spanKind) (calls, pkts, ns int64) {
	for _, l := range t.lanes {
		calls += l.agg[kind].calls
		pkts += l.agg[kind].pkts
		ns += l.agg[kind].ns
	}
	return
}

// childTxNs is the time of the tx spans made from inside a send span;
// the marker timer's writes are the rest.
func (t *tracer) childTxNs() (ns int64) {
	for _, l := range t.lanes {
		ns += l.child
	}
	return
}

// arriveDurations returns the sorted durations of the sampled Arrive
// calls.
func (t *tracer) arriveDurations() []uint32 {
	var all []uint32
	for _, l := range t.lanes {
		all = append(all, l.arrive...)
	}
	slices.Sort(all)
	return all
}

// writeSpans dumps the kept spans as CSV, oldest lane first.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# per-packet spans (%s, %s) are sampled 1 in %d; each lane keeps its first %d spans\n",
		spanNames[spanRx], spanNames[spanArrive], perPacketSample, laneSpanCap)
	fmt.Fprintln(w, "name,id,start_ns,end_ns,parent,op,pkts")
	var b []byte
	for _, l := range t.lanes {
		for i, s := range l.spans {
			b = append(b[:0], spanNames[s.kind]...)
			b = append(b, ',')
			b = strconv.AppendUint(b, l.id<<40|uint64(i+1), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, s.end, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, s.parent, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, s.op, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(s.pkts), 10)
			b = append(b, '\n')
			w.Write(b)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setOn opens or closes the recording window; safe on nil.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}
