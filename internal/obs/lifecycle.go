// Packet lifecycle tracing: per-packet latency attribution across the
// five protocol stages — stripe (accepted by the striper, possibly
// gated), channel send, channel receive, buffer, deliver — without any
// wire change. Stamps are monotonic nanoseconds held in a fixed-size
// side table keyed by the packet's sequence identity: the explicit
// sequence number in the with-header variants (which crosses the wire),
// or the striper's instrumentation-only ID for in-process channels.
//
// Tracing is sampled (default one packet in 16) so an attached tracer
// stays inside the observability layer's overhead budget; set Sample: 1
// to stamp every packet in tests and offline analyses. On delivery the
// tracer folds the stamps into four latency histograms:
//
//   - end-to-end: stripe -> deliver, the full protocol latency.
//   - resequencing delay: receive -> deliver, the time a packet sat in
//     the resequencer. Theorem 5.1 bounds its recovery tail by one
//     marker period plus a one-way delay.
//   - head-of-line blocking: receive -> deliver restricted to in-order
//     (displacement 0) packets — time spent waiting not for this
//     packet's own channel but for the scan to work through others.
//   - send stall: first gated attempt -> successful transmit, the
//     per-packet face of credit exhaustion.
//
// Completed lifecycles are additionally retained in a bounded ring for
// offline inspection; WriteChromeTrace renders them (plus protocol
// events) as chrome://tracing JSON.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// epoch0 is the process-wide timebase: every tracer stamp and every
// Event.At is nanoseconds since this instant, so records from different
// collectors and tracers in one process align on one axis.
var epoch0 = time.Now()

// Now returns monotonic nanoseconds since the process timebase. The
// receive ledger's LastMarkerAt stamps are on this axis too, which is
// what lets the windowed rollup compare them with its own fold times.
func Now() int64 { return time.Since(epoch0).Nanoseconds() }

// PacketTrace is one completed packet lifecycle. All stamps are
// nanoseconds on the process timebase; zero means the stage was never
// observed (e.g. Arrived on a packet traced only at the sender).
type PacketTrace struct {
	Key          uint64 // sequence identity (Seq or striper ID)
	Channel      int32
	Displacement int64
	StripedNs    int64 // accepted by the striper (first gated attempt)
	SentNs       int64 // pushed onto the channel
	ArrivedNs    int64 // physically received off the channel
	BufferedNs   int64 // entered a resequencer buffer
	DeliveredNs  int64 // handed to the application in order
}

// TracerConfig sizes a Tracer. The zero value selects the defaults.
type TracerConfig struct {
	// Slots is the side-table capacity; rounded up to a power of two.
	// Default 4096. A slot is reclaimed at delivery; a packet lost in
	// flight leaves its slot to be evicted by a later key.
	Slots int
	// Sample traces every Sample-th packet (by sequence identity);
	// rounded up to a power of two. Default 16; use 1 to stamp every
	// packet when overhead does not matter.
	Sample int
	// Recent is how many completed lifecycles the tracer retains for
	// chrome-trace export. Default 512; negative disables retention.
	Recent int
}

// maxLatChannels bounds the tracer's per-channel latency accumulators;
// it matches the protocol's 64-slot channel universe.
const maxLatChannels = 64

// slot is one side-table entry. Fields are atomics because the
// transmit and receive paths may stamp from different goroutines.
type slot struct {
	key      atomic.Uint64 // packet key + 1; 0 = free
	striped  atomic.Int64
	sent     atomic.Int64
	arrived  atomic.Int64
	buffered atomic.Int64
	channel  atomic.Int32
}

// Tracer is the packet lifecycle side table plus its latency
// histograms. Create with NewTracer, attach with Collector.SetTracer
// (attach the same tracer to both ends' collectors to trace across a
// session pair). All methods are safe for concurrent use and safe on a
// nil receiver.
type Tracer struct {
	slotMask   uint64
	sampleMask uint64
	slots      []slot

	endToEnd   Histogram
	reseqDelay Histogram
	headOfLine Histogram
	sendStall  Histogram

	tracked atomic.Int64 // completed lifecycles folded into histograms
	evicted atomic.Int64 // slots reused before delivery (loss or collision)
	torn    atomic.Int64 // deliveries dropped: slot reused mid-read

	// Per-channel end-to-end latency accumulators (sum/count of
	// stripe -> deliver, ns) feeding the windowed-telemetry EWMAs.
	// Fixed at the membership universe bound so delivery never indexes
	// out of range.
	latSumOn [maxLatChannels]atomic.Int64
	latCntOn [maxLatChannels]atomic.Int64

	mu     sync.Mutex
	recent []PacketTrace
	next   int
}

// NewTracer returns a tracer with the given configuration.
func NewTracer(cfg TracerConfig) *Tracer {
	slots := ceilPow2(cfg.Slots, 4096)
	sample := ceilPow2(cfg.Sample, 16)
	recent := cfg.Recent
	if recent == 0 {
		recent = 512
	}
	t := &Tracer{
		slotMask:   uint64(slots - 1),
		sampleMask: uint64(sample - 1),
		slots:      make([]slot, slots),
	}
	if recent > 0 {
		t.recent = make([]PacketTrace, 0, recent)
	}
	t.endToEnd.setBounds(latencyBounds[:])
	t.reseqDelay.setBounds(latencyBounds[:])
	t.headOfLine.setBounds(latencyBounds[:])
	t.sendStall.setBounds(latencyBounds[:])
	return t
}

func ceilPow2(v, def int) int {
	if v <= 0 {
		return def
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// SampleEvery returns the sampling period (1 = every packet).
func (t *Tracer) SampleEvery() int64 {
	if t == nil {
		return 0
	}
	return int64(t.sampleMask + 1)
}

func (t *Tracer) sampled(key uint64) bool { return key&t.sampleMask == 0 }

// claim points the slot for key at this packet, evicting a stale
// occupant (a packet lost in flight, or a key collision).
func (t *Tracer) claim(key uint64) *slot {
	s := &t.slots[key&t.slotMask]
	if s.key.Load() != key+1 {
		if s.key.Load() != 0 {
			t.evicted.Add(1)
		}
		s.striped.Store(0)
		s.sent.Store(0)
		s.arrived.Store(0)
		s.buffered.Store(0)
		s.channel.Store(-1)
		s.key.Store(key + 1)
	}
	return s
}

// lookup returns the slot for key only if this packet still owns it.
func (t *Tracer) lookup(key uint64) *slot {
	s := &t.slots[key&t.slotMask]
	if s.key.Load() != key+1 {
		return nil
	}
	return s
}

// onGated stamps the stripe stage for a packet whose transmission flow
// control just vetoed: the stripe clock starts at the first attempt, so
// sent − striped measures the credit stall the packet experienced.
//
//stripe:hotpath
func (t *Tracer) onGated(key uint64) {
	if t == nil || !t.sampled(key) {
		return
	}
	s := t.claim(key)
	if s.striped.Load() == 0 {
		s.striped.Store(Now())
	}
}

// onSend stamps the channel-send stage (and the stripe stage, when the
// packet was never gated) after a successful transmit on channel ch.
//
//stripe:hotpath
func (t *Tracer) onSend(key uint64, ch int) {
	if t == nil || !t.sampled(key) {
		return
	}
	now := Now()
	s := t.claim(key)
	if s.striped.Load() == 0 {
		s.striped.Store(now)
	}
	s.sent.Store(now)
	s.channel.Store(int32(ch))
}

// onArrive stamps the channel-receive stage on channel ch.
//
//stripe:hotpath
func (t *Tracer) onArrive(key uint64, ch int) {
	if t == nil || !t.sampled(key) {
		return
	}
	s := t.lookup(key)
	if s == nil {
		// Not stamped at a sender sharing this tracer (e.g. the peer is
		// a remote process): claim at arrival so resequencing delay is
		// still measured.
		s = t.claim(key)
	}
	s.arrived.Store(Now())
	s.channel.Store(int32(ch))
}

// onBuffered stamps the buffer stage: the packet entered a resequencer
// buffer to await its turn in the delivery order.
//
//stripe:hotpath
func (t *Tracer) onBuffered(key uint64) {
	if t == nil || !t.sampled(key) {
		return
	}
	if s := t.lookup(key); s != nil {
		s.buffered.Store(Now())
	}
}

// onDeliver completes the lifecycle: reads the stamps, folds the
// latencies into the histograms, retains the record, and frees the
// slot.
//
//stripe:hotpath
func (t *Tracer) onDeliver(key uint64, displacement int64) {
	if t == nil || !t.sampled(key) {
		return
	}
	s := t.lookup(key)
	if s == nil {
		return // never stamped (tracer attached mid-stream) or evicted
	}
	rec := PacketTrace{
		Key:          key,
		Channel:      s.channel.Load(),
		Displacement: displacement,
		StripedNs:    s.striped.Load(),
		SentNs:       s.sent.Load(),
		ArrivedNs:    s.arrived.Load(),
		BufferedNs:   s.buffered.Load(),
	}
	if s.key.Load() != key+1 {
		// The slot was evicted between lookup and read: the stamps are
		// torn. Drop the sample rather than pollute the histograms.
		t.torn.Add(1)
		return
	}
	s.key.Store(0)
	now := Now()
	rec.DeliveredNs = now
	t.tracked.Add(1)
	if rec.StripedNs > 0 {
		e2e := now - rec.StripedNs
		t.endToEnd.Observe(e2e)
		if ch := rec.Channel; ch >= 0 && int(ch) < maxLatChannels {
			t.latSumOn[ch].Add(e2e)
			t.latCntOn[ch].Add(1)
		}
		if rec.SentNs >= rec.StripedNs {
			t.sendStall.Observe(rec.SentNs - rec.StripedNs)
		}
	}
	if rec.ArrivedNs > 0 {
		d := now - rec.ArrivedNs
		t.reseqDelay.Observe(d)
		if displacement == 0 {
			t.headOfLine.Observe(d)
		}
	}
	t.retain(rec)
}

//stripe:allowescape mutex-guarded retention ring, reached only for the 1-in-SampleEvery sampled lifecycles that complete
func (t *Tracer) retain(rec PacketTrace) {
	if cap(t.recent) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recent) < cap(t.recent) {
		t.recent = append(t.recent, rec)
	} else {
		t.recent[t.next] = rec
		t.next = (t.next + 1) % cap(t.recent)
	}
}

// Recent returns the retained completed lifecycles, oldest first.
func (t *Tracer) Recent() []PacketTrace {
	if t == nil {
		return nil
	}
	return t.AppendRecent(nil, 1<<31-1)
}

// AppendRecent appends up to max of the newest retained lifecycles to
// dst (oldest first among those kept) and returns the extended slice.
// Exporters reuse dst across scrapes so a polling loop does not
// reallocate the copy every request.
func (t *Tracer) AppendRecent(dst []PacketTrace, max int) []PacketTrace {
	if t == nil || max <= 0 {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.recent)
	skip := n - max
	if skip < 0 {
		skip = 0
	}
	// Oldest-first logical order is recent[next:] then recent[:next].
	for _, part := range [2][]PacketTrace{t.recent[t.next:], t.recent[:t.next]} {
		if skip >= len(part) {
			skip -= len(part)
			continue
		}
		dst = append(dst, part[skip:]...)
		skip = 0
	}
	return dst
}

// TracerSnapshot is a point-in-time copy of the tracer's histograms
// and bookkeeping counters.
type TracerSnapshot struct {
	SampleEvery int64 // sampling period (1 = every packet)
	Tracked     int64 // completed lifecycles
	Evicted     int64 // slots reused before delivery (loss/collision)
	Torn        int64 // deliveries dropped to a concurrent slot reuse

	// All histograms are in nanoseconds.
	EndToEnd   HistogramSnapshot // stripe -> deliver
	ReseqDelay HistogramSnapshot // receive -> deliver
	HeadOfLine HistogramSnapshot // receive -> deliver, in-order packets
	SendStall  HistogramSnapshot // first gated attempt -> transmit
}

// Snapshot copies the tracer's aggregates. Safe on nil (zero value).
func (t *Tracer) Snapshot() TracerSnapshot {
	if t == nil {
		return TracerSnapshot{}
	}
	return TracerSnapshot{
		SampleEvery: t.SampleEvery(),
		Tracked:     t.tracked.Load(),
		Evicted:     t.evicted.Load(),
		Torn:        t.torn.Load(),
		EndToEnd:    t.endToEnd.Snapshot(),
		ReseqDelay:  t.reseqDelay.Snapshot(),
		HeadOfLine:  t.headOfLine.Snapshot(),
		SendStall:   t.sendStall.Snapshot(),
	}
}

// --- Collector integration ---------------------------------------------

// SetTracer attaches a lifecycle tracer; engines stamp through the
// collector's Trace* hooks. Attach the same tracer to both collectors
// of a session pair to measure end-to-end latency across them. A nil
// tracer detaches.
func (c *Collector) SetTracer(t *Tracer) {
	if c == nil {
		return
	}
	if t == nil {
		c.tracer.Store(nil)
		return
	}
	c.tracer.Store(t)
}

// Tracer returns the attached lifecycle tracer, or nil.
func (c *Collector) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	return c.tracer.Load()
}

// traceTarget returns the tracer only when it should stamp this key:
// the nil and sampling rejections happen here, in the collector hook,
// so the common non-sampled packet never enters a tracer method.
func (c *Collector) traceTarget(key uint64) *Tracer {
	if c == nil {
		return nil
	}
	t := c.tracer.Load()
	if t == nil || key&t.sampleMask != 0 {
		return nil
	}
	return t
}

// TraceGated stamps the stripe stage for a packet flow control just
// vetoed; key is the sequence identity the packet will carry.
func (c *Collector) TraceGated(key uint64) {
	if t := c.traceTarget(key); t != nil {
		t.onGated(key)
	}
}

// TraceSend stamps the stripe and channel-send stages after a
// successful transmit on channel ch.
func (c *Collector) TraceSend(key uint64, ch int) {
	if t := c.traceTarget(key); t != nil {
		t.onSend(key, ch)
	}
}

// TraceArrive stamps the channel-receive stage on channel ch.
func (c *Collector) TraceArrive(key uint64, ch int) {
	if t := c.traceTarget(key); t != nil {
		t.onArrive(key, ch)
	}
}

// TraceBuffered stamps the buffer stage.
func (c *Collector) TraceBuffered(key uint64) {
	if t := c.traceTarget(key); t != nil {
		t.onBuffered(key)
	}
}

// TraceDeliver completes a packet's lifecycle at in-order delivery.
func (c *Collector) TraceDeliver(key uint64, displacement int64) {
	if t := c.traceTarget(key); t != nil {
		t.onDeliver(key, displacement)
	}
}
