// Flight recorder: a bounded ring of recent protocol events that dumps
// itself — together with a full metrics Snapshot — the moment an
// anomaly trips, so the events leading up to a failure are preserved
// even when nobody was watching the endpoint. It is an ordinary Sink:
// attach with Collector.AddSink and it records everything the
// collector emits.
//
// Anomaly triggers:
//
//   - credit stall: a KindCreditExhausted event (flow control vetoed a
//     send);
//   - resequencer overflow: a KindReseqOverflow event;
//   - resync storm: more than StormThreshold KindResync events inside
//     one StormWindow — isolated resyncs are routine loss recovery, a
//     burst means a channel is flapping;
//   - auto-eviction: a KindMemberEvict event (the health monitor
//     force-removed a channel after consecutive send errors or a health
//     score held below its threshold);
//   - fairness-band exit / any invariant break: a
//     KindInvariantViolation event from the attached Checker.
//
// Dumps are rate-limited by Cooldown so a persistent anomaly produces
// one post-mortem, not a dump per packet.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightDump is one post-mortem record: the trigger, the event history
// leading up to it, and the collector's metrics at that instant.
type FlightDump struct {
	At       int64   // nanoseconds since the process timebase
	Trigger  Event   // the event that tripped the dump
	Reason   string  // human-readable trigger description
	Events   []Event // retained history, oldest first (includes Trigger)
	Snapshot Snapshot
}

// FlightRecorderConfig tunes a FlightRecorder. The zero value selects
// the defaults.
type FlightRecorderConfig struct {
	// Size is the event ring capacity. Default 256.
	Size int
	// StormThreshold is the number of resync events inside StormWindow
	// that counts as a storm. Default 8; negative disables the trigger.
	StormThreshold int
	// StormWindow is the sliding window for storm detection. Default
	// 100ms.
	StormWindow time.Duration
	// Cooldown is the minimum spacing between dumps. Default 1s.
	Cooldown time.Duration
	// W, when non-nil, receives every dump as one line of JSON. The
	// last dump is always retained in memory regardless (LastDump).
	W io.Writer
	// OnDump, when non-nil, is called synchronously with every dump.
	OnDump func(FlightDump)
}

// FlightRecorder implements Sink. Create with NewFlightRecorder and
// attach with Collector.AddSink.
type FlightRecorder struct {
	col *Collector
	cfg FlightRecorderConfig

	mu       sync.Mutex
	buf      []Event
	next     int
	resyncs  []int64 // At stamps of recent resyncs, for storm detection
	lastDump int64   // At of the most recent dump
	dumped   bool
	dumps    int64
	last     FlightDump
}

// NewFlightRecorder returns a recorder that snapshots c when an
// anomaly trips. Attach it with c.AddSink(fr).
func NewFlightRecorder(c *Collector, cfg FlightRecorderConfig) *FlightRecorder {
	if cfg.Size <= 0 {
		cfg.Size = 256
	}
	if cfg.StormThreshold == 0 {
		cfg.StormThreshold = 8
	}
	if cfg.StormWindow <= 0 {
		cfg.StormWindow = 100 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Second
	}
	return &FlightRecorder{
		col: c,
		cfg: cfg,
		buf: make([]Event, 0, cfg.Size),
	}
}

// Event implements Sink: record the event, then test the anomaly
// triggers.
func (f *FlightRecorder) Event(e Event) {
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % cap(f.buf)
	}

	reason := ""
	switch e.Kind {
	case KindCreditExhausted:
		reason = "credit stall"
	case KindReseqOverflow:
		reason = "resequencer overflow"
	case KindInvariantViolation:
		reason = "invariant violation"
	case KindMemberEvict:
		reason = "channel auto-evicted"
	case KindResync:
		if f.cfg.StormThreshold > 0 {
			cutoff := e.At - f.cfg.StormWindow.Nanoseconds()
			keep := f.resyncs[:0]
			for _, at := range f.resyncs {
				if at >= cutoff {
					keep = append(keep, at)
				}
			}
			f.resyncs = append(keep, e.At)
			if len(f.resyncs) > f.cfg.StormThreshold {
				reason = "resync storm"
				f.resyncs = f.resyncs[:0]
			}
		}
	}
	if reason == "" || (f.dumped && e.At-f.lastDump < f.cfg.Cooldown.Nanoseconds()) {
		f.mu.Unlock()
		return
	}
	f.lastDump, f.dumped = e.At, true
	events := f.eventsLocked()
	f.mu.Unlock()

	// Snapshot outside the lock: the collector may call back into other
	// sinks or the checker while we assemble the dump.
	d := FlightDump{
		At:       e.At,
		Trigger:  e,
		Reason:   reason,
		Events:   events,
		Snapshot: f.col.Snapshot(),
	}

	f.mu.Lock()
	f.dumps++
	f.last = d
	f.mu.Unlock()

	if f.cfg.W != nil {
		if b, err := json.Marshal(d); err == nil {
			f.cfg.W.Write(append(b, '\n'))
		}
	}
	if f.cfg.OnDump != nil {
		f.cfg.OnDump(d)
	}
}

// eventsLocked copies the ring, oldest first. Caller holds f.mu.
func (f *FlightRecorder) eventsLocked() []Event {
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Events returns the currently retained events, oldest first.
func (f *FlightRecorder) Events() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eventsLocked()
}

// Dumps returns how many post-mortems have fired.
func (f *FlightRecorder) Dumps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// LastDump returns the most recent post-mortem and whether one exists.
func (f *FlightRecorder) LastDump() (FlightDump, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.dumps > 0
}
