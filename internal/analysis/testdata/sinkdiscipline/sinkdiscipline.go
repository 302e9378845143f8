// Package sinkdiscipline is the stripevet self-test corpus for the
// sinkdiscipline pass. It type-checks against the real
// stripe/internal/obs package through the analysis loader.
package sinkdiscipline

import "stripe/internal/obs"

// spySink is a concrete sink; implementing Event is fine, and storing
// the delivered event involves no emission.
type spySink struct {
	last obs.Event
}

func (s *spySink) Event(e obs.Event) {
	s.last = e
}

// forward chains to another sink from inside its own Event method —
// the forwarding exemption.
type forward struct {
	next obs.Sink
}

func (f *forward) Event(e obs.Event) {
	f.next.Event(e)
}

func Construct() obs.Event {
	return obs.Event{} // want "constructed outside internal/obs"
}

func DirectCall(s obs.Sink, e obs.Event) {
	s.Event(e) // want "direct sink Event call outside internal/obs"
}

func ConcreteCall(s *spySink, e obs.Event) {
	s.Event(e) // want "direct sink Event call outside internal/obs"
}

// HotRecord is a hot path: recording through the nil-safe, sampled
// Collector hooks is the sanctioned surface; touching any other obs
// type directly from hot code bypasses sampling.
//
//stripe:hotpath
func HotRecord(c *obs.Collector, h *obs.Histogram, v int64) {
	h.Observe(v) // want "hot paths emit only through the sampled"
	c.Displaced(v)
}

// ColdRecord is not hot: direct Histogram use outside a hot path is
// allowed (it is not an event emission).
func ColdRecord(h *obs.Histogram, v int64) {
	h.Observe(v)
}
