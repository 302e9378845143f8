package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestFlightRecorderCreditTrigger checks a credit stall dumps the
// retained history plus a metrics snapshot, as one JSON line.
func TestFlightRecorderCreditTrigger(t *testing.T) {
	c := NewCollector(2)
	var sb strings.Builder
	fr := NewFlightRecorder(c, FlightRecorderConfig{W: &sb})
	c.AddSink(fr)

	// Routine events first: they are history, not triggers.
	c.Emit(KindResync, 0, 3, -100)
	c.Emit(KindSkip, 1, 4, 0)
	if fr.Dumps() != 0 {
		t.Fatal("routine events tripped a dump")
	}

	l := newTestLedgers(c)
	l.stripe(0, 700)
	l.publish()
	c.Emit(KindCreditExhausted, 0, 0, 700)
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d", fr.Dumps())
	}
	d, ok := fr.LastDump()
	if !ok || d.Reason != "credit stall" || d.Trigger.Kind != KindCreditExhausted {
		t.Fatalf("dump: %+v", d.Trigger)
	}
	if len(d.Events) != 3 || d.Events[0].Kind != KindResync || d.Events[2].Kind != KindCreditExhausted {
		t.Fatalf("dump history: %+v", d.Events)
	}
	if d.Snapshot.Channels[0].Tx.Bytes != 700 {
		t.Fatalf("dump snapshot: %+v", d.Snapshot.Channels)
	}

	// The writer got exactly one parseable JSON line.
	line := strings.TrimSpace(sb.String())
	if strings.Contains(line, "\n") {
		t.Fatalf("more than one line: %q", line)
	}
	var back FlightDump
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("unmarshal dump: %v", err)
	}
	if back.Reason != "credit stall" || len(back.Events) != 3 {
		t.Fatalf("round-tripped dump: %+v", back)
	}
}

// TestFlightRecorderCooldown checks a persistent anomaly produces one
// post-mortem per cooldown period, not one per event.
func TestFlightRecorderCooldown(t *testing.T) {
	c := NewCollector(1)
	fr := NewFlightRecorder(c, FlightRecorderConfig{Cooldown: time.Hour})
	c.AddSink(fr)
	for i := 0; i < 10; i++ {
		c.Emit(KindCreditExhausted, 0, 0, 100)
	}
	if got := fr.Dumps(); got != 1 {
		t.Fatalf("dumps = %d, want 1 (cooldown)", got)
	}

	// With a tiny cooldown every trigger dumps.
	c2 := NewCollector(1)
	fr2 := NewFlightRecorder(c2, FlightRecorderConfig{Cooldown: time.Nanosecond})
	c2.AddSink(fr2)
	c2.Emit(KindCreditExhausted, 0, 0, 100)
	time.Sleep(time.Millisecond)
	c2.Emit(KindCreditExhausted, 0, 0, 100)
	if got := fr2.Dumps(); got != 2 {
		t.Fatalf("dumps = %d, want 2", got)
	}
}

// TestFlightRecorderResyncStorm checks isolated resyncs pass but a
// burst above the threshold trips the storm trigger.
func TestFlightRecorderResyncStorm(t *testing.T) {
	c := NewCollector(1)
	fr := NewFlightRecorder(c, FlightRecorderConfig{StormThreshold: 3, StormWindow: time.Minute})
	c.AddSink(fr)
	for i := 0; i < 3; i++ {
		c.Emit(KindResync, 0, uint64(i), 0)
	}
	if fr.Dumps() != 0 {
		t.Fatal("threshold resyncs tripped early")
	}
	c.Emit(KindResync, 0, 4, 0)
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d after storm", fr.Dumps())
	}
	d, _ := fr.LastDump()
	if d.Reason != "resync storm" {
		t.Fatalf("reason = %q", d.Reason)
	}

	// Negative threshold disables the trigger entirely.
	c2 := NewCollector(1)
	fr2 := NewFlightRecorder(c2, FlightRecorderConfig{StormThreshold: -1})
	c2.AddSink(fr2)
	for i := 0; i < 50; i++ {
		c2.Emit(KindResync, 0, uint64(i), 0)
	}
	if fr2.Dumps() != 0 {
		t.Fatal("disabled storm trigger fired")
	}
}

// TestFlightRecorderRing checks the event ring is bounded and ordered.
func TestFlightRecorderRing(t *testing.T) {
	c := NewCollector(1)
	fr := NewFlightRecorder(c, FlightRecorderConfig{Size: 4, StormThreshold: -1})
	c.AddSink(fr)
	for i := 0; i < 10; i++ {
		c.Emit(KindSkip, 0, uint64(i), 0)
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring out of order: %+v", evs)
		}
	}
	if evs[3].Round != 9 {
		t.Fatalf("newest event: %+v", evs[3])
	}
}

// TestFlightRecorderOnDump checks the synchronous callback and the
// OnDump/LastDump agreement.
func TestFlightRecorderOnDump(t *testing.T) {
	c := NewCollector(1)
	var got []FlightDump
	fr := NewFlightRecorder(c, FlightRecorderConfig{OnDump: func(d FlightDump) { got = append(got, d) }})
	c.AddSink(fr)
	c.Emit(KindReseqOverflow, 0, 0, -128)
	if len(got) != 1 || got[0].Reason != "resequencer overflow" {
		t.Fatalf("callback: %+v", got)
	}
	last, ok := fr.LastDump()
	if !ok || last.At != got[0].At {
		t.Fatalf("LastDump disagrees: %+v vs %+v", last, got[0])
	}
}
