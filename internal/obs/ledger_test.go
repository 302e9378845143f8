package obs

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// setSentinel sets struct field i of v (a pointer to struct) to a value
// no other field holds and returns its decimal rendering ("" for
// bools, which are set true).
func setSentinel(v reflect.Value, i int) string {
	f := v.Elem().Field(i)
	n := int64(7_000_001 + i)
	switch f.Kind() {
	case reflect.Int64:
		f.SetInt(n)
	case reflect.Uint64:
		f.SetUint(uint64(n))
	case reflect.Bool:
		f.SetBool(true)
		return ""
	default:
		panic("ledger field of unsupported kind " + f.Kind().String())
	}
	return strconv.FormatInt(n, 10)
}

// TestEveryLedgerFieldIsSurfaced is the guard that a counter cannot be
// added to an engine's ledger without reaching an operator: every field
// of the send and receive rows, and every ledger-level scalar, must
// come back out of Snapshot, show up in the health report, and move the
// Prometheus exposition (carrying its value, for numeric fields).
func TestEveryLedgerFieldIsSurfaced(t *testing.T) {
	render := func(c *Collector) (prom, health string) {
		var sb strings.Builder
		c.WritePrometheus(&sb)
		b, err := json.Marshal(c.HealthReport())
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), string(b)
	}
	zero := NewCollector(2)
	zero.PublishSend(&SendLedger{PerChannel: make([]SendChannel, 2)})
	zero.PublishRecv(&RecvLedger{PerChannel: make([]RecvChannel, 2)})
	promZero, _ := render(zero)

	// check publishes a ledger pair with one field set and verifies it
	// surfaced; row says whether the field is per-channel.
	check := func(name, want string, send *SendLedger, recv *RecvLedger, row bool) {
		t.Helper()
		c := NewCollector(2)
		c.PublishSend(send)
		c.PublishRecv(recv)
		snap := c.Snapshot()
		if row {
			if snap.Channels[1].Tx != send.PerChannel[1] || snap.Channels[1].Rx != recv.PerChannel[1] {
				t.Errorf("%s: Snapshot row %+v does not carry the published rows", name, snap.Channels[1])
			}
		}
		prom, health := render(c)
		if prom == promZero {
			t.Errorf("%s: setting it does not change the Prometheus exposition", name)
		}
		if want == "" {
			return
		}
		if !strings.Contains(prom, " "+want+"\n") {
			t.Errorf("%s: value %s is not in the Prometheus exposition", name, want)
		}
		if row && !strings.Contains(health, `"`+name[strings.Index(name, ".")+1:]+`":`+want) {
			t.Errorf("%s: value %s is not in the health report", name, want)
		}
	}
	fresh := func() (*SendLedger, *RecvLedger) {
		return &SendLedger{PerChannel: make([]SendChannel, 2)}, &RecvLedger{PerChannel: make([]RecvChannel, 2)}
	}

	for i := 0; i < reflect.TypeOf(SendChannel{}).NumField(); i++ {
		send, recv := fresh()
		want := setSentinel(reflect.ValueOf(&send.PerChannel[1]), i)
		check("SendChannel."+reflect.TypeOf(SendChannel{}).Field(i).Name, want, send, recv, true)
	}
	for i := 0; i < reflect.TypeOf(RecvChannel{}).NumField(); i++ {
		send, recv := fresh()
		want := setSentinel(reflect.ValueOf(&recv.PerChannel[1]), i)
		check("RecvChannel."+reflect.TypeOf(RecvChannel{}).Field(i).Name, want, send, recv, true)
	}
	// Ledger-level scalars. The totals (DataPackets..., the embedded row)
	// are sums of the rows, covered above.
	for _, name := range []string{"Round", "Epoch", "MaxPacket", "Resets"} {
		send, recv := fresh()
		f, _ := reflect.TypeOf(SendLedger{}).FieldByName(name)
		check("SendLedger."+name, setSentinel(reflect.ValueOf(send), f.Index[0]), send, recv, false)
	}
	for _, name := range []string{"Resets", "SelfHeals", "FastForwards", "Overflows", "Occupancy", "HighWater"} {
		send, recv := fresh()
		f, _ := reflect.TypeOf(RecvLedger{}).FieldByName(name)
		check("RecvLedger."+name, setSentinel(reflect.ValueOf(recv), f.Index[0]), send, recv, false)
	}
	if n := reflect.TypeOf(SendLedger{}).NumField(); n != 8 {
		t.Errorf("SendLedger has %d fields; list the new scalar above", n)
	}
	if n := reflect.TypeOf(RecvLedger{}).NumField(); n != 8 {
		t.Errorf("RecvLedger has %d fields; list the new scalar above", n)
	}
}

// TestLedgerTotalsSumEveryCounter checks Sum and Snapshot total every
// additive row field, so a new counter cannot be left out of
// Stats().X: only the stamps and membership gauges are not additive.
func TestLedgerTotalsSumEveryCounter(t *testing.T) {
	notAdditive := map[string]bool{
		"LastMarkerAt": true, "MarkerTxNs": true, "MarkerRxNs": true, // stamps
		"Quantum": true, "Surplus": true, "CreditRemaining": true, "JoinRound": true, "JoinBytes": true, // gauges
	}
	ones := func(v reflect.Value) {
		for i := 0; i < v.Elem().NumField(); i++ {
			if f := v.Elem().Field(i); f.Kind() == reflect.Int64 {
				f.SetInt(1)
			}
		}
	}
	recv := RecvLedger{PerChannel: make([]RecvChannel, 3)}
	send := SendLedger{PerChannel: make([]SendChannel, 3)}
	for i := range recv.PerChannel {
		ones(reflect.ValueOf(&recv.PerChannel[i]))
		ones(reflect.ValueOf(&send.PerChannel[i]))
	}
	recv.Sum()
	send.Sum()
	c := NewCollector(3)
	c.PublishSend(&send)
	c.PublishRecv(&recv)
	snap := c.Snapshot()
	if snap.Rx != recv.RecvChannel {
		t.Errorf("Snapshot.Rx %+v != RecvLedger.Sum %+v", snap.Rx, recv.RecvChannel)
	}
	if send.DataPackets != 3 || send.DataBytes != 3 || send.Markers != 3 {
		t.Errorf("SendLedger.Sum: %+v", send)
	}
	for name, total := range map[string]reflect.Value{"Rx": reflect.ValueOf(snap.Rx), "Tx": reflect.ValueOf(snap.Tx)} {
		for i := 0; i < total.NumField(); i++ {
			fname := total.Type().Field(i).Name
			if total.Field(i).Kind() != reflect.Int64 {
				continue
			}
			want := int64(3)
			if notAdditive[fname] {
				want = 0
			}
			if got := total.Field(i).Int(); got != want {
				t.Errorf("%s.%s totals to %d over three rows of 1, want %d", name, fname, got, want)
			}
		}
	}
}

// TestCheckerConservation checks the conservation identity is asserted
// at every receive-ledger publication: green on a ledger where every
// arrival has a named fate, red — naming the channel and the count —
// the moment one discard is left unnamed, edge-triggered, and green
// again once the books balance.
func TestCheckerConservation(t *testing.T) {
	c := NewCollector(2)
	ring := NewRingSink(8)
	c.AddSink(ring)
	k := NewChecker()
	c.SetChecker(k)

	led := RecvLedger{PerChannel: make([]RecvChannel, 2)}
	led.PerChannel[0] = RecvChannel{Arrived: 20, Delivered: 9, Buffered: 2, Markers: 3, Telemetry: 1, Control: 1,
		OldEpochDrops: 1, OverflowDrops: 1, MemberDrops: 1, MemberLost: 1}
	led.PerChannel[1] = RecvChannel{Arrived: 14, Delivered: 10,
		BadMarkers: 1, BadMembers: 1, BadTelemetry: 1, UnknownKinds: 1}
	c.PublishRecv(&led)
	if n := k.ViolationCount(); n != 0 {
		t.Fatalf("balanced ledger violated %d times: %v", n, k.Violations())
	}

	// One arrival on channel 1 is discarded without a name.
	led.PerChannel[1].Arrived++
	c.PublishRecv(&led)
	vs := k.Violations()
	if len(vs) != 1 || vs[0].Check != "conservation" || vs[0].Channel != 1 || vs[0].Value != 1 {
		t.Fatalf("unnamed discard: %+v", vs)
	}
	if !strings.Contains(vs[0].Detail, "1 packets have no fate") {
		t.Fatalf("detail: %q", vs[0].Detail)
	}
	if evs := ring.Events(); len(evs) != 1 || evs[0].Kind != KindInvariantViolation || evs[0].Channel != 1 {
		t.Fatalf("events: %+v", evs)
	}
	c.PublishRecv(&led) // still broken: edge-triggered
	if n := k.ViolationCount(); n != 1 {
		t.Fatalf("persistent break re-fired: %d", n)
	}

	led.PerChannel[1].UnknownKinds++ // the discard gets its name
	c.PublishRecv(&led)
	led.PerChannel[0].Delivered++ // a fate with no arrival is just as wrong
	c.PublishRecv(&led)
	if vs := k.Violations(); len(vs) != 2 || vs[1].Channel != 0 || vs[1].Value != -1 {
		t.Fatalf("phantom delivery: %+v", vs)
	}
}
