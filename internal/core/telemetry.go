package core

import (
	"time"

	"stripe/internal/obs"
	"stripe/internal/packet"
)

// nowNs is the default clock for marker tx stamps and telemetry
// receive stamps: the process wall clock in nanoseconds. Both ends of
// a one-way delay sample read different hosts' clocks, so raw samples
// embed the inter-host offset; the offset is common to every channel,
// which is why PeerView only interprets cross-channel differences.
func nowNs() int64 { return time.Now().UnixNano() }

// harvestMarker reads what a physical marker arrival on channel c
// proves and says: the arrival stamp the windowed rollup reads (marker
// age, delay skew), the (sender tx, receiver rx) timestamp pair that is
// one one-way delay sample, the exact cumulative loss implied by the
// marker's authoritative Sent position (channels are FIFO, so every byte
// Sent counts has either arrived — ArrivedBytes counted it — or is
// lost), and the grant the peer piggybacked for the local sender, which
// goes to the OnGrant hook. It runs at arrival rather than consumption
// because arrival time is the delay sample's semantics and a marker
// buffered behind data must still update the loss view and open the gate
// promptly; the consume paths give the marker its fate.
//
//stripe:allowescape marker-cadence only, and the decode's magic-string check is compiler-elided; the valid-marker path is allocation-free
func (r *Resequencer) harvestMarker(c int, p *packet.Packet) {
	m, err := packet.DecodeMarker(p.Payload)
	if err != nil || int(m.Channel) != c {
		return // the consume path counts the corruption
	}
	row := &r.led.PerChannel[c]
	row.LastMarkerAt = obs.Now()
	if m.TxNs != 0 {
		row.MarkerTxNs = m.TxNs
		row.MarkerRxNs = r.now()
	}
	if lost := int64(m.Sent) - row.ArrivedBytes; lost > row.LostBytes {
		r.obs.Emit(obs.KindCreditReconcile, c, r.round(), lost-row.LostBytes)
		row.LostBytes = lost
		row.LossMarkers++
	}
	if m.Credits != 0 && r.onGrant != nil {
		r.onGrant(c, m.Credits)
	}
}

// consumeCredit gives a credit packet arriving on channel c its fate and
// hands its grant to the configured observer. Like a marker, a credit
// speaks only for the channel it travels on: a malformed or mis-addressed
// one is counted as a rejected grant. Without an observer there is no
// gate to speak to, and the packet is counted and discarded.
//
//stripe:allowescape control-cadence only (the peer sends at most one credit round per millisecond), and the decode's magic-string check is compiler-elided; the valid-credit path is allocation-free
func (r *Resequencer) consumeCredit(c int, p *packet.Packet) {
	cb, err := packet.DecodeCredit(p.Payload)
	p.Release()
	r.led.PerChannel[c].Control++
	if r.onGrant == nil {
		return
	}
	if err != nil || int(cb.Channel) != c {
		r.obs.OnCreditRejected(c)
		return
	}
	r.onGrant(c, cb.Grant)
}

// consumeTelemetry hands a telemetry block arriving on channel c to the
// configured observer. Telemetry is advisory: a corrupt block is
// dropped, and without an observer the block is counted and discarded.
//
//stripe:allowescape control-cadence only (one block per peer marker interval), and decoding a telemetry block allocates its channel slice
func (r *Resequencer) consumeTelemetry(c int, p *packet.Packet) {
	t, err := packet.TelemetryOf(p)
	p.Release()
	if err != nil {
		r.led.PerChannel[c].BadTelemetry++
		return
	}
	r.led.PerChannel[c].Telemetry++
	if r.onTelemetry != nil {
		r.onTelemetry(t)
	}
}

// TelemetryBlock assembles the receiver's current view of the bundle
// for reporting back to the sender: cumulative per-channel delivery,
// loss, and resync counts, resequencer occupancy against its cap, and
// the latest marker timestamp pair per channel. Each call advances the
// report sequence number; all content is cumulative, so losing a
// report costs nothing but staleness.
//
//stripe:allowescape control-cadence only (one report per marker interval), and the report's channel slice allocates
func (r *Resequencer) TelemetryBlock() packet.TelemetryBlock {
	r.telemetrySeq++
	t := packet.TelemetryBlock{
		Seq:         r.telemetrySeq,
		AtNs:        r.now(),
		Buffered:    int64(r.Buffered()),
		MaxBuffered: int64(r.maxBuffered),
		Channels:    make([]packet.TelemetryChannel, r.n),
	}
	for c := range t.Channels {
		row := &r.led.PerChannel[c]
		t.Channels[c] = packet.TelemetryChannel{
			Delivered:  row.DeliveredBytes,
			Lost:       row.LostBytes,
			Resyncs:    row.Resyncs,
			MarkerTxNs: row.MarkerTxNs,
			MarkerRxNs: row.MarkerRxNs,
		}
	}
	return t
}

// SendTelemetry transmits a telemetry block to the peer on one active
// channel, rotating the choice across calls so a single dead channel
// delays the peer's view by at most a marker interval times the
// channel count rather than silencing it. Telemetry is control
// traffic: like markers it bypasses the scheduler and the flow-control
// gate, and like probes a transport error feeds the channel's error
// streak. Reports are cumulative and sequenced, so a lost one is
// simply superseded by the next.
func (st *Striper) SendTelemetry(t packet.TelemetryBlock) error {
	n := len(st.out)
	if st.activeN == 0 || n == 0 {
		return ErrNoActiveChannels
	}
	for i := 0; i < n; i++ {
		c := st.telemetryChan % n
		st.telemetryChan = (c + 1) % n
		if !st.active[c] {
			continue
		}
		return st.flushAfter(st.sendControl(c, packet.NewTelemetry(t)))
	}
	return ErrNoActiveChannels
}
