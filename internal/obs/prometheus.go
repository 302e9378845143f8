package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders the collectors in Prometheus text exposition
// format (version 0.0.4). Metadata (# HELP / # TYPE) is written once
// per metric even when several collectors share the endpoint; samples
// from a named collector carry a session="name" label.
func WritePrometheus(w io.Writer, cols ...*Collector) {
	snaps := make([]Snapshot, 0, len(cols))
	for _, c := range cols {
		if c != nil {
			snaps = append(snaps, c.Snapshot())
		}
	}
	// When several unnamed collectors share an endpoint their samples
	// would collide; synthesize an index label.
	if len(snaps) > 1 {
		for i := range snaps {
			if snaps[i].Name == "" {
				snaps[i].Name = "c" + strconv.Itoa(i)
			}
		}
	}

	metric := func(name, typ, help string, emit func(s *Snapshot, base string)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i := range snaps {
			base := ""
			if snaps[i].Name != "" {
				base = `session="` + snaps[i].Name + `"`
			}
			emit(&snaps[i], base)
		}
	}
	// sample writes one sample line, merging the session label with any
	// metric-specific labels.
	sample := func(name, base, labels string, v int64) {
		switch {
		case base == "" && labels == "":
			fmt.Fprintf(w, "%s %d\n", name, v)
		case base == "":
			fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
		case labels == "":
			fmt.Fprintf(w, "%s{%s} %d\n", name, base, v)
		default:
			fmt.Fprintf(w, "%s{%s,%s} %d\n", name, base, labels, v)
		}
	}
	perChannel := func(name, typ, help string, get func(*ChannelSnapshot) int64) {
		metric(name, typ, help, func(s *Snapshot, base string) {
			for c := range s.Channels {
				sample(name, base, `channel="`+strconv.Itoa(c)+`"`, get(&s.Channels[c]))
			}
		})
	}
	perChannelDir := func(name, typ, help string, tx, rx func(*ChannelSnapshot) int64) {
		metric(name, typ, help, func(s *Snapshot, base string) {
			for c := range s.Channels {
				l := `channel="` + strconv.Itoa(c) + `"`
				sample(name, base, l+`,dir="tx"`, tx(&s.Channels[c]))
				sample(name, base, l+`,dir="rx"`, rx(&s.Channels[c]))
			}
		})
	}
	scalar := func(name, typ, help string, get func(*Snapshot) int64) {
		metric(name, typ, help, func(s *Snapshot, base string) {
			sample(name, base, "", get(s))
		})
	}

	perChannelDir("stripe_channel_packets_total", "counter",
		"Data packets striped onto (tx) or delivered in order from (rx) each channel.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Packets },
		func(c *ChannelSnapshot) int64 { return c.Rx.Delivered })
	perChannelDir("stripe_channel_bytes_total", "counter",
		"Data payload bytes striped onto (tx) or delivered in order from (rx) each channel.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Bytes },
		func(c *ChannelSnapshot) int64 { return c.Rx.DeliveredBytes })
	perChannelDir("stripe_markers_total", "counter",
		"Synchronization markers emitted on (tx) or consumed from (rx) each channel.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Markers },
		func(c *ChannelSnapshot) int64 { return c.Rx.Markers })
	perChannel("stripe_channel_arrived_packets_total", "counter",
		"Packets of every kind physically received on each channel; equals delivered + buffered + consumed control + named drops, exactly.",
		func(c *ChannelSnapshot) int64 { return c.Rx.Arrived })
	perChannel("stripe_channel_arrived_bytes_total", "counter",
		"Data payload bytes physically received on each channel, delivered or not.",
		func(c *ChannelSnapshot) int64 { return c.Rx.ArrivedBytes })
	perChannel("stripe_channel_buffered_packets", "gauge",
		"Packets held in each channel's resequencer buffer.",
		func(c *ChannelSnapshot) int64 { return c.Rx.Buffered })
	perChannel("stripe_channel_buffered_bytes", "gauge",
		"Data payload bytes held in each channel's resequencer buffer.",
		func(c *ChannelSnapshot) int64 { return c.Rx.BufferedBytes })
	perChannel("stripe_telemetry_blocks_total", "counter",
		"Peer telemetry blocks consumed from each channel.",
		func(c *ChannelSnapshot) int64 { return c.Rx.Telemetry })
	perChannel("stripe_control_packets_total", "counter",
		"Membership blocks, reset packets and stray credits consumed from each channel.",
		func(c *ChannelSnapshot) int64 { return c.Rx.Control })
	metric("stripe_channel_drops_total", "counter",
		"Received packets discarded, by channel and by name; with delivered, buffered and consumed these account for every arrival.",
		func(s *Snapshot, base string) {
			for c := range s.Channels {
				rx := &s.Channels[c].Rx
				for _, d := range [...]struct {
					reason string
					v      int64
				}{
					{"old_epoch", rx.OldEpochDrops}, {"overflow", rx.OverflowDrops},
					{"member_drop", rx.MemberDrops}, {"member_lost", rx.MemberLost},
					{"bad_marker", rx.BadMarkers}, {"bad_member", rx.BadMembers},
					{"bad_telemetry", rx.BadTelemetry}, {"unknown_kind", rx.UnknownKinds},
				} {
					sample("stripe_channel_drops_total", base,
						`channel="`+strconv.Itoa(c)+`",reason="`+d.reason+`"`, d.v)
				}
			}
		})
	perChannel("stripe_resync_events_total", "counter",
		"Markers that changed receiver state (expected round or deficit adopted).",
		func(c *ChannelSnapshot) int64 { return c.Rx.Resyncs })
	perChannel("stripe_skips_total", "counter",
		"Channel visits skipped under the r_c > G rule.",
		func(c *ChannelSnapshot) int64 { return c.Rx.Skips })
	perChannel("stripe_blocked_sends_total", "counter",
		"Send attempts vetoed by credit-based flow control.",
		func(c *ChannelSnapshot) int64 { return c.Tx.BlockedSends })
	perChannel("stripe_channel_lost_packets_total", "counter",
		"Packets dropped by the physical channel (loss or corruption).",
		func(c *ChannelSnapshot) int64 { return c.Lost })
	perChannel("stripe_channel_queue_depth", "gauge",
		"Transmit queue occupancy per channel, in packets.",
		func(c *ChannelSnapshot) int64 { return c.QueueDepth })
	perChannel("stripe_channel_surplus_bytes", "gauge",
		"Current SRR deficit/surplus counter per channel.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Surplus })
	perChannel("stripe_channel_quantum_bytes", "gauge",
		"Configured SRR quantum per channel.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Quantum })
	perChannel("stripe_channel_join_round", "gauge",
		"Fairness baseline: the round of each channel's most recent (re)join (0 = since construction).",
		func(c *ChannelSnapshot) int64 { return int64(c.Tx.JoinRound) })
	perChannel("stripe_channel_join_bytes", "gauge",
		"Fairness baseline: data bytes striped onto each channel before its most recent (re)join.",
		func(c *ChannelSnapshot) int64 { return c.Tx.JoinBytes })
	perChannel("stripe_credit_remaining_bytes", "gauge",
		"Unused flow-control credit per channel (0 when flow control is off).",
		func(c *ChannelSnapshot) int64 { return c.Tx.CreditRemaining })
	perChannel("stripe_markers_drained_total", "counter",
		"Markers consumed eagerly at arrival instead of in scan order.",
		func(c *ChannelSnapshot) int64 { return c.Rx.EagerMarkers })
	perChannel("stripe_credit_reconciles_total", "counter",
		"Markers whose sender position revealed new in-flight loss (which credit reconciliation writes off and re-grants).",
		func(c *ChannelSnapshot) int64 { return c.Rx.LossMarkers })
	perChannel("stripe_credit_lost_bytes_total", "counter",
		"Data bytes marker sender positions prove lost in flight (written off and granted back under flow control).",
		func(c *ChannelSnapshot) int64 { return c.Rx.LostBytes })
	perChannel("stripe_marker_last_arrival_nanoseconds", "gauge",
		"Process-timebase instant of the newest valid marker received on each channel (0 = never).",
		func(c *ChannelSnapshot) int64 { return c.Rx.LastMarkerAt })
	perChannelDir("stripe_marker_stamp_nanoseconds", "gauge",
		"Sender clock (tx) and receiver clock (rx) of the newest timestamped marker: one one-way delay sample.",
		func(c *ChannelSnapshot) int64 { return c.Rx.MarkerTxNs },
		func(c *ChannelSnapshot) int64 { return c.Rx.MarkerRxNs })
	perChannelDir("stripe_member_joins_total", "counter",
		"Channel (re)join transitions applied by the transmit (tx) and receive (rx) engines.",
		func(c *ChannelSnapshot) int64 { return c.Tx.Joins },
		func(c *ChannelSnapshot) int64 { return c.Rx.MemberJoins })
	perChannelDir("stripe_member_drains_total", "counter",
		"Channel removals applied by the transmit engine (tx) and retirements completed by the receive engine (rx).",
		func(c *ChannelSnapshot) int64 { return c.Tx.Drains },
		func(c *ChannelSnapshot) int64 { return c.Rx.MemberDrains })
	perChannel("stripe_member_evictions_total", "counter",
		"Health-monitor forced removals (consecutive send errors, or a windowed or peer-reported health score held below its threshold).",
		func(c *ChannelSnapshot) int64 { return c.MemberEvictions })
	perChannel("stripe_member_reinstates_total", "counter",
		"Health-monitor re-admissions after recovery.",
		func(c *ChannelSnapshot) int64 { return c.MemberReinstates })
	perChannelDir("stripe_member_state", "gauge",
		"Slot lifecycle state in the transmit (tx) and receive (rx) live sets: 0 active, 1 draining, 2 removed.",
		func(c *ChannelSnapshot) int64 { return memberState(false, c.Tx.Removed) },
		func(c *ChannelSnapshot) int64 { return memberState(c.Rx.Draining, c.Rx.Removed) })
	perChannel("stripe_member_active", "gauge",
		"Live-set membership per channel (1 = striping, 0 = removed).",
		func(c *ChannelSnapshot) int64 {
			if c.MemberActive {
				return 1
			}
			return 0
		})

	scalar("stripe_round", "gauge",
		"Sender global round number G.",
		func(s *Snapshot) int64 { return int64(s.Round) })
	scalar("stripe_epoch", "gauge",
		"Sender reset epoch.",
		func(s *Snapshot) int64 { return int64(s.Epoch) })
	scalar("stripe_max_packet_bytes", "gauge",
		"Largest data payload striped so far (the Max of Theorem 3.2).",
		func(s *Snapshot) int64 { return s.MaxPacket })
	scalar("stripe_resets_total", "counter",
		"Epoch resets broadcast or applied.",
		func(s *Snapshot) int64 { return s.Resets })
	scalar("stripe_self_heals_total", "counter",
		"Self-stabilization events (receiver state adopted from markers).",
		func(s *Snapshot) int64 { return s.SelfHeals })
	scalar("stripe_fast_forwards_total", "counter",
		"Receiver round fast-forwards while every channel was skip-listed.",
		func(s *Snapshot) int64 { return s.FastForwards })
	scalar("stripe_bad_markers_total", "counter",
		"Markers dropped as corrupt or mis-addressed.",
		func(s *Snapshot) int64 { return s.Rx.BadMarkers })
	scalar("stripe_old_epoch_drops_total", "counter",
		"Packets discarded while waiting out an epoch reset.",
		func(s *Snapshot) int64 { return s.Rx.OldEpochDrops })
	scalar("stripe_credit_stall_nanoseconds_total", "counter",
		"Total wall-clock time senders spent blocked on exhausted credit.",
		func(s *Snapshot) int64 { return int64(s.CreditStall) })
	scalar("stripe_credit_rejects_total", "counter",
		"Wire credit grants refused by the gate as invalid.",
		func(s *Snapshot) int64 { return s.CreditRejects })
	scalar("stripe_reseq_buffered_packets", "gauge",
		"Resequencer buffer occupancy, in packets.",
		func(s *Snapshot) int64 { return s.Buffered })
	scalar("stripe_reseq_buffered_high_water", "gauge",
		"Highest resequencer buffer occupancy observed.",
		func(s *Snapshot) int64 { return s.BufferedHighWater })
	scalar("stripe_reseq_overflows_total", "counter",
		"Resequencer buffer-cap overflow escalations.",
		func(s *Snapshot) int64 { return s.ReseqOverflows })
	scalar("stripe_reseq_overflow_drops_total", "counter",
		"Arrivals discarded at the resequencer's hard buffer cap.",
		func(s *Snapshot) int64 { return s.Rx.OverflowDrops })
	scalar("stripe_fairness_discrepancy_bytes", "gauge",
		"Live fairness gauge: max over channels of |K*Quantum_i - bytes_i|.",
		func(s *Snapshot) int64 { return s.FairnessDiscrepancy })
	scalar("stripe_fairness_bound_bytes", "gauge",
		"Theorem 3.2 ceiling Max + 2*Quantum; discrepancy above it is an invariant violation.",
		func(s *Snapshot) int64 { return s.FairnessBound })

	metric("stripe_protocol_events_total", "counter",
		"Protocol transition events by kind.",
		func(s *Snapshot, base string) {
			for k := Kind(0); k < nKinds; k++ {
				if n, ok := s.Events[k.String()]; ok {
					sample("stripe_protocol_events_total", base, `kind="`+k.String()+`"`, n)
				}
			}
		})

	// Histograms, in native Prometheus histogram shape (cumulative
	// buckets with an le label).
	histSamples := func(name, base string, h HistogramSnapshot) {
		cum := int64(0)
		for b, cnt := range h.Buckets {
			cum += cnt
			le := "+Inf"
			if b < len(h.Bounds) {
				le = strconv.FormatInt(h.Bounds[b], 10)
			}
			sample(name+"_bucket", base, `le="`+le+`"`, cum)
		}
		sample(name+"_sum", base, "", h.Sum)
		sample(name+"_count", base, "", h.Count)
	}
	histogram := func(name, help string, get func(*Snapshot) (HistogramSnapshot, bool)) {
		wrote := false
		for i := range snaps {
			h, ok := get(&snaps[i])
			if !ok {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
				wrote = true
			}
			base := ""
			if snaps[i].Name != "" {
				base = `session="` + snaps[i].Name + `"`
			}
			histSamples(name, base, h)
		}
	}

	histogram("stripe_displacement_packets",
		"Reordering lateness per delivered packet (0 = in order).",
		func(s *Snapshot) (HistogramSnapshot, bool) { return s.Displacement, true })

	// Lifecycle latency histograms: present only on collectors with a
	// tracer attached.
	lifecycleHist := func(get func(*TracerSnapshot) HistogramSnapshot) func(*Snapshot) (HistogramSnapshot, bool) {
		return func(s *Snapshot) (HistogramSnapshot, bool) {
			if s.Lifecycle == nil {
				return HistogramSnapshot{}, false
			}
			return get(s.Lifecycle), true
		}
	}
	histogram("stripe_latency_e2e_nanoseconds",
		"Sampled packet latency from striping to in-order delivery.",
		lifecycleHist(func(t *TracerSnapshot) HistogramSnapshot { return t.EndToEnd }))
	histogram("stripe_latency_reseq_nanoseconds",
		"Sampled time packets spent in the resequencer (channel receive to delivery).",
		lifecycleHist(func(t *TracerSnapshot) HistogramSnapshot { return t.ReseqDelay }))
	histogram("stripe_latency_hol_nanoseconds",
		"Sampled head-of-line blocking: resequencing delay of in-order (displacement 0) packets.",
		lifecycleHist(func(t *TracerSnapshot) HistogramSnapshot { return t.HeadOfLine }))
	histogram("stripe_latency_send_stall_nanoseconds",
		"Sampled delay from a packet's first credit-gated send attempt to its transmit.",
		lifecycleHist(func(t *TracerSnapshot) HistogramSnapshot { return t.SendStall }))

	lifecycleScalar := func(name, typ, help string, get func(*TracerSnapshot) int64) {
		wrote := false
		for i := range snaps {
			if snaps[i].Lifecycle == nil {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				wrote = true
			}
			base := ""
			if snaps[i].Name != "" {
				base = `session="` + snaps[i].Name + `"`
			}
			sample(name, base, "", get(snaps[i].Lifecycle))
		}
	}
	lifecycleScalar("stripe_trace_sample_period", "gauge",
		"Lifecycle tracing sample period (1 = every packet).",
		func(t *TracerSnapshot) int64 { return t.SampleEvery })
	lifecycleScalar("stripe_trace_tracked_total", "counter",
		"Packet lifecycles completed and folded into the latency histograms.",
		func(t *TracerSnapshot) int64 { return t.Tracked })
	lifecycleScalar("stripe_trace_evicted_total", "counter",
		"Trace slots reclaimed before delivery (packet loss or key collision).",
		func(t *TracerSnapshot) int64 { return t.Evicted })
	lifecycleScalar("stripe_trace_torn_total", "counter",
		"Trace completions dropped because the slot was concurrently reused.",
		func(t *TracerSnapshot) int64 { return t.Torn })

	scalar("stripe_invariant_violations_total", "counter",
		"Invariant-checker findings (packet conservation, Theorem 3.2 band, credit conservation, monotone rounds); any nonzero value is a protocol bug.",
		func(s *Snapshot) int64 { return s.InvariantViolations })

	// Windowed telemetry: present only on collectors with a Windows
	// rollup attached that has folded at least once. All rates are
	// derived over the rollup's scoring span.
	fsample := func(name, base, labels string, v float64) {
		fv := strconv.FormatFloat(v, 'g', -1, 64)
		switch {
		case base == "" && labels == "":
			fmt.Fprintf(w, "%s %s\n", name, fv)
		case base == "":
			fmt.Fprintf(w, "%s{%s} %s\n", name, labels, fv)
		case labels == "":
			fmt.Fprintf(w, "%s{%s} %s\n", name, base, fv)
		default:
			fmt.Fprintf(w, "%s{%s,%s} %s\n", name, base, labels, fv)
		}
	}
	windowed := func(name, typ, help string, emit func(base string, sp *WindowSpan, health []HealthScore)) {
		wrote := false
		for i := range snaps {
			sp := snaps[i].Windows.ScoreWindow()
			if sp == nil {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				wrote = true
			}
			base := ""
			if snaps[i].Name != "" {
				base = `session="` + snaps[i].Name + `"`
			}
			emit(base, sp, snaps[i].Windows.Health)
		}
	}
	chLabel := func(c int) string { return `channel="` + strconv.Itoa(c) + `"` }
	windowed("stripe_channel_health", "gauge",
		"Windowed per-channel health score: 100 clean, 0 dead (see obs.HealthScore).",
		func(base string, sp *WindowSpan, health []HealthScore) {
			for _, h := range health {
				sample("stripe_channel_health", base, chLabel(h.Channel), int64(h.Score))
			}
		})
	windowed("stripe_channel_bytes_rate", "gauge",
		"Windowed goodput in bytes/s striped onto (tx) or delivered from (rx) each channel.",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			for i := range sp.Channels {
				c := &sp.Channels[i]
				fsample("stripe_channel_bytes_rate", base, chLabel(c.Channel)+`,dir="tx"`, c.TxBytesPerSec)
				fsample("stripe_channel_bytes_rate", base, chLabel(c.Channel)+`,dir="rx"`, c.RxBytesPerSec)
			}
		})
	windowed("stripe_channel_loss_rate", "gauge",
		"Windowed loss fraction per channel (0-1): channel drops or credit write-offs over transmit traffic.",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			for i := range sp.Channels {
				fsample("stripe_channel_loss_rate", base, chLabel(sp.Channels[i].Channel), sp.Channels[i].LossFrac)
			}
		})
	windowed("stripe_channel_resync_rate", "gauge",
		"Windowed marker resyncs per second per channel.",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			for i := range sp.Channels {
				fsample("stripe_channel_resync_rate", base, chLabel(sp.Channels[i].Channel), sp.Channels[i].ResyncsPerSec)
			}
		})
	windowed("stripe_channel_send_latency_ewma_nanoseconds", "gauge",
		"Smoothed sampled end-to-end latency of packets delivered off each channel (0 without a tracer).",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			for i := range sp.Channels {
				sample("stripe_channel_send_latency_ewma_nanoseconds", base, chLabel(sp.Channels[i].Channel), sp.Channels[i].LatencyEWMA)
			}
		})
	windowed("stripe_channel_delay_skew_nanoseconds", "gauge",
		"Inter-channel one-way-delay skew estimate: lag of each channel's newest marker behind the freshest channel's.",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			for i := range sp.Channels {
				sample("stripe_channel_delay_skew_nanoseconds", base, chLabel(sp.Channels[i].Channel), sp.Channels[i].DelaySkew)
			}
		})
	windowed("stripe_credit_stall_ratio", "gauge",
		"Windowed fraction of wall-clock time senders spent blocked on exhausted credit.",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			fsample("stripe_credit_stall_ratio", base, "", sp.Session.CreditStallFrac)
		})
	windowed("stripe_window_covered_seconds", "gauge",
		"Time actually covered by the scoring window (shorter than the span during warmup).",
		func(base string, sp *WindowSpan, _ []HealthScore) {
			fsample("stripe_window_covered_seconds", base, "", sp.Covered.Seconds())
		})

	// Peer telemetry: present only on collectors with a PeerView that
	// has applied at least one report from the remote resequencer.
	peered := func(name, typ, help string, emit func(base string, p *PeerSnapshot)) {
		wrote := false
		for i := range snaps {
			p := snaps[i].Peer
			if p == nil {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				wrote = true
			}
			base := ""
			if snaps[i].Name != "" {
				base = `session="` + snaps[i].Name + `"`
			}
			emit(base, p)
		}
	}
	peered("stripe_peer_channel_loss_rate", "gauge",
		"Peer-reported loss fraction per channel (0-1), measured by the remote resequencer's marker reconciliation; catches silent loss.",
		func(base string, p *PeerSnapshot) {
			for i := range p.Channels {
				fsample("stripe_peer_channel_loss_rate", base, chLabel(p.Channels[i].Channel), p.Channels[i].LossFrac)
			}
		})
	peered("stripe_peer_reseq_occupancy", "gauge",
		"Peer resequencer occupancy as a fraction of its buffer cap (0 when the peer is unbounded).",
		func(base string, p *PeerSnapshot) {
			fsample("stripe_peer_reseq_occupancy", base, "", p.OccupancyFrac)
		})
	peered("stripe_channel_oneway_delay_nanoseconds", "gauge",
		"Min-filtered one-way delay sample per channel from marker tx/rx timestamps; embeds the inter-host clock offset, so compare channels, not absolutes.",
		func(base string, p *PeerSnapshot) {
			for i := range p.Channels {
				sample("stripe_channel_oneway_delay_nanoseconds", base, chLabel(p.Channels[i].Channel), p.Channels[i].OneWayDelayNs)
			}
		})
}

// memberState encodes a slot's lifecycle position for the
// stripe_member_state gauge.
func memberState(draining, removed bool) int64 {
	switch {
	case removed:
		return 2
	case draining:
		return 1
	}
	return 0
}

// WritePrometheus renders this collector alone; see the package-level
// function for multi-collector endpoints.
func (c *Collector) WritePrometheus(w io.Writer) { WritePrometheus(w, c) }
