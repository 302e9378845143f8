// Package stripe implements the reliable, scalable channel striping
// protocol of Adiseshu, Parulkar and Varghese (SIGCOMM 1996): fair load
// sharing of variable-length packets across multiple FIFO channels via
// Surplus Round Robin (a causal fair-queuing algorithm run "in
// reverse"), FIFO delivery at the receiver via logical reception (the
// receiver simulates the sender's automaton), and fast restoration of
// synchronization after loss via periodic marker packets — all without
// modifying a single data packet.
//
// # Quick start
//
// Implement ChannelSender/ChannelReceiver for your transport (or use
// the built-in local, UDP, or TCP channels), then:
//
//	cfg := stripe.Config{Quanta: stripe.UniformQuanta(4, 1500)}
//	tx, _ := stripe.NewSender(senders, cfg)
//	rx, _ := stripe.NewReceiver(4, cfg)
//
//	go func() { // receive pumps, one per channel
//	    for pkt := range channel0 { rx.Arrive(0, pkt) }
//	}()
//	...
//	tx.Send(stripe.Data(payload)) // stripes across the channels
//	pkt := rx.Recv()              // delivered in FIFO order
//
// The sender and receiver must be configured with identical Quanta (and
// marker policy); the receiver's FIFO guarantee is exactly the paper's:
// perfect FIFO without loss, quasi-FIFO under loss, resynchronizing
// within roughly one marker period after losses stop.
//
// # Batching and the packet pool
//
// SendBatch/RecvBatch move packets in bulk: the session lock is taken
// once per batch, the scheduler is consulted once per service run, and
// each TCP or UDP channel the batch touched is written once, as the
// call returns (nothing stays buffered behind it; a UDP channel writes a
// datagram per MTU of records). The single-packet Send
// and Recv are batches of one, so the two styles mix freely. The pool
// makes the steady state allocation-free; its lifetime rules:
//
//   - GetPacket/GetPacketSized hand you exclusive ownership of a pooled
//     packet and its payload backing array. Fill it, send it; after a
//     successful SendBatch the packets belong to the session/transport.
//   - Packets returned by Recv/RecvBatch are yours. Once the payload is
//     consumed, hand each back with Packet.Release — after Release,
//     neither the packet nor any slice of its payload may be touched,
//     because the next Get anywhere in the process may reuse both.
//   - Release is always optional: an unreleased packet is ordinary
//     garbage, and correctness never depends on the pool.
//   - A packet handed to Arrive is the receiver's from then on. Control
//     packets (markers, credits, membership, telemetry, resets) are the
//     protocol's own: the receiver returns each to the pool as it
//     consumes it, so a pump must not read, keep or forward a packet
//     after Arrive. Data packets are never released by the library.
//   - Never Release a packet whose payload aliases memory you keep
//     (e.g. one built with Data around an application buffer): Release
//     donates the backing array to the pool.
//
// # Flow control and memory bounds
//
// Duplex Sessions piggyback credit-based flow control on markers. Each
// marker carries the sender's cumulative byte position on its channel;
// because channels are FIFO, the receiver computes the exact loss at
// every marker arrival and grants one window past everything that has
// left the channel and its own buffers (arrived − buffered + lost, read
// off the receive ledger), so credits lost with dropped packets are
// reclaimed within a marker period, bytes the receiver itself discards
// are credited back at once, and the sender never wedges permanently
// (the position is monotone, making lost or reordered markers
// harmless). The peer's grants are read as its markers and credit
// packets arrive, ahead of their place in the delivery order, so a slow
// application does not stall its own sender. Between markers a session
// returns grants in credit packets of their own once the application has
// drained half a window, at most one round of them per millisecond, so a
// one-way flow does not wait on the peer's marker timer. Config.MaxBuffered caps
// resequencer memory: markers that no data precedes are drained eagerly
// (an idle-but-markered direction stays at O(channels) occupancy), a
// full buffer escalates to forced delivery past gaps, and at twice the
// cap arrivals are dropped — no worse than channel loss, which the
// protocol already survives.
//
// # Counters
//
// Every protocol event is counted once, by the engine that causes it,
// in a ledger with one row per channel; Stats returns a copy, and an
// attached Collector is published the same rows (see Observability).
//
// Sender.Stats and Session.SendStats return SenderStats, the send
// ledger: DataPackets, DataBytes and Markers (totals), Round and Epoch
// (the SRR automaton position), MaxPacket, Resets, and PerChannel
// ([]ChannelLoad: Packets and Bytes per channel — the raw material of
// the fairness claim — plus Markers, BlockedSends, Joins and Drains, the
// Quantum/Surplus/CreditRemaining/Removed gauges, and the fairness
// baseline JoinRound/JoinBytes).
//
// Receiver.Stats and Session.Stats return ReceiverStats, the receive
// ledger. PerChannel rows name the fate of every packet received on the
// channel — Arrived = Delivered + Buffered + Markers + Telemetry +
// Control (member blocks, resets, credits) + OldEpochDrops
// (discarded waiting out a reset) + OverflowDrops (hard buffer cap) +
// MemberDrops (arrivals on a removed slot) + MemberLost (buffered tail
// declared lost at retirement) + BadMarkers + BadMembers + BadTelemetry
// (corrupt, mis-addressed or foreign control) + UnknownKinds, exactly —
// and carry the per-channel events: Resyncs (markers that actually
// changed receiver state), Skips (visits skipped under the r_c > G
// rule), EagerMarkers, MemberJoins/MemberDrains, LostBytes and
// LossMarkers (in-flight loss proven by marker positions), the marker
// arrival stamps and the Draining/Removed gauges. The same names read
// directly on the stats value are the totals over channels
// (Stats().Delivered, Stats().MemberDrops, ...); Resets, SelfHeals
// (state adopted wholesale from uniformly stale markers), FastForwards
// (rounds advanced while every channel was skip-listed), Overflows,
// Occupancy and HighWater are per receiver.
//
// # Observability
//
// For continuous monitoring, attach a Collector:
//
//	col := stripe.NewCollector(4) // or NewNamedCollector("tx", 4)
//	cfg := stripe.Config{Quanta: stripe.UniformQuanta(4, 1500), Collector: col}
//	srv, _ := stripe.Serve("127.0.0.1:9090", col)
//	defer srv.Close()
//	// curl http://127.0.0.1:9090/metrics
//
// The collector is published both ledgers at the engines' flush points
// (at most 64 packets or one marker interval behind; the Snapshot
// methods flush first and are exact) and adds a packet-displacement
// histogram and a live fairness gauge — the observed
// max_i |K·Quantum_i − bytes_i| next to the Theorem 3.2 bound
// Max + 2·Quantum. A Checker attached with SetChecker asserts packet
// conservation (the identity above, exactly, per channel), the fairness
// band and credit conservation at every flush. Serve exposes everything
// — every ledger field, every drop by name and by channel
// (stripe_channel_drops_total{reason=...}) — as Prometheus text on
// /metrics, the same ledger rows as JSON on /debug/stripe/health, and the
// standard pprof profiles on /debug/pprof/. Read it in-process with Snapshot (on the
// Collector or on the Sender/Receiver/Session it is attached to), or
// subscribe to discrete protocol transitions (resync, skip, reset,
// self-heal, fast-forward, credit exhaustion, marker-proven loss,
// resequencer overflow, membership changes) with Collector.AddSink —
// NewRingSink keeps the last n events. All of it is nil-safe: with no Collector configured the hot
// path pays a single pointer test.
//
// For rates and per-channel health rather than cumulative totals,
// attach a windowed rollup:
//
//	stripe.NewWindows(col, stripe.WindowConfig{}) // 1s tick, 1s/10s/60s spans
//
// Ledger deltas fold into ring-buffered windows on the engines' flush
// tick (nothing per packet) and publish per-channel goodput, loss and
// resync fractions, send-latency EWMAs, marker-spread delay skew, and
// a composable 0-100 HealthScore with reason codes. Serve adds the
// rolled-up view at /debug/stripe/health and windowed stripe_*_rate /
// stripe_channel_health gauges to /metrics; cmd/stripetop renders it
// live in a terminal. Sessions can consume the score as evidence-based
// eviction (HealthConfig.ScoreEvictBelow) — it catches silently lossy
// channels whose Send never errors and so never build an error streak.
//
// Sessions also feed each other: on every marker-timer tick the
// receiver's per-channel view (delivered/lost bytes, resyncs,
// resequencer occupancy, recent marker timestamps) rides back as a
// Telemetry control packet — a forward-compatible codepoint that
// plain receivers ignore — and folds into the sender-side PeerView
// (Session.PeerView, re-exported from internal/obs). An NTP-style
// min-filter over marker tx/rx timestamp pairs recovers per-channel
// relative one-way delay and bundle skew; peer-reported loss powers
// HealthConfig.PeerScoreEvictBelow, eviction on the receiver's
// evidence when the sender's own accounting shows nothing wrong. The
// peer section appears in /debug/stripe/health, the stripe_peer_*
// and stripe_channel_oneway_delay_nanoseconds gauges, and
// stripetop's P-LOSS / P-DELAY columns.
//
// The internal packages implement every substrate of the paper's
// evaluation (schedulers, impaired channels, the strIPe IP framework, a
// discrete-event simulator with a Reno-style TCP, baselines, and the
// experiment harness); see DESIGN.md for the map and EXPERIMENTS.md for
// the regenerated tables and figures.
package stripe
