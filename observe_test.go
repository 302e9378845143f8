package stripe

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/trace"
)

// TestFairnessGaugeUnderFigure15Workload drives the public Sender with
// the paper's Figure 15 workload (equiprobable 200 B / 1000 B packets)
// and checks the live fairness gauge on many prefixes: the measured
// discrepancy max_i |K·Quantum_i − bytes_i| must never exceed the
// Theorem 3.2 bound Max + 2·Quantum.
func TestFairnessGaugeUnderFigure15Workload(t *testing.T) {
	const nch = 4
	col := NewCollector(nch)
	g := channel.NewGroup(nch, channel.Impairments{})
	tx, err := NewSender(g.Senders(), Config{
		Quanta:    UniformQuanta(nch, 1500),
		Markers:   MarkerPolicy{Every: 4, Position: 0},
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := trace.NewBimodal(200, 1000, 0.5, 15)
	for i := 0; i < 5000; i++ {
		if err := tx.SendBytes(make([]byte, sizes.Next())); err != nil {
			t.Fatal(err)
		}
		for _, q := range g.Queues {
			q.Recv()
		}
		if i%97 == 0 {
			s := tx.Snapshot()
			if s.FairnessBound > 0 && s.FairnessDiscrepancy > s.FairnessBound {
				t.Fatalf("prefix %d: fairness discrepancy %d exceeds bound %d",
					i, s.FairnessDiscrepancy, s.FairnessBound)
			}
		}
	}
	s := tx.Snapshot()
	if s.FairnessBound == 0 {
		t.Fatal("fairness bound never derived")
	}
	if s.FairnessDiscrepancy > s.FairnessBound {
		t.Fatalf("final fairness discrepancy %d exceeds bound %d",
			s.FairnessDiscrepancy, s.FairnessBound)
	}
	st := tx.Stats()
	var colBytes int64
	for _, ch := range s.Channels {
		colBytes += ch.Tx.Bytes
	}
	if colBytes != st.DataBytes {
		t.Fatalf("collector bytes %d != Stats bytes %d", colBytes, st.DataBytes)
	}
}

// TestServeEndpoints starts the observability endpoint and checks all
// three surfaces respond: Prometheus text, health JSON, and pprof.
func TestServeEndpoints(t *testing.T) {
	if _, err := Serve("127.0.0.1:0"); err == nil {
		t.Fatal("Serve accepted zero collectors")
	}

	const nch = 2
	col := NewNamedCollector("servetest", nch)
	col.SetTracer(NewTracer(TracerConfig{Sample: 1}))
	wins := NewWindows(col, WindowConfig{Tick: time.Hour, Spans: []time.Duration{time.Hour}})
	g := channel.NewGroup(nch, channel.Impairments{})
	tx, err := NewSender(g.Senders(), Config{
		Quanta:    UniformQuanta(nch, 1500),
		Markers:   MarkerPolicy{Every: 2, Position: 0},
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tx.SendBytes(make([]byte, 700)); err != nil {
			t.Fatal(err)
		}
	}
	// Complete some lifecycles on the receive side so the trace export
	// and the latency histograms have content.
	for key := uint64(0); key < 100; key++ {
		col.TraceArrive(key, int(key%nch))
		col.TraceDeliver(key, 0)
	}
	// Fold the rollup so the windowed gauges and the health payload have
	// a published snapshot to serve.
	wins.Fold()

	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`stripe_channel_bytes_total{session="servetest",channel="0",dir="tx"}`,
		`stripe_markers_total{session="servetest"`,
		`stripe_resync_events_total{session="servetest"`,
		`stripe_fairness_discrepancy_bytes{session="servetest"}`,
		`stripe_fairness_bound_bytes{session="servetest"}`,
		`stripe_latency_reseq_nanoseconds_bucket{session="servetest",le="+Inf"} 100`,
		`stripe_latency_reseq_nanoseconds_count{session="servetest"} 100`,
		`stripe_trace_sample_period{session="servetest"} 1`,
		`stripe_invariant_violations_total{session="servetest"} 0`,
		`stripe_channel_health{session="servetest",channel="0"}`,
		`stripe_channel_bytes_rate{session="servetest",channel="0",dir="tx"}`,
		`stripe_credit_stall_ratio{session="servetest"}`,
		`stripe_window_covered_seconds{session="servetest"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get("/debug/stripe/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/stripe/trace status %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/debug/stripe/trace not valid JSON: %v\n%s", err, body)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("/debug/stripe/trace has no events despite completed lifecycles")
	}
	// A second fetch exercises the server's reused dedup-set/buffer path
	// and must return the same shape.
	code, body2 := get("/debug/stripe/trace")
	if code != http.StatusOK {
		t.Fatalf("second /debug/stripe/trace status %d", code)
	}
	var tr2 struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body2), &tr2); err != nil {
		t.Fatalf("second /debug/stripe/trace not valid JSON: %v", err)
	}
	if len(tr2.TraceEvents) != len(tr.TraceEvents) {
		t.Fatalf("trace export not stable across fetches: %d then %d events",
			len(tr.TraceEvents), len(tr2.TraceEvents))
	}

	code, body = get("/debug/stripe/health")
	if code != http.StatusOK {
		t.Fatalf("/debug/stripe/health status %d", code)
	}
	var hr struct {
		Sessions []HealthReport
	}
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("/debug/stripe/health not valid JSON: %v\n%s", err, body)
	}
	if len(hr.Sessions) != 1 {
		t.Fatalf("/debug/stripe/health has %d sessions, want 1", len(hr.Sessions))
	}
	if h := hr.Sessions[0]; h.Session != "servetest" || h.Channels != nch || h.ActiveChannels != nch {
		t.Fatalf("health report wrong identity: %+v", h)
	}
	if h := hr.Sessions[0]; h.Windows == nil || len(h.Windows.Health) != nch {
		t.Fatalf("health report missing windowed rollup: %+v", h.Windows)
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestHealthEndpointBareCollector pins the health handler's contract
// for a collector with no windowed rollup and no peer view attached:
// HTTP 200, Content-Type application/json, and a well-formed report
// whose optional sections are simply absent — never a panic or a
// malformed payload.
func TestHealthEndpointBareCollector(t *testing.T) {
	col := NewNamedCollector("bare", 2)
	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/stripe/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var hr struct {
		Sessions []HealthReport
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("health payload not valid JSON: %v", err)
	}
	if len(hr.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(hr.Sessions))
	}
	h := hr.Sessions[0]
	if h.Session != "bare" || h.Channels != 2 {
		t.Fatalf("report identity wrong: %+v", h)
	}
	if h.Windows != nil {
		t.Fatalf("Windows section present without a rollup: %+v", h.Windows)
	}
	if h.Peer != nil {
		t.Fatalf("Peer section present without a peer view: %+v", h.Peer)
	}
}

// TestHealthEndpointPeerSection checks the peer section end to end:
// a collector with an attached PeerView that has applied one telemetry
// block serves it under Peer.
func TestHealthEndpointPeerSection(t *testing.T) {
	col := NewNamedCollector("peered", 2)
	pv := NewPeerView(2)
	col.SetPeerView(pv)
	pv.Apply(packet.TelemetryBlock{
		Seq: 1, AtNs: 1e9, Buffered: 3, MaxBuffered: 12,
		Channels: []packet.TelemetryChannel{
			{Delivered: 9000, Lost: 1000, MarkerTxNs: 100, MarkerRxNs: 2100},
			{Delivered: 10000, MarkerTxNs: 100, MarkerRxNs: 150},
		},
	}, 2e9)

	srv, err := Serve("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/stripe/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr struct {
		Sessions []HealthReport
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("health payload not valid JSON: %v", err)
	}
	if len(hr.Sessions) != 1 || hr.Sessions[0].Peer == nil {
		t.Fatalf("peer section missing: %+v", hr.Sessions)
	}
	p := hr.Sessions[0].Peer
	if p.Seq != 1 || len(p.Channels) != 2 {
		t.Fatalf("peer snapshot wrong: %+v", p)
	}
	if p.Channels[0].LossFrac <= p.Channels[1].LossFrac {
		t.Fatalf("peer loss not surfaced: %+v", p.Channels)
	}
	if p.Channels[0].OneWayDelayNs <= p.Channels[1].OneWayDelayNs {
		t.Fatalf("one-way delay estimates not surfaced: %+v", p.Channels)
	}

	// The Prometheus surface carries the matching peer gauges.
	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`stripe_peer_channel_loss_rate{session="peered",channel="0"}`,
		`stripe_peer_reseq_occupancy{session="peered"}`,
		`stripe_channel_oneway_delay_nanoseconds{session="peered",channel="1"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestSessionCollectorWiring runs a duplex session pair with a
// collector on each end and checks the observability surface the
// Session exposes: snapshots mirror the transmit stats, flow-control
// pressure shows up as blocked sends and credit-stall time, and the
// receive side counts deliveries.
func TestSessionCollectorWiring(t *testing.T) {
	const nch = 2
	colA := NewNamedCollector("a", nch)
	colB := NewNamedCollector("b", nch)

	mkChans := func() ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{Seed: int64(i)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans()
	baChans, baSenders := mkChans()

	cfg := SessionConfig{
		Config: Config{
			Quanta:    UniformQuanta(nch, 1500),
			Markers:   MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
		},
		// A window smaller than the traffic volume guarantees the
		// sender stalls on credits at least once.
		CreditWindow:   4096,
		MarkerInterval: time.Millisecond,
	}
	bcfg := cfg
	bcfg.Collector = colB

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(baSenders, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	pump := func(chans []*LocalChannel, dst *Session) {
		for i, ch := range chans {
			go func(i int, ch *LocalChannel) {
				for p := range ch.Out() {
					dst.Arrive(i, p)
				}
			}(i, ch)
		}
	}
	pump(abChans, b)
	pump(baChans, a)

	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.SendBytes(make([]byte, 500)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := 0
	for got < n {
		if p := b.Recv(); p == nil {
			t.Fatal("session closed early")
		} else if p.Kind == KindData {
			got++
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	sa := a.Snapshot()
	st := a.SendStats()
	var colPkts int64
	for _, ch := range sa.Channels {
		colPkts += ch.Tx.Packets
	}
	if colPkts != st.DataPackets || st.DataPackets != n {
		t.Fatalf("collector %d / stats %d / want %d data packets", colPkts, st.DataPackets, n)
	}
	// 200 * 500 B through a 2-channel 4 KiB-per-channel window must
	// have exhausted credits at least once.
	var blocked int64
	for _, ch := range sa.Channels {
		blocked += ch.Tx.BlockedSends
	}
	if blocked == 0 {
		t.Fatal("no blocked sends despite credit window smaller than traffic")
	}
	if sa.CreditStall == 0 {
		t.Fatal("no credit-stall time recorded")
	}

	sb := b.Snapshot()
	var delivered int64
	for _, ch := range sb.Channels {
		delivered += ch.Rx.Delivered
	}
	if delivered != n {
		t.Fatalf("receive collector counted %d deliveries, want %d", delivered, n)
	}
	if rs := b.Stats(); rs.Delivered != n {
		t.Fatalf("Stats().Delivered = %d, want %d", rs.Delivered, n)
	}

	a.Close()
	b.Close()
	for _, ch := range abChans {
		ch.Close()
	}
	for _, ch := range baChans {
		ch.Close()
	}
}
