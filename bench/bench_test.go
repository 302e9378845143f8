package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stripe"
	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/sched"
)

// Both shims must keep the striper on its batched path.
var (
	_ channel.BatchSender = (*dropShim)(nil)
	_ channel.BatchSender = (*txShim)(nil)
)

// countingSender records how the striper drives a channel.
type countingSender struct{ sends, batches, pkts int }

func (c *countingSender) Send(*stripe.Packet) error { c.sends++; c.pkts++; return nil }
func (c *countingSender) SendBatch(pkts []*stripe.Packet) (int, error) {
	c.batches++
	c.pkts += len(pkts)
	return len(pkts), nil
}

func TestShimsKeepTheStriperBatched(t *testing.T) {
	tr := &tracer{}
	tr.setOn(true)
	var open atomic.Uint64
	under := make([]*countingSender, nch)
	senders := make([]channel.Sender, nch)
	for c := range senders {
		under[c] = &countingSender{}
		d := newDropShim(under[c], 0.01, int64(c))
		d.on.Store(true)
		senders[c] = &txShim{next: d, tr: tr, lane: tr.newLane(false), parent: &open}
	}
	st, err := core.NewStriper(core.StriperConfig{Sched: sched.MustSRR(sched.UniformQuanta(nch, quantum)), Channels: senders})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*stripe.Packet, 6400)
	for i := range pkts {
		pkts[i] = stripe.Data(make([]byte, 64))
	}
	if n, err := st.SendBatch(pkts); err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	var sends, batches, got int
	for _, u := range under {
		sends += u.sends
		batches += u.batches
		got += u.pkts
	}
	if sends != 0 {
		t.Errorf("the striper fell back to %d single Sends through the shims", sends)
	}
	if batches == 0 || got/batches < 8 {
		t.Errorf("%d packets in %d channel writes: the batched path is not in use", got, batches)
	}
	if lost := len(pkts) - got; lost < 20 || lost > 140 {
		t.Errorf("the drop shims lost %d of %d packets, want about 1%%", lost, len(pkts))
	}
	if calls, n, _ := tr.totals(spanTx); calls != int64(batches) || n != int64(len(pkts)) {
		t.Errorf("tx spans: %d calls, %d packets; want %d calls, %d packets", calls, n, batches, len(pkts))
	}
}

func TestDropShimIsDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		gen := newPayloadGen(7, bimodal)
		d := newDropShim(&countingSender{}, 0.01, seed)
		d.on.Store(true)
		batch := make([]*stripe.Packet, 64)
		for seq := uint64(0); seq < 64_000; {
			for i := range batch {
				batch[i] = stripe.GetPacketSized(gen.size(seq))
				gen.fill(batch[i].Payload, seq)
				seq++
			}
			if n, err := d.SendBatch(batch); n != len(batch) || err != nil {
				t.Fatalf("SendBatch = %d, %v: a dropped packet must count as accepted", n, err)
			}
		}
		return d.droppedData
	}
	a, b, c := run(1), run(1), run(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed dropped different packets")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds dropped the same packets")
	}
	if len(a) < 400 || len(a) > 900 {
		t.Errorf("dropped %d of 64000 packets, want about 1%%", len(a))
	}
}

// refusingSender accepts only the first few packets of a batch.
type refusingSender struct{ accept int }

func (r refusingSender) Send(*stripe.Packet) error { return os.ErrClosed }
func (r refusingSender) SendBatch(pkts []*stripe.Packet) (int, error) {
	if len(pkts) <= r.accept {
		return len(pkts), nil
	}
	return r.accept, os.ErrClosed
}

func TestDropShimReportsRefusalsInInputPositions(t *testing.T) {
	d := newDropShim(refusingSender{accept: 10}, 0.2, 3)
	d.on.Store(true)
	batch := make([]*stripe.Packet, 64)
	for i := range batch {
		batch[i] = stripe.Data(make([]byte, 64))
	}
	n, err := d.SendBatch(batch)
	if err == nil {
		t.Fatal("the transport's error was swallowed")
	}
	if survivors := n - int(d.dropped); survivors > 10 || n < 10 {
		t.Errorf("accepted %d with %d dropped: more survivors than the transport took", n, d.dropped)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for q, want := range map[float64]float64{50: 500, 99: 990, 100: 1000, 0: 1} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if beyond := len(sorted) - int(percentile(sorted, tailPercentile(len(sorted)))); beyond < 10 {
		t.Errorf("only %d samples beyond the tail percentile", beyond)
	}
}

// The driver computes spreads with Python's statistics.quantiles; so
// must the result file.
func TestQuartilesFollowPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestPayloadVerify(t *testing.T) {
	g := newPayloadGen(5, bimodal)
	for _, seq := range []uint64{0, 1, 16, 17, 65_535, 1 << 40} {
		b := make([]byte, g.size(seq))
		g.fill(b, seq)
		stamp(b, 12345)
		if got, st, ok := g.verify(b); !ok || got != seq || st != 12345 {
			t.Fatalf("seq %d: verify = %d, %d, %v", seq, got, st, ok)
		}
		fillByte, header := len(b)/2, 9
		b[fillByte] ^= 1
		if _, _, ok := g.verify(b); ok {
			t.Errorf("seq %d: a flipped fill bit passed", seq)
		}
		b[fillByte] ^= 1
		b[header] ^= 1
		if _, _, ok := g.verify(b); ok != (seq%crcEvery != 0) {
			t.Errorf("seq %d: a flipped stamp bit: ok = %v; only CRC-carrying packets can catch it", seq, ok)
		}
		b[header] ^= 1
		if _, _, ok := g.verify(b[:len(b)-1]); ok {
			t.Errorf("seq %d: a short payload passed", seq)
		}
	}
	if same := newPayloadGen(5, bimodal); !bytes.Equal(same.pattern, g.pattern) || !slices.Equal(same.sizes, g.sizes) {
		t.Error("the same seed gave different inputs")
	}
}

// Killing a pump wedges a credit-less TCP session for good: the
// resequencer waits on the dead channel, its socket fills, and the
// producer parks in Flush under Session.mu. The watchdog must end the
// run anyway, report it stalled, and leave the stacks behind.
func TestWatchdogEndsAWedgedRun(t *testing.T) {
	out := t.TempDir()
	start := time.Now()
	m, err := measure(workloadByName("bulk_tcp"), runOpts{
		seed: 1, seconds: 0.5, outDir: out, grace: time.Second,
		hook: func(p *pair) { p.killPump.Store(2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("the wedged run took %v to end", took)
	}
	if !m.stalled {
		t.Fatal("the run was not reported as stalled")
	}
	if m.failed(workloadByName("bulk_tcp")) == 0 {
		t.Error("undelivered packets were not counted as failed")
	}
	if len(m.problems) == 0 || !strings.Contains(strings.Join(m.problems, "\n"), "watchdog") {
		t.Errorf("problems do not name the watchdog: %q", m.problems)
	}
	dump, err := os.ReadFile(filepath.Join(out, "stall-bulk_tcp.txt"))
	if err != nil || !bytes.Contains(dump, []byte("goroutine ")) {
		t.Errorf("no goroutine dump: %v", err)
	}
}

// One short run of each kind: every metric BENCHMARK.json promises is
// there, and the outputs verify.
func TestRunsEmitEveryMetric(t *testing.T) {
	out := t.TempDir()
	rep, err := runOnce(workloadByName("duplex_tcp_fc"), runOpts{seed: 3, seconds: 0.5, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("duplex_tcp_fc: correct=%v failed=%d problems=%q", rep.Correct, rep.Failed, rep.Problems)
	}
	for _, d := range endToEnd {
		if v, ok := rep.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("end-to-end metric %s = %+v", d.Name, v)
		}
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on an untraced run, want %d", len(rep.Metrics), len(endToEnd))
	}

	rep, err = runOnce(workloadByName("pingpong_tcp"), runOpts{seed: 3, seconds: 0.5, outDir: out, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("pingpong_tcp traced: problems=%q", rep.Problems)
	}
	for _, d := range perLayer() {
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(rep.Metrics) != len(perLayer()) {
		t.Errorf("%d metrics on a traced run, want %d", len(rep.Metrics), len(perLayer()))
	}
	for _, name := range []string{"sched.decision_ns", "netchan.tcp_b1_ns", "stripe.session_inproc_ns", "netchan.tx_ns", "stripe.arrive_ns", "stripe.recv_ns"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive time", name, rep.Metrics[name].Value)
		}
	}
	if spans, err := os.ReadFile(filepath.Join(out, "spans-pingpong_tcp.csv")); err != nil || bytes.Count(spans, []byte("\n")) < 100 {
		t.Errorf("span file: %v, %d lines", err, bytes.Count(spans, []byte("\n")))
	}
}

// BENCHMARK.json is written by hand; the tables here are what runs.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the package:", err)
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	var gated []*workload
	for _, w := range workloads {
		if !w.hostBound {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in the code", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer())
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput float64) string {
		r := resultFile{
			Env:       environment{GoVersion: "go", NumCPU: 2, Seconds: 10},
			Workloads: map[string]*workloadResult{"bulk_tcp": {EndToEnd: map[string]resultMetric{}}},
		}
		for _, d := range endToEnd {
			r.Workloads["bulk_tcp"].EndToEnd[d.Name] = resultMetric{metricDef: d, Value: 100}
		}
		m := r.Workloads["bulk_tcp"].EndToEnd["goodput_mbps"]
		m.Value = goodput
		r.Workloads["bulk_tcp"].EndToEnd["goodput_mbps"] = m
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 100 * endToEnd[0].Bound
	base, near, far := write("a.json", 100), write("b.json", 100+0.8*bound), write("c.json", 100-1.5*bound)
	var out bytes.Buffer
	if code := agreeFiles(base, near, &out); code != 0 {
		t.Errorf("0.8 of the bound apart: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := agreeFiles(base, far, &out); code == 0 || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("1.5 of the bound apart: exit %d\n%s", code, out.String())
	}
}
