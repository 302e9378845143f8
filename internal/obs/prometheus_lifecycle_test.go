package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusLifecycle is the golden-ish exposition test for
// the tracing layer: every lifecycle metric renders with the right name
// and TYPE, histogram buckets are cumulative and monotone in le, and
// the invariant counter is present on every collector.
func TestWritePrometheusLifecycle(t *testing.T) {
	c := NewNamedCollector("lt", 2)
	tr := NewTracer(TracerConfig{Sample: 1})
	c.SetTracer(tr)
	k := NewChecker()
	c.SetChecker(k)
	for key := uint64(0); key < 100; key++ {
		c.TraceGated(key)
		c.TraceSend(key, int(key%2))
		c.TraceArrive(key, int(key%2))
		c.TraceDeliver(key, int64(key%3))
	}
	c.PublishSend(&SendLedger{Round: 5})
	c.PublishSend(&SendLedger{Round: 1}) // one seeded violation

	var sb strings.Builder
	WritePrometheus(&sb, c)
	out := sb.String()

	for _, want := range []string{
		"# TYPE stripe_latency_e2e_nanoseconds histogram",
		"# TYPE stripe_latency_reseq_nanoseconds histogram",
		"# TYPE stripe_latency_hol_nanoseconds histogram",
		"# TYPE stripe_latency_send_stall_nanoseconds histogram",
		"# TYPE stripe_trace_sample_period gauge",
		"# TYPE stripe_trace_tracked_total counter",
		"# TYPE stripe_trace_evicted_total counter",
		"# TYPE stripe_trace_torn_total counter",
		"# TYPE stripe_invariant_violations_total counter",
		`stripe_latency_e2e_nanoseconds_bucket{session="lt",le="+Inf"} 100`,
		`stripe_latency_e2e_nanoseconds_count{session="lt"} 100`,
		`stripe_trace_sample_period{session="lt"} 1`,
		`stripe_trace_tracked_total{session="lt"} 100`,
		`stripe_invariant_violations_total{session="lt"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q\n%s", want, out)
		}
	}

	// Buckets must be cumulative: counts non-decreasing as le grows,
	// ending at the _count value.
	var prev, last int64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `stripe_latency_e2e_nanoseconds_bucket`) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("non-cumulative buckets at %q", line)
		}
		prev, last = v, v
		seen++
	}
	if seen != nBuckets || last != 100 {
		t.Fatalf("saw %d bucket lines, last %d", seen, last)
	}

	// A tracer-less collector on the same endpoint renders no lifecycle
	// samples but still renders the invariant counter.
	plain := NewNamedCollector("plain", 1)
	sb.Reset()
	WritePrometheus(&sb, c, plain)
	out = sb.String()
	if strings.Contains(out, `stripe_trace_tracked_total{session="plain"}`) {
		t.Fatal("tracer-less collector rendered lifecycle samples")
	}
	if !strings.Contains(out, `stripe_invariant_violations_total{session="plain"} 0`) {
		t.Fatalf("missing invariant counter for plain collector\n%s", out)
	}
	// HELP/TYPE still appear exactly once.
	if n := strings.Count(out, "# TYPE stripe_latency_e2e_nanoseconds histogram"); n != 1 {
		t.Fatalf("TYPE line appears %d times", n)
	}
}
