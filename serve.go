package stripe

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"stripe/internal/obs"
)

// maxTraceExport caps the lifecycles one /debug/stripe/trace response
// carries, split across the distinct tracers behind the endpoint, so a
// scrape loop cannot amplify the export cost with the retention size.
const maxTraceExport = 2048

// Server is the observability HTTP endpoint started by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server

	// Reused trace-export scratch: the dedup set and copy buffer live
	// for the server's lifetime instead of being rebuilt per request.
	traceMu   sync.Mutex
	traceSeen map[*Tracer]bool
	traceBuf  []PacketTrace

	// done is closed by the serve goroutine when the accept loop exits,
	// so Close can wait for it instead of abandoning the goroutine.
	done chan struct{}
}

// Serve starts an HTTP endpoint exposing the given collectors:
//
//	/metrics              Prometheus text exposition (all stripe_* metrics,
//	                      including the windowed stripe_*_rate and
//	                      stripe_channel_health gauges)
//	/debug/pprof/         the standard net/http/pprof profiles
//	/debug/stripe/trace   chrome://tracing JSON of recent packet
//	                      lifecycles (collectors with a Tracer attached)
//	/debug/stripe/health  JSON health report per collector: fairness,
//	                      windowed per-channel rates, and health scores
//	                      (see obs.HealthReport); the payload stripetop
//	                      polls
//
// addr is a TCP listen address such as ":9090" or "127.0.0.1:0"; use
// Server.Addr to learn the bound address when the port was 0. The
// endpoint reads collectors without locks and never touches the
// protocol hot path. Close the returned Server to stop serving.
func Serve(addr string, cols ...*Collector) (*Server, error) {
	live := make([]*Collector, 0, len(cols))
	for _, c := range cols {
		if c != nil {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("stripe: Serve needs at least one non-nil Collector")
	}

	s := &Server{traceSeen: map[*Tracer]bool{}, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, live...)
	})
	mux.HandleFunc("/debug/stripe/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.writeTrace(w, live)
	})
	mux.HandleFunc("/debug/stripe/health", func(w http.ResponseWriter, _ *http.Request) {
		reports := make([]obs.HealthReport, len(live))
		for i, c := range live {
			reports[i] = c.HealthReport()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct { //nolint:errcheck // client gone
			Sessions []obs.HealthReport
		}{reports})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return s, nil
}

// writeTrace renders one timeline across all collectors: every
// tracer's recent lifecycles plus each collector's retained events
// share the process timebase. Distinct tracers are deduplicated (a
// session pair usually shares one), the export is capped at
// maxTraceExport lifecycles split evenly across tracers, and the
// dedup set and copy buffer are reused across requests.
func (s *Server) writeTrace(w http.ResponseWriter, live []*Collector) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	for t := range s.traceSeen {
		delete(s.traceSeen, t)
	}
	tracers := 0
	for _, c := range live {
		if t := c.Tracer(); t != nil && !s.traceSeen[t] {
			s.traceSeen[t] = true
			tracers++
		}
	}
	s.traceBuf = s.traceBuf[:0]
	if tracers > 0 {
		per := maxTraceExport / tracers
		for t := range s.traceSeen {
			s.traceBuf = t.AppendRecent(s.traceBuf, per)
		}
	}
	obs.WriteChromeTrace(w, s.traceBuf, nil) //nolint:errcheck // client gone
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
