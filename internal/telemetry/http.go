package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler mounts the observability endpoints on one mux:
//
//	/metrics      Prometheus text format from the Live aggregate
//	/healthz      run identity + current step (readiness probe)
//	/events       Server-Sent Events stream of per-step samples
//	/debug/vars   expvar (Go runtime memstats and command line)
//	/debug/pprof  the standard profiling handlers
func Handler(l *Live) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		l.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthz(l, w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(l, w, r)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthzJSON is the /healthz response body.
type healthzJSON struct {
	Status string `json:"status"`
	Step   int64  `json:"step"`
	RunInfo
}

func healthz(l *Live, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	body := healthzJSON{Status: "ok", Step: l.Step(), RunInfo: l.Info()}
	_ = json.NewEncoder(w).Encode(body)
}

// serveEvents streams per-step samples as Server-Sent Events: one `data:`
// line per sample, each the same JSON object a timeline sample line carries
// (`picstat -follow` tails this). The handler returns when the client goes
// away or the stream closes at shutdown — Serve's stop function closes the
// stream before the listener precisely so no handler goroutine outlives it.
func serveEvents(l *Live, w http.ResponseWriter, r *http.Request) {
	if l == nil {
		http.Error(w, "no live telemetry on this server", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := l.Stream().Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line flushes the headers so clients know the
	// stream is live before the first sample lands.
	_, _ = w.Write([]byte(": picprk event stream\n\n"))
	fl.Flush()
	for {
		select {
		case s, open := <-ch:
			if !open {
				return
			}
			b, err := MarshalSample(&s)
			if err != nil {
				return
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Serve starts the observability server on addr (e.g. ":6060"; ":0" picks a
// free port). It returns the bound address and a shutdown function; the
// shutdown closes the live sample stream first (waking every /events
// handler), then drains the server gracefully so streaming clients see a
// clean end-of-body, falling back to a hard close if a handler stalls. No
// goroutine survives it.
func Serve(addr string, l *Live) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(l), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after shutdown
	stop := func() error {
		l.Stream().Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), stop, nil
}
