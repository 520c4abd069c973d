package obs

// http.go is the opt-in exposition listener behind mmnet/mmexp's
// -metrics-addr flag: /metrics serves the registry in Prometheus text
// format and /debug/pprof serves the standard profiling endpoints (whose
// CPU profiles break down by engine phase when pprof labels are on). This
// is the exact surface the ROADMAP's mmserve will mount.

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a running exposition listener.
type Server struct {
	// Addr is the bound listen address (resolves ":0" to the real port).
	Addr string

	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP listener on addr exposing reg at /metrics and the
// pprof handlers at /debug/pprof/. It returns once the listener is bound
// (so ":0" callers can read the resolved Addr) and serves in a background
// goroutine until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
