package serve

import (
	"context"
	"net/http"
)

// withTimeout bounds one request's handling at s.timeout without leaving the
// connection's goroutine: the handler runs inline against a context
// deadlined at s.timeout, and the request's wrapper writer (statusWriter,
// see accesslog.go) checks the deadline on its first header or body write —
// and once more after the handler returns, if it wrote nothing. A request
// past its deadline is answered with a JSON 503, counted in
// ptucker_request_timeouts_total, and the handler's own output is discarded.
// A timeout of zero disables the wrapper.
//
// Handlers read the context where they can block (observe waiting on
// online.mu or staging) and give up early; the rest run to completion, so a
// timeout never corrupts server state — it only replaces the answer. Because
// the handler has returned before ServeHTTP does, anything the caller holds
// for the request (a registry tenant's read lock) covers the handler's whole
// run.
func (s *Server) withTimeout(h http.HandlerFunc) http.Handler {
	if s.timeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		// Under instrument the request already has its wrapper writer; reuse
		// it so every request pays for one.
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		sw.deadline, _ = ctx.Deadline()
		sw.timeouts = &s.met.timeouts
		h(sw, r.WithContext(ctx))
		if sw.code == 0 {
			// The handler wrote nothing: the implicit 200 is due now, so it
			// gets the same deadline check a write would have.
			sw.begin(http.StatusOK)
		}
	})
}
