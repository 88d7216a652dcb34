package obs

import (
	"log/slog"
	"net/http"
	"time"

	"trips/internal/obs/trace"
)

// HTTPMetrics are the server-wide request instruments the Middleware
// maintains: one latency histogram over every request plus per-status-class
// counters (1xx..5xx; index 0 collects the classes that should not exist).
type HTTPMetrics struct {
	Latency *Histogram
	ByClass [6]*Counter
}

// NewHTTPMetrics registers the request metrics under
// <prefix>_http_request_seconds and <prefix>_http_requests_total{code}.
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	m := &HTTPMetrics{
		Latency: r.Histogram(prefix+"_http_request_seconds",
			"HTTP request latency from header receipt to handler return.", nil),
	}
	classes := [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i, code := range classes {
		m.ByClass[i] = r.Counter(prefix+"_http_requests_total",
			"HTTP requests served, by status class.", "code", code)
	}
	return m
}

// statusWriter captures the status code and body size of a response. It
// forwards Flush so streaming handlers (the SSE subscription endpoint
// asserts http.Flusher) keep working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware wraps next with request accounting: every request is timed
// and counted into m, and logged to logger at Info as one structured
// access-log line (method, path, status, duration, bytes, trace_id). A nil
// logger disables logging, a nil m disables metrics, a nil tracer disables
// tracing; with all three nil next is returned unwrapped.
//
// With a tracer, the middleware makes the per-request head-sampling
// decision: an inbound well-formed X-Trace-Id header forces the trace
// (sampled and pinned), otherwise Tracer.Sample rolls. The resulting
// context rides in the request context (trace.FromContext) for handlers to
// start spans under, and the trace ID is echoed in the X-Trace-Id response
// header and on the access-log line.
func Middleware(m *HTTPMetrics, logger *slog.Logger, tracer *trace.Tracer, next http.Handler) http.Handler {
	if m == nil && logger == nil && tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tc trace.Ctx
		if tracer != nil {
			if id, ok := trace.ParseTraceID(r.Header.Get("X-Trace-Id")); ok {
				tc = tracer.Force(id)
			} else {
				tc = tracer.Sample()
			}
			r = r.WithContext(trace.NewContext(r.Context(), tc))
			w.Header().Set("X-Trace-Id", tc.Trace.String())
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if m != nil {
			m.Latency.Observe(elapsed)
			class := sw.status / 100
			if class < 1 || class > 5 {
				class = 0
			}
			m.ByClass[class].Inc()
		}
		if logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", elapsed),
				slog.Int64("bytes", sw.bytes),
			}
			if !tc.Trace.IsZero() {
				attrs = append(attrs, slog.String("trace_id", tc.Trace.String()))
			}
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// HealthHandler answers liveness probes: the process is up and serving.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
}

// ReadyHandler answers readiness probes: 200 once ready() reports true
// (trips-server: dataset translated, warehouse replayed, analytics views
// bootstrapped), 503 before that, so orchestrators hold traffic until the
// views can answer.
func ReadyHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready == nil || ready() {
			w.Write([]byte("ready\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("starting\n"))
	})
}
