package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"disksig/internal/wire"
)

// statusWriter captures the status code and body size for access logs
// and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// logLinePool recycles access-log line buffers: the line is appended
// into a pooled []byte instead of being fmt-formatted, so logging a
// request costs one string conversion, not a box per operand.
var logLinePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 192)
	return &b
}}

// instrument wraps a handler with metrics and structured access logging.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.m.observeRequest(sw.status, elapsed)
		if s.cfg.Log != nil {
			bp := logLinePool.Get().(*[]byte)
			b := (*bp)[:0]
			b = append(b, "method="...)
			b = append(b, r.Method...)
			b = append(b, " path="...)
			b = append(b, r.URL.Path...)
			b = append(b, " status="...)
			b = strconv.AppendInt(b, int64(sw.status), 10)
			b = append(b, " bytes="...)
			b = strconv.AppendInt(b, int64(sw.bytes), 10)
			b = append(b, " dur="...)
			b = append(b, elapsed.Round(time.Microsecond).String()...)
			b = append(b, " remote="...)
			b = append(b, r.RemoteAddr...)
			_ = s.cfg.Log.Output(2, string(b))
			*bp = b
			logLinePool.Put(bp)
		}
	})
}

// limitConcurrency is the load-shedding middleware: each request must
// hold one unit of the in-flight semaphore. A request that cannot get a
// slot immediately waits up to Config.QueueWait (bounded additionally by
// its own context) and is then shed with 429 instead of queueing
// unboundedly — bounded queues are what keep tail latency finite under
// overload.
func (s *Server) limitConcurrency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.sem.TryAcquire(1) {
			acquired := false
			if s.cfg.QueueWait > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueWait)
				acquired = s.sem.Acquire(ctx, 1) == nil
				cancel()
			}
			if !acquired {
				s.m.requestsShed.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.QueueWait)))
				wire.WriteJSON(w, http.StatusTooManyRequests, map[string]any{
					"error": "server at concurrency limit, retry later",
				})
				return
			}
		}
		defer s.sem.Release(1)
		next.ServeHTTP(w, r)
	})
}

// retryAfterSeconds derives the Retry-After hint from the queue-wait
// budget, rounding UP to whole seconds. Retry-After carries integral
// seconds, and a sub-second QueueWait naively truncated would emit
// "Retry-After: 0" — an instruction to hammer an overloaded server.
// The floor is always 1 second.
func retryAfterSeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
