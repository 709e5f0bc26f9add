package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disksig/internal/loadgen"
)

// reqHeader carries a client request number to the benchmark's own
// server-side wrappers in traced windows, so a client request can be
// matched to the outermost span it caused. The program ignores it.
const reqHeader = "X-Perfbench-Req"

// Request kinds.
const (
	kindIngest = iota
	kindSummary
	kindDrive
)

var kindName = [...]string{"ingest", "summary", "drive"}

// sample is one HTTP request as the client saw it. Times are offsets
// from the run's clock origin. due is when the request was scheduled:
// equal to start for closed-loop writes, and the read schedule's slot
// for reads, so a stall that delays later reads is charged to them.
type sample struct {
	kind               int
	window             int // measured window at send time; -1 outside the measured phase
	traced             bool
	id                 int64
	due, start, end    time.Duration
	status             int // 0: transport error
	reqBytes, rspBytes int64
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// latencyMs is the request's latency from its due time; a failed
// request missed every percentile.
func (s sample) latencyMs() float64 {
	if !s.ok() {
		return inf
	}
	return float64(s.end-s.due) / float64(time.Millisecond)
}

// recorder collects samples. One per run; the writers' transport and
// the reader both append to it.
type recorder struct {
	origin time.Time
	window atomic.Int64 // current measured window, -1 outside
	traced atomic.Bool  // whether the current window is traced
	nextID atomic.Int64

	steal *stealLog

	mu      sync.Mutex
	samples []sample
}

func newRecorder(origin time.Time) *recorder {
	r := &recorder{origin: origin}
	r.window.Store(-1)
	r.steal = &stealLog{clock: r.now, ncpu: runtime.NumCPU()}
	return r
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// take returns and forgets the collected samples.
func (r *recorder) take() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.samples
	r.samples = nil
	return s
}

// timedTransport times every request the loadgen driver makes, from
// the call into the transport to the close of the response body (the
// driver closes it after decoding the ack), and counts its bytes.
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := sample{kind: kindIngest, window: int(t.rec.window.Load()), reqBytes: req.ContentLength}
	if t.rec.traced.Load() {
		s.traced = true
		s.id = t.rec.nextID.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatInt(s.id, 10))
	}
	s.start = t.rec.now()
	s.due = s.start
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// timedBody records its request's sample when the body is closed.
type timedBody struct {
	io.ReadCloser
	rec  *recorder
	s    sample
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.rspBytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.end = b.rec.now()
		b.rec.add(b.s)
	}
	return err
}

// newClient returns an HTTP client over a loopback transport limited
// to conns connections, wrapped in the timing transport when rec is
// set.
func newClient(conns int, rec *recorder) *http.Client {
	base := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if rec == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &timedTransport{base: base, rec: rec}}
}

// readSchedule is an open-loop read mix: a period that repeats from
// the phase start, with one read due at each slot's offset into it.
// Slots are spaced so that on an unloaded reader each read is due after
// the previous one has been answered; the read that follows a slow one
// is sent late and charged the wait.
type readSchedule struct {
	period time.Duration
	slots  []readSlot
}

type readSlot struct {
	offset time.Duration
	kind   int // kindSummary or kindDrive
}

// runReader issues the scheduled reads against base, period after
// period from from (an offset on rec's clock), until stop(p) says
// period p is not to be started or ctx ends. Drive reads pick seeded
// serials. With alternate set, every other period is traced.
func runReader(ctx context.Context, client *http.Client, base string, serials []string, seed int64,
	rec *recorder, sched readSchedule, from time.Duration, stop func(period int) bool, alternate bool) {
	rng := rand.New(rand.NewSource(seed))
	rec.steal.sample()
	for p := 0; !stop(p) && ctx.Err() == nil; p++ {
		pstart := from + time.Duration(p)*sched.period
		if alternate {
			rec.traced.Store(p%2 == 0)
		}
		for _, slot := range sched.slots {
			due := pstart + slot.offset
			if wait := due - rec.now(); wait > stealMargin {
				// Close the previous read's steal bracket while idle.
				time.Sleep(stealMargin)
				rec.steal.sample()
			}
			if wait := due - rec.now(); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			s := sample{kind: slot.kind, window: int(rec.window.Load()), due: due}
			path := "/v1/fleet/summary"
			if slot.kind == kindDrive {
				path = "/v1/drives/" + serials[rng.Intn(len(serials))]
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
			if err != nil {
				return
			}
			if rec.traced.Load() {
				s.traced = true
				s.id = rec.nextID.Add(1)
				req.Header.Set(reqHeader, strconv.FormatInt(s.id, 10))
			}
			s.start = rec.now()
			resp, err := client.Do(req)
			if err == nil {
				s.rspBytes, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.status = resp.StatusCode
			}
			s.end = rec.now()
			rec.add(s)
			rec.steal.sample()
		}
	}
}

// cleanReads counts the answered reads of each kind whose timing the
// host did not disturb, among those the steal timeline already covers.
func (r *recorder) cleanReads() (summaries, drives int) {
	r.mu.Lock()
	reads := make([]sample, 0, 512)
	for _, s := range r.samples {
		if s.kind != kindIngest && s.ok() {
			reads = append(reads, s)
		}
	}
	r.mu.Unlock()
	for _, s := range reads {
		if r.steal.covers(s.end) && !r.steal.disturbed(s.due, s.end) {
			if s.kind == kindSummary {
				summaries++
			} else {
				drives++
			}
		}
	}
	return summaries, drives
}

// waitReady polls a base URL's readiness probe until it answers 200 or
// the timeout passes.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, err := loadgen.ReadyStatus(base)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (status %d, err %v)", base, timeout, code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON GETs url and decodes its JSON body.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
