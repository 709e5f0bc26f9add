package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"disksig/internal/parallel"
	"disksig/internal/wire"
)

// Driver replays batch queues against a fleet health server over real
// HTTP. It is deliberately dumb about content — batches come prebuilt
// from a Workload — and careful about accounting: every attempt is
// classified by status, every 429's Retry-After header is validated,
// and a shed batch is retried (per-stream order intact) so a completed
// phase has delivered every record exactly once.
type Driver struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	// SetBaseURL swaps it mid-scenario (the chaos restart).
	BaseURL string
	// Client is the HTTP client; nil means a dedicated client with a
	// generous connection pool.
	Client *http.Client
	// MaxRetryWait caps how long a shed client sleeps before retrying,
	// regardless of the server's Retry-After hint (soak tests cannot
	// afford literal multi-second backoff). <= 0 means 50ms.
	MaxRetryWait time.Duration
	// MaxAttempts bounds retries per batch (429 and 5xx are retried;
	// sendBatch says when a retry re-applies records); <= 0 means 100.
	// It is the hard retry budget: a batch that cannot be delivered
	// within it fails the phase.
	MaxAttempts int
	// Endpoints, when non-empty, puts the driver in failover mode: each
	// client rotates through these base URLs when an endpoint refuses
	// connections or answers 503, follows the "leader" hint a replicated
	// follower attaches to its 503, and backs off exponentially with
	// deterministic jitter instead of the flat legacy wait. Transport
	// errors (connection refused/reset — the primary dying underneath
	// the client) become retryable instead of fatal. Empty keeps the
	// legacy single-endpoint behavior byte-for-byte.
	Endpoints []string
	// RetrySeed seeds the per-client jitter streams in failover mode, so
	// two runs with the same seed bounce between endpoints identically.
	RetrySeed int64
	// Log receives per-phase progress lines; nil disables.
	Log *log.Logger

	mu sync.Mutex // guards BaseURL swaps against in-flight readers
}

// SetBaseURL points the driver at a different server instance.
func (d *Driver) SetBaseURL(u string) {
	d.mu.Lock()
	d.BaseURL = u
	d.mu.Unlock()
}

func (d *Driver) baseURL() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.BaseURL
}

func (d *Driver) client() *http.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Client == nil {
		d.Client = newClient()
	}
	return d.Client
}

// newClient returns a dedicated driver client with a connection pool
// generous enough for every concurrent client of a phase.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
}

// Phase describes one execution phase over per-stream batch queues.
type Phase struct {
	// Name labels the phase in the report.
	Name string
	// Clients is the number of concurrent HTTP clients; stream s is
	// handled by client s mod Clients, so per-stream order holds at any
	// client count. <= 0 means one client per stream.
	Clients int
	// Interval paces each client: batch n of a client is not sent before
	// phase start + n*Interval (an open-loop schedule, closed to one
	// in-flight request per client). 0 means closed-loop, as fast as
	// responses return.
	Interval time.Duration
}

// PhaseStats is the measured outcome of one phase: the error taxonomy,
// ingest accounting, throughput and latency quantiles the report
// records, plus the alert keys collected from ingest responses.
type PhaseStats struct {
	Name     string  `json:"name"`
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"` // attempts, including retried ones
	Batches  int     `json:"batches"`  // distinct batches delivered
	Retries  int     `json:"retries"`
	Duration float64 `json:"duration_ms"`

	// Status counts every attempt by taxonomy class.
	Status map[string]int `json:"status"`

	RecordsSent        int     `json:"records_sent"`
	RecordsKept        int     `json:"records_kept"`
	RecordsQuarantined int     `json:"records_quarantined"`
	RecordsPerSec      float64 `json:"records_per_sec"`

	// ModelVersions counts acknowledged batches by the model version
	// that scored them ("v1", "v2", ...). Every batch carries exactly one
	// version — the swap-barrier evidence of the drift scenario.
	ModelVersions map[string]int `json:"model_versions,omitempty"`

	Latency Quantiles `json:"latency_ms"`

	// AlertKeys are the alerts acknowledged in ingest responses, in
	// per-client submission order (a multiset across clients).
	AlertKeys []string `json:"-"`
}

// Quantiles summarizes a latency sample set in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// failoverState is one client's endpoint rotation and jitter stream.
// The rng is seeded from (RetrySeed, client), so a rerun with the same
// seed makes the same endpoint hops and sleeps — chaos scenarios stay
// reproducible down to the retry schedule.
type failoverState struct {
	rng  *rand.Rand
	urls []string
	idx  int
}

// url returns the endpoint this client currently targets.
func (f *failoverState) url() string { return f.urls[f.idx] }

// rotate moves to the next endpoint (after a refused connection or an
// unhelpful 503).
func (f *failoverState) rotate() { f.idx = (f.idx + 1) % len(f.urls) }

// follow jumps to a hinted leader URL if it is one of the known
// endpoints; an unknown hint (or none) just rotates.
func (f *failoverState) follow(leader string) {
	for i, u := range f.urls {
		if u == leader {
			f.idx = i
			return
		}
	}
	f.rotate()
}

// backoff returns the next retry sleep: exponential in the attempt
// number, capped at maxWait, with deterministic jitter in [w/2, w] so
// concurrent clients do not stampede a freshly promoted follower.
func (f *failoverState) backoff(attempt int, maxWait time.Duration) time.Duration {
	w := 2 * time.Millisecond << uint(min(attempt-1, 20))
	if w > maxWait {
		w = maxWait
	}
	half := int64(w / 2)
	return time.Duration(half + f.rng.Int63n(half+1))
}

// statusClassOf buckets a status code into the report taxonomy. 400 and
// 413 are split out because they are contract violations the scenarios
// assert to be zero; other 4xx are lumped. Code 0 is the failover-mode
// marker for a transport error (no HTTP status came back).
func statusClassOf(code int) string {
	switch {
	case code == 0:
		return "net"
	case code == http.StatusBadRequest:
		return "400"
	case code == http.StatusRequestEntityTooLarge:
		return "413"
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 500:
		return "5xx"
	default:
		return "4xx"
	}
}

// clientStats is one client's accumulator, merged after the phase so
// the hot path takes no locks.
type clientStats struct {
	requests, batches, retries int
	status                     map[string]int
	sent, kept, quarantined    int
	versions                   map[int]int
	latenciesMs                []float64
	alerts                     []string
	err                        error
	fo                         *failoverState // non-nil in failover mode
}

// Run executes one phase: the queues' batches are delivered in
// per-stream order by Clients concurrent clients, shed batches are
// retried, and the phase returns when every batch is acknowledged with
// 200. Any contract violation — an unretryable status, a broken
// accounting invariant, a 429 without a valid Retry-After — fails the
// phase.
func (d *Driver) Run(ctx context.Context, phase Phase, queues [][]*Batch) (*PhaseStats, error) {
	clients := phase.Clients
	if clients <= 0 || clients > len(queues) {
		clients = len(queues)
	}
	if clients == 0 {
		return &PhaseStats{Name: phase.Name, Status: map[string]int{}}, nil
	}
	maxWait := d.MaxRetryWait
	if maxWait <= 0 {
		maxWait = 50 * time.Millisecond
	}
	maxAttempts := d.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 100
	}

	perClient := make([]clientStats, clients)
	start := time.Now()
	parallel.ForEach(clients, clients, func(c int) {
		st := &perClient[c]
		st.status = map[string]int{}
		if len(d.Endpoints) > 0 {
			fo := &failoverState{
				rng:  rand.New(rand.NewSource(parallel.DeriveSeed(d.RetrySeed, int64(c)))),
				urls: d.Endpoints,
			}
			for i, u := range fo.urls {
				if u == d.baseURL() {
					fo.idx = i
					break
				}
			}
			st.fo = fo
		}
		n := 0 // batches sent by this client, for the pacing schedule
		// Round-robin across this client's streams, one batch per turn,
		// so a slow stream does not starve the others.
		var mine [][]*Batch
		for s := c; s < len(queues); s += clients {
			mine = append(mine, queues[s])
		}
		for turn := 0; ; turn++ {
			any := false
			for _, q := range mine {
				if turn >= len(q) {
					continue
				}
				any = true
				if phase.Interval > 0 {
					if wait := time.Until(start.Add(time.Duration(n) * phase.Interval)); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							st.err = ctx.Err()
							return
						}
					}
				}
				if err := d.sendBatch(ctx, q[turn], st, maxWait, maxAttempts); err != nil {
					st.err = err
					return
				}
				n++
			}
			if !any {
				return
			}
		}
	})
	elapsed := time.Since(start)

	stats := &PhaseStats{
		Name:     phase.Name,
		Clients:  clients,
		Duration: float64(elapsed) / float64(time.Millisecond),
		Status:   map[string]int{},
	}
	var lat []float64
	for c := range perClient {
		st := &perClient[c]
		if st.err != nil {
			return stats, fmt.Errorf("loadgen: phase %s client %d: %w", phase.Name, c, st.err)
		}
		stats.Requests += st.requests
		stats.Batches += st.batches
		stats.Retries += st.retries
		for k, v := range st.status {
			stats.Status[k] += v
		}
		stats.RecordsSent += st.sent
		stats.RecordsKept += st.kept
		stats.RecordsQuarantined += st.quarantined
		for v, n := range st.versions {
			if stats.ModelVersions == nil {
				stats.ModelVersions = map[string]int{}
			}
			stats.ModelVersions[fmt.Sprintf("v%d", v)] += n
		}
		lat = append(lat, st.latenciesMs...)
		stats.AlertKeys = append(stats.AlertKeys, st.alerts...)
	}
	if elapsed > 0 {
		stats.RecordsPerSec = float64(stats.RecordsSent) / elapsed.Seconds()
	}
	stats.Latency = quantiles(lat)
	if d.Log != nil {
		d.Log.Printf("phase %s: clients=%d requests=%d (retries=%d) records=%d (%.0f/s) p50=%.2fms p99=%.2fms status=%v",
			stats.Name, stats.Clients, stats.Requests, stats.Retries, stats.RecordsSent,
			stats.RecordsPerSec, stats.Latency.P50, stats.Latency.P99, stats.Status)
	}
	return stats, nil
}

// sendBatch delivers one batch, retrying shed (429) and failed (5xx)
// attempts. A single node applies nothing of a batch it sheds, but a
// retry can still apply records twice in two cases: behind the router,
// node k's 429 or 5xx (or the router's 502 for it) is relayed after the
// nodes before k applied their parts, because ingest forwards run one
// node after another (DESIGN.md §12); and a replicated primary's
// ack-timeout 500 comes after it applied the batch locally (DESIGN.md
// §11). A re-applied record lands as a duplicate hour. In failover mode
// (st.fo non-nil) transport errors and 503s are also retried, rotating
// endpoints: the primary dying mid-run is exactly the event the mode
// exists for, and neither a refused connection nor a follower's
// not-the-primary 503 applied anything.
func (d *Driver) sendBatch(ctx context.Context, b *Batch, st *clientStats, maxWait time.Duration, maxAttempts int) error {
	contentType := b.ContentType
	if contentType == "" {
		contentType = "application/json"
	}
	for attempt := 1; ; attempt++ {
		url := d.baseURL()
		if st.fo != nil {
			url = st.fo.url()
		}
		code, retryAfter, leader, doc, elapsedMs, err := d.post(ctx, url, b.Body, contentType)
		if err != nil {
			if st.fo == nil || ctx.Err() != nil {
				return fmt.Errorf("batch %d/%d: %w", b.Stream, b.Index, err)
			}
			// Transport error during failover: the endpoint is gone (or the
			// connection died before any response). Count it, rotate, back
			// off, and try the next endpoint.
			st.requests++
			st.status["net"]++
			if attempt >= maxAttempts {
				return fmt.Errorf("batch %d/%d: transport error after %d attempts: %w", b.Stream, b.Index, attempt, err)
			}
			st.retries++
			st.fo.rotate()
			select {
			case <-time.After(st.fo.backoff(attempt, maxWait)):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		st.requests++
		st.status[statusClassOf(code)]++
		st.latenciesMs = append(st.latenciesMs, elapsedMs)
		switch {
		case code == http.StatusOK:
			if doc.Ingested != len(b.Obs) || doc.Ingested != doc.Kept+doc.Quarantined {
				return fmt.Errorf("batch %d/%d: accounting %d = %d kept + %d quarantined violated (sent %d records)",
					b.Stream, b.Index, doc.Ingested, doc.Kept, doc.Quarantined, len(b.Obs))
			}
			st.batches++
			st.sent += doc.Ingested
			st.kept += doc.Kept
			st.quarantined += doc.Quarantined
			if st.versions == nil {
				st.versions = map[int]int{}
			}
			st.versions[doc.ModelVersion]++
			for _, a := range doc.Alerts {
				st.alerts = append(st.alerts, AlertKey(a.Serial, a.Hour, a.Severity, a.Group, a.Type, a.Degradation))
			}
			return nil
		case code == http.StatusTooManyRequests || code >= 500:
			// A 429 must carry a valid Retry-After; a 503 may (the router's
			// handoff write gate sends one meaning "same node, come back
			// shortly"). When present it is validated like the 429's and
			// honored below — capped at maxWait, like every other sleep.
			var hinted time.Duration
			if code == http.StatusTooManyRequests ||
				(code == http.StatusServiceUnavailable && retryAfter != "") {
				secs, err := strconv.Atoi(retryAfter)
				if err != nil || secs < 1 {
					return fmt.Errorf("batch %d/%d: %d with invalid Retry-After %q (want integer seconds >= 1)",
						b.Stream, b.Index, code, retryAfter)
				}
				hinted = time.Duration(secs) * time.Second
				if hinted > maxWait {
					hinted = maxWait
				}
			}
			if attempt >= maxAttempts {
				return fmt.Errorf("batch %d/%d: still status %d after %d attempts", b.Stream, b.Index, code, attempt)
			}
			st.retries++
			wait := maxWait
			if st.fo != nil {
				// A hinted 503 is not a routing problem — stay put. Otherwise:
				// a 503 from a follower names the leader; go straight there. A
				// hintless, leaderless 503 (candidate mid-promotion, dead
				// leader) just rotates and backs off until the promotion lands.
				if code == http.StatusServiceUnavailable && hinted == 0 {
					if leader != "" {
						st.fo.follow(leader)
					} else {
						st.fo.rotate()
					}
				}
				wait = st.fo.backoff(attempt, maxWait)
			}
			if hinted > wait {
				wait = hinted
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return fmt.Errorf("batch %d/%d: unretryable status %d", b.Stream, b.Index, code)
		}
	}
}

// post sends one ingest request to url and measures its latency. For a
// 503 it also extracts the body's leader hint, which is how a
// replicated follower redirects writers.
func (d *Driver) post(ctx context.Context, url string, body []byte, contentType string) (code int, retryAfter, leader string, doc wire.Ack, elapsedMs float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, "", "", doc, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	start := time.Now()
	resp, err := d.client().Do(req)
	if err != nil {
		return 0, "", "", doc, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if derr := json.NewDecoder(resp.Body).Decode(&doc); derr != nil {
			return resp.StatusCode, "", "", doc, 0, fmt.Errorf("decoding ingest response: %w", derr)
		}
	case http.StatusServiceUnavailable:
		var hint struct {
			Leader string `json:"leader"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hint)
		leader = hint.Leader
		io.Copy(io.Discard, resp.Body)
	default:
		io.Copy(io.Discard, resp.Body)
	}
	elapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return resp.StatusCode, resp.Header.Get("Retry-After"), leader, doc, elapsedMs, nil
}

// quantiles computes nearest-rank quantiles over a sample set.
func quantiles(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	sort.Float64s(samples)
	rank := func(p float64) float64 {
		i := int(p*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return Quantiles{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Mean: sum / float64(len(samples)),
		Max:  samples[len(samples)-1],
	}
}
