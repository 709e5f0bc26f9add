package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disksig/internal/quality"
	"disksig/internal/wire"
)

// Config tunes a Router.
type Config struct {
	// Map is the initial cluster map. Required.
	Map *Map
	// ProbeEvery is the per-node health poll interval (default 500ms).
	ProbeEvery time.Duration
	Log        *log.Logger
}

const (
	// forwardAttempts bounds retries per forwarded sub-request across a
	// node's candidate URLs.
	forwardAttempts = 12
	// maxRetryWait caps the between-attempt backoff.
	maxRetryWait = 250 * time.Millisecond
	// gateWait bounds how long an ingest batch touching moving serials
	// waits at the copy gate before it is told to retry.
	gateWait = 30 * time.Second
	// maxBodyBytes caps ingest request bodies.
	maxBodyBytes = 8 << 20
)

// routeState is the snapshot handlers work against. cur is always set;
// next is non-nil only during a migration's copy stage, and copyDone
// closes when that stage ends, at the epoch flip or the rollback.
type routeState struct {
	cur      *Map
	next     *Map
	copyDone chan struct{}
}

// stage names where the router is in a map migration.
func (s routeState) stage() string {
	if s.next != nil {
		return "copy"
	}
	return "idle"
}

type routerMetrics struct {
	ingestBatches  atomic.Int64
	recordsRouted  atomic.Int64
	gatedRequests  atomic.Int64
	forwards       atomic.Int64
	forwardRetries atomic.Int64
	proxyErrors    atomic.Int64
	rebalances     atomic.Int64
}

// Router is the cluster routing tier: a thin proxy that splits ingest
// batches across the nodes owning their serials, forwards reads to the
// owning node, merges fleet-wide roll-ups, and drives live shard
// handoff when the cluster map changes.
type Router struct {
	cfg    Config
	client *http.Client
	probe  *prober
	m      routerMetrics

	mu sync.RWMutex // guards the routeState fields below
	routeState

	// rebalanceMu serializes map migrations; TryLock failure is the 409.
	rebalanceMu sync.Mutex
}

// NewRouter builds a router over a validated cluster map and starts its
// health prober. Call Close to stop probing.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("route: router requires a cluster map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}}
	rt.cur = cfg.Map
	rt.probe = newProber(rt.client, cfg.ProbeEvery)
	rt.probe.setNodes(cfg.Map.Nodes)
	go rt.probe.run()
	return rt, nil
}

// Close stops the background prober.
func (rt *Router) Close() { rt.probe.close() }

// ForceProbe runs one synchronous health sweep; startup and tests use
// it instead of waiting out a probe interval.
func (rt *Router) ForceProbe() { rt.probe.probeAll() }

// Epoch returns the current map epoch.
func (rt *Router) Epoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.cur.Epoch
}

// snapshot copies the route state under RLock.
func (rt *Router) snapshot() routeState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.routeState
}

// Handler returns the router's HTTP surface: the node API endpoints a
// client already speaks, plus the cluster control plane.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", rt.handleIngest)
	mux.HandleFunc("GET /v1/drives/{serial}", rt.handleDrive)
	mux.HandleFunc("GET /v1/fleet/summary", rt.handleSummary)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleLive)
	mux.HandleFunc("GET /healthz/live", rt.handleLive)
	mux.HandleFunc("GET /healthz/ready", rt.handleReady)
	mux.HandleFunc("GET /v1/cluster/status", rt.handleStatus)
	mux.HandleFunc("POST /v1/cluster/rebalance", rt.handleRebalance)
	return mux
}

// forward sends one sub-request to a node, retrying across its
// candidate URLs on connection errors and 503s (a node mid-failover
// answers 503 from the not-yet-promoted follower). Terminal responses —
// any other status — are returned with their body read. When owner is
// set, body is one of its pooled parts, and every request body made
// from it holds owner until the transport closes it.
func (rt *Router) forward(ctx context.Context, n Node, method, path, ct string, body []byte, owner *ingestBufs) (*http.Response, []byte, error) {
	var lastErr error
	wait := 2 * time.Millisecond
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			rt.m.forwardRetries.Add(1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if wait *= 2; wait > maxRetryWait {
				wait = maxRetryWait
			}
		}
		// Candidates refresh every attempt: the prober may have moved the
		// node's active URL to a promoted follower mid-loop.
		urls := rt.probe.candidates(n)
		u := urls[attempt%len(urls)]
		var rd io.Reader
		if body != nil && owner == nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u+path, rd)
		if err != nil {
			return nil, nil, err
		}
		if owner != nil {
			req.Body, req.ContentLength = owner.partBody(body), int64(len(body))
			req.GetBody = func() (io.ReadCloser, error) { return owner.partBody(body), nil }
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rt.m.forwards.Add(1)
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		rb, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			lastErr = fmt.Errorf("node %s answered 503: %s", n.ID, strings.TrimSpace(string(rb)))
			continue
		}
		return resp, rb, nil
	}
	return nil, nil, fmt.Errorf("node %s unreachable after %d attempts: %w", n.ID, forwardAttempts, lastErr)
}

// ingestBufs is one routed batch's pooled buffers: the client body, its
// per-owner parts (indexed by cur-map node) and the split's tallies,
// the router-level quarantine ledger among them. The handler holds one
// reference and every request body made from a part holds another, and
// the last release returns the buffers to the pool: the transport may
// read or close a body after RoundTrip returns (a node that answers
// before reading its part), and a retry resends the same part.
type ingestBufs struct {
	body     bytes.Buffer
	parts    [][]byte
	records  int
	hasMover bool
	rep      quality.Report
	refs     atomic.Int32
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBufs) }}

// Release drops one reference to the buffers.
func (b *ingestBufs) Release() {
	if b.refs.Add(-1) == 0 {
		ingestPool.Put(b)
	}
}

// partBody returns a request body reading part, one of b's parts, that
// holds a reference to b until it is closed.
func (b *ingestBufs) partBody(part []byte) *wire.Body {
	b.refs.Add(1)
	return wire.NewBody(part, b)
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	b := ingestPool.Get().(*ingestBufs)
	b.refs.Store(1)
	defer b.Release()
	b.body.Reset()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if _, err := b.body.ReadFrom(r.Body); err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		wire.WriteJSON(w, status, map[string]any{
			"error": fmt.Sprintf("reading request body: %v", err),
		})
		return
	}
	rt.m.ingestBatches.Add(1)

	ct := wire.MediaType(r.Header.Get("Content-Type"))
	switch ct {
	case "", "application/json":
		ct = "application/json"
	case wire.ContentType:
	default:
		wire.WriteJSON(w, http.StatusUnsupportedMediaType, map[string]any{
			"error": fmt.Sprintf("unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentType),
		})
		return
	}

	deadline := time.Now().Add(gateWait)
	for {
		rt.mu.RLock()
		st := rt.routeState
		if rt.splitIngest(w, st, ct, b) {
			rt.mu.RUnlock()
			return
		}
		if b.hasMover {
			// Copy gate: the batch touches serials whose copy is in flight.
			// Wait for the copy stage to end, at the flip or the rollback,
			// and re-split by the map it leaves behind, bounded by gateWait:
			// on timeout the client is told to come back, not to go
			// elsewhere.
			ch := st.copyDone
			rt.mu.RUnlock()
			rt.m.gatedRequests.Add(1)
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-ch:
				t.Stop()
				continue
			case <-t.C:
				w.Header().Set("Retry-After", "1")
				wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error": "shard handoff in progress; retry shortly",
				})
				return
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		// Forward while holding the read lock: the flip takes the write
		// lock, so every in-flight forward drains before the routing
		// epoch changes — no batch is ever split across two maps.
		rt.forwardIngest(w, r, st, ct, b)
		rt.mu.RUnlock()
		return
	}
}

// splitIngest splits the client body in b per owning node under the
// given route state into b's parts, copying each record's bytes
// verbatim: binary frames with wire.SplitFrameInto, JSON bodies with
// wire.SplitJSONInto, which runs the nodes' own scanner. A batch with a
// serial that changes owner between cur and next sets b.hasMover. If it
// wrote a terminal response (malformed body), it reports true.
func (rt *Router) splitIngest(w http.ResponseWriter, st routeState, ct string, b *ingestBufs) bool {
	b.records, b.hasMover, b.rep = 0, false, quality.Report{}
	assign := func(serial []byte) int {
		hs := serialHash(serial)
		owner := st.cur.owner(hs)
		if st.next != nil && st.cur.Nodes[owner].ID != st.next.Nodes[st.next.owner(hs)].ID {
			b.hasMover = true
		}
		b.records++
		return owner
	}
	// Direct calls, so that assign stays on the stack.
	var parts [][]byte
	var err error
	if ct == wire.ContentType {
		parts, err = wire.SplitFrameInto(b.parts, b.body.Bytes(), len(st.cur.Nodes), assign, &b.rep)
	} else {
		parts, err = wire.SplitJSONInto(b.parts, b.body.Bytes(), len(st.cur.Nodes), assign, &b.rep)
	}
	if err != nil {
		// A body a node would reject: both splitters return the node's
		// own error, so this is the node's 400 and ledger, and no node
		// sees any part of the batch.
		rej := wire.Reject(err)
		wire.WriteJSON(w, http.StatusBadRequest, &rej)
		return true
	}
	b.parts = parts
	return false
}

// forwardIngest sends the split batch's bodies in node order and merges
// their acks. The merged ack carries the model version every part
// reported, and none when the parts disagree (a promotion that reached
// only some nodes): no single version scored the batch.
func (rt *Router) forwardIngest(w http.ResponseWriter, r *http.Request, st routeState, ct string, b *ingestBufs) {
	ctx := r.Context()
	merged := wire.Ack{Alerts: []wire.Alert{}}
	parts, mixed := 0, false
	for i, part := range b.parts {
		if len(part) == 0 {
			continue
		}
		n := st.cur.Nodes[i]
		resp, rb, err := rt.forward(ctx, n, "POST", "/v1/ingest", ct, part, b)
		if err != nil {
			rt.m.proxyErrors.Add(1)
			wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
				"error": fmt.Sprintf("forwarding to node %s: %v", n.ID, err),
			})
			return
		}
		if resp.StatusCode != http.StatusOK {
			// A single-node verdict (429, 413, …) is the batch's
			// verdict; relay it as the node shaped it.
			rt.relay(w, resp, rb)
			return
		}
		var ack wire.Ack
		if err := json.Unmarshal(rb, &ack); err != nil {
			rt.m.proxyErrors.Add(1)
			wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
				"error": fmt.Sprintf("node %s sent an unreadable ingest ack: %v", n.ID, err),
			})
			return
		}
		if parts == 0 {
			merged.ModelVersion = ack.ModelVersion
		} else if ack.ModelVersion != merged.ModelVersion {
			mixed = true
		}
		parts++
		merged.Ingested += ack.Ingested
		merged.Kept += ack.Kept
		merged.Quarantined += ack.Quarantined
		merged.Alerts = append(merged.Alerts, ack.Alerts...)
		merged.Quality.Add(ack.Quality)
	}
	if mixed {
		merged.ModelVersion = 0
	}

	// Fold in the router's own split-stage quarantines (records whose
	// header was too defective to route) so the batch accounting the
	// client checks — ingested == kept + quarantined == records sent —
	// still balances end to end.
	merged.Ingested += b.rep.RowsQuarantined
	merged.Quarantined += b.rep.RowsQuarantined
	merged.Quality.Add(wire.LedgerOf(&b.rep))
	rt.m.recordsRouted.Add(int64(b.records))
	wire.WriteJSON(w, http.StatusOK, &merged)
}

// relay copies a node response through verbatim.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func (rt *Router) handleDrive(w http.ResponseWriter, r *http.Request) {
	serial := r.PathValue("serial")
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	// Reads go to the current owner: during the copy stage the old owner
	// still has every record (the gate holds the movers' new ones), and
	// after the flip the new owner has imported them all.
	n := rt.cur.Owner(serial)
	resp, body, err := rt.forward(r.Context(), n, "GET", "/v1/drives/"+url.PathEscape(serial), "", nil, nil)
	if err != nil {
		rt.m.proxyErrors.Add(1)
		wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error": fmt.Sprintf("forwarding to node %s: %v", n.ID, err),
		})
		return
	}
	rt.relay(w, resp, body)
}

// routedSummary is the router's merged summary: the nodes' summaries
// folded into one, without the nodes' shard layouts, plus the map epoch
// and each node's share.
type routedSummary struct {
	wire.Summary
	Epoch uint64        `json:"epoch"`
	Nodes []nodeSummary `json:"nodes"`
}

type nodeSummary struct {
	Drives  int    `json:"drives"`
	ID      string `json:"id"`
	MaxHour int    `json:"max_hour"`
}

// fetchSummary asks one node for its summary.
func (rt *Router) fetchSummary(ctx context.Context, n Node, topN int) (*wire.Summary, error) {
	resp, body, err := rt.forward(ctx, n, "GET", "/v1/fleet/summary?top="+fmt.Sprint(topN), "", nil, nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("summary from node %s: %v", n.ID, err)
	}
	var doc wire.Summary
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("node %s sent an unreadable summary: %v", n.ID, err)
	}
	return &doc, nil
}

// handleSummary asks every node for its summary at once and merges the
// answers in node order, so the merged body, and the error reported
// when nodes fail (the first failing node in node order), do not depend
// on which node answers first.
func (rt *Router) handleSummary(w http.ResponseWriter, r *http.Request) {
	topN, err := wire.ParseTop(r.URL.Query().Get("top"))
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	docs := make([]*wire.Summary, len(rt.cur.Nodes))
	errs := make([]error, len(rt.cur.Nodes))
	var wg sync.WaitGroup
	for i, n := range rt.cur.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			docs[i], errs[i] = rt.fetchSummary(r.Context(), n, topN)
		}()
	}
	wg.Wait()
	merged := routedSummary{Summary: wire.Summary{MaxHour: -1}, Epoch: rt.cur.Epoch,
		Nodes: make([]nodeSummary, len(rt.cur.Nodes))}
	for i, n := range rt.cur.Nodes {
		if errs[i] != nil {
			rt.m.proxyErrors.Add(1)
			wire.WriteJSON(w, http.StatusBadGateway, map[string]any{"error": errs[i].Error()})
			return
		}
		merged.Add(docs[i])
		merged.Nodes[i] = nodeSummary{Drives: docs[i].Drives, ID: n.ID, MaxHour: docs[i].MaxHour}
	}
	merged.Rank(topN)
	wire.WriteJSON(w, http.StatusOK, &merged)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.snapshot()
	nodes := map[string]any{}
	for _, n := range st.cur.Nodes {
		resp, body, err := rt.forward(r.Context(), n, "GET", "/metrics", "", nil, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			nodes[n.ID] = map[string]any{"error": fmt.Sprint(err)}
			continue
		}
		var doc map[string]any
		if json.Unmarshal(body, &doc) == nil {
			nodes[n.ID] = doc
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"ingest_batches":  rt.m.ingestBatches.Load(),
			"records_routed":  rt.m.recordsRouted.Load(),
			"gated_requests":  rt.m.gatedRequests.Load(),
			"forwards":        rt.m.forwards.Load(),
			"forward_retries": rt.m.forwardRetries.Load(),
			"proxy_errors":    rt.m.proxyErrors.Load(),
			"rebalances":      rt.m.rebalances.Load(),
		},
		"cluster": map[string]any{
			"epoch": st.cur.Epoch,
			"stage": st.stage(),
			"nodes": len(st.cur.Nodes),
		},
		"nodes": nodes,
	})
}

func (rt *Router) handleLive(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "live", "mode": "router"})
}

// handleReady reports ready when every node in the current map has a
// ready URL; a cluster that cannot reach an owner would black-hole that
// owner's share of every batch.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	st := rt.snapshot()
	healths := make([]NodeHealth, 0, len(st.cur.Nodes))
	ready := true
	for _, n := range st.cur.Nodes {
		h, ok := rt.probe.health(n.ID)
		if !ok {
			h = NodeHealth{ID: n.ID, Active: n.URL}
		}
		if !h.Ready {
			ready = false
		}
		healths = append(healths, h)
	}
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, code, map[string]any{
		"status": status,
		"mode":   "router",
		"epoch":  st.cur.Epoch,
		"stage":  st.stage(),
		"nodes":  healths,
	})
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := rt.snapshot()
	doc := map[string]any{
		"epoch": st.cur.Epoch,
		"stage": st.stage(),
		"nodes": rt.nodeHealths(st.cur.Nodes),
	}
	if st.next != nil {
		doc["next_epoch"] = st.next.Epoch
		doc["next_nodes"] = rt.nodeHealths(st.next.Nodes)
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

func (rt *Router) nodeHealths(nodes []Node) []NodeHealth {
	out := make([]NodeHealth, 0, len(nodes))
	for _, n := range nodes {
		h, ok := rt.probe.health(n.ID)
		if !ok {
			h = NodeHealth{ID: n.ID, Active: n.URL}
		}
		out = append(out, h)
	}
	return out
}

// handleRebalance accepts a new cluster map and drives the live handoff
// synchronously; the 200 means the cutover is complete and the moved
// serials are dropped from their old owners.
func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var next Map
	if err := dec.Decode(&next); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("malformed cluster map: %v", err),
		})
		return
	}
	stats, err := rt.Rebalance(r.Context(), &next)
	if err != nil {
		status := http.StatusBadRequest
		if err == errRebalanceBusy {
			status = http.StatusConflict
		} else if stats != nil {
			// The migration started and failed mid-flight; that is a
			// server-side failure, not a bad request.
			status = http.StatusInternalServerError
		}
		wire.WriteJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	wire.WriteJSON(w, http.StatusOK, stats)
}
