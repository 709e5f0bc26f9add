package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"sort"
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
	// Client issues all node-bound requests. Defaults to a client with a
	// 30s timeout.
	Client *http.Client
	// ProbeEvery is the per-node health poll interval (default 500ms).
	ProbeEvery time.Duration
	// ForwardAttempts bounds retries per forwarded sub-request across a
	// node's candidate URLs (default 12).
	ForwardAttempts int
	// MaxRetryWait caps the between-attempt backoff (default 250ms).
	MaxRetryWait time.Duration
	// GateWait bounds how long an ingest batch touching moving serials
	// waits at the copy gate before being told to retry (default 30s).
	GateWait time.Duration
	// DualWriteMin is how many dual-written records the cutover dwell
	// waits for before flipping the map epoch (default 1).
	DualWriteMin int
	// DualWriteMax caps the cutover dwell (default 3s).
	DualWriteMax time.Duration
	// MaxBodyBytes caps ingest request bodies (default 8 MiB).
	MaxBodyBytes int64
	// SummaryTopN is the merged summary's at-risk list length when the
	// client does not pass ?top= (default 10).
	SummaryTopN int
	Log         *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 12
	}
	if c.MaxRetryWait <= 0 {
		c.MaxRetryWait = 250 * time.Millisecond
	}
	if c.GateWait <= 0 {
		c.GateWait = 30 * time.Second
	}
	if c.DualWriteMin <= 0 {
		c.DualWriteMin = 1
	}
	if c.DualWriteMax <= 0 {
		c.DualWriteMax = 3 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.SummaryTopN <= 0 {
		c.SummaryTopN = 10
	}
	return c
}

// stage is where the router is in a map migration.
type stage int

const (
	// stageIdle routes everything by the current map.
	stageIdle stage = iota
	// stageCopy freezes moving serials: ingest batches touching them
	// wait (bounded) for the bulk copy to finish. Everything else flows.
	stageCopy
	// stageDual writes moving records to both the old and new owner;
	// acks and alerts come from the old owner, which still serves reads.
	stageDual
)

func (s stage) String() string {
	switch s {
	case stageCopy:
		return "copy"
	case stageDual:
		return "dual-write"
	default:
		return "idle"
	}
}

// routeState is the snapshot handlers work against. cur is always set;
// next is non-nil only mid-migration, and copyDone closes when the bulk
// copy commits (the copy→dual transition).
type routeState struct {
	cur      *Map
	next     *Map
	stage    stage
	copyDone chan struct{}
}

// moving reports whether a serial changes owner between cur and next.
func (s routeState) moving(serial []byte) bool {
	if s.next == nil {
		return false
	}
	return s.cur.Nodes[s.cur.OwnerIndex(serial)].ID != s.next.Nodes[s.next.OwnerIndex(serial)].ID
}

type routerMetrics struct {
	ingestBatches  atomic.Int64
	recordsRouted  atomic.Int64
	dualWrites     atomic.Int64
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
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg, client: cfg.Client}
	rt.cur = cfg.Map
	rt.probe = newProber(cfg.Client, cfg.ProbeEvery)
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

func writeJSON(w http.ResponseWriter, status int, doc any) {
	body, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// mediaType mirrors the node servers' Content-Type negotiation.
func mediaType(ct string) string {
	ct, _, _ = strings.Cut(ct, ";")
	return strings.ToLower(strings.TrimSpace(ct))
}

// forward sends one sub-request to a node, retrying across its
// candidate URLs on connection errors and 503s (a node mid-failover
// answers 503 from the not-yet-promoted follower). Terminal responses —
// any other status — are returned with their body read.
func (rt *Router) forward(ctx context.Context, n Node, method, path, ct string, body []byte) (*http.Response, []byte, error) {
	var lastErr error
	wait := 2 * time.Millisecond
	for attempt := 0; attempt < rt.cfg.ForwardAttempts; attempt++ {
		if attempt > 0 {
			rt.m.forwardRetries.Add(1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if wait *= 2; wait > rt.cfg.MaxRetryWait {
				wait = rt.cfg.MaxRetryWait
			}
		}
		// Candidates refresh every attempt: the prober may have moved the
		// node's active URL to a promoted follower mid-loop.
		urls := rt.probe.candidates(n)
		u := urls[attempt%len(urls)]
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u+path, rd)
		if err != nil {
			return nil, nil, err
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
	return nil, nil, fmt.Errorf("node %s unreachable after %d attempts: %w", n.ID, rt.cfg.ForwardAttempts, lastErr)
}

// ingestAckDoc is the slice of a node's ingest ack the router needs to
// merge; alerts stay raw so their JSON passes through byte-identical.
type ingestAckDoc struct {
	Ingested    int               `json:"ingested"`
	Kept        int               `json:"kept"`
	Quarantined int               `json:"quarantined"`
	Alerts      []json.RawMessage `json:"alerts"`
	Quality     ledgerDoc         `json:"quality"`
}

type ledgerDoc struct {
	RowsRead        int            `json:"rows_read"`
	RowsKept        int            `json:"rows_kept"`
	RowsQuarantined int            `json:"rows_quarantined"`
	ByKind          map[string]int `json:"by_kind"`
}

func (l *ledgerDoc) add(o ledgerDoc) {
	l.RowsRead += o.RowsRead
	l.RowsKept += o.RowsKept
	l.RowsQuarantined += o.RowsQuarantined
	for k, v := range o.ByKind {
		if l.ByKind == nil {
			l.ByKind = map[string]int{}
		}
		l.ByKind[k] += v
	}
}

func ledgerDocOf(rep *quality.Report) ledgerDoc {
	byKind := map[string]int{}
	for k := range rep.ByKind {
		if rep.ByKind[k] != 0 {
			byKind[quality.Kind(k).String()] = rep.ByKind[k]
		}
	}
	return ledgerDoc{
		RowsRead:        rep.RowsRead,
		RowsKept:        rep.RowsKept(),
		RowsQuarantined: rep.RowsQuarantined,
		ByKind:          byKind,
	}
}

// splitBatch is one ingest batch split per owning node: primary bodies
// indexed by cur-map node, dual bodies (moving records only) indexed by
// next-map node, plus the router-level quarantine ledger and whether
// any record in the batch is mid-move.
type splitBatch struct {
	primary  [][]byte
	dual     [][]byte
	dualN    []int // record count per dual body
	records  int
	hasMover bool
	rep      quality.Report
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]any{
			"error": fmt.Sprintf("reading request body: %v", err),
		})
		return
	}
	rt.m.ingestBatches.Add(1)

	ct := mediaType(r.Header.Get("Content-Type"))
	switch ct {
	case "", "application/json":
		ct = "application/json"
	case wire.ContentType:
	default:
		writeJSON(w, http.StatusUnsupportedMediaType, map[string]any{
			"error": fmt.Sprintf("unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentType),
		})
		return
	}

	deadline := time.Now().Add(rt.cfg.GateWait)
	for {
		rt.mu.RLock()
		st := rt.routeState
		sb, handled := rt.splitIngest(w, st, ct, body)
		if handled {
			rt.mu.RUnlock()
			return
		}
		if st.stage == stageCopy && sb.hasMover {
			// Copy gate: the batch touches serials whose bulk copy is in
			// flight. Wait for the copy→dual transition (re-splitting after:
			// the dual pass needs the new stage), bounded by GateWait — on
			// timeout the client is told to come back, not to go elsewhere.
			ch := st.copyDone
			rt.mu.RUnlock()
			rt.m.gatedRequests.Add(1)
			remain := time.Until(deadline)
			if remain <= 0 {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error": "shard handoff in progress; retry shortly",
				})
				return
			}
			t := time.NewTimer(remain)
			select {
			case <-ch:
				t.Stop()
				continue
			case <-t.C:
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error": "shard handoff in progress; retry shortly",
				})
				return
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		// Forward while holding the read lock: a migration's stage flips
		// take the write lock, so every in-flight forward drains before the
		// routing epoch changes — no batch is ever split across two maps.
		rt.forwardIngest(w, r, st, ct, sb)
		rt.mu.RUnlock()
		return
	}
}

// splitIngest splits the raw batch body per owning node under the given
// route state, copying each record's bytes verbatim: binary frames with
// wire.SplitFrame, JSON bodies with wire.SplitJSON, which runs the
// nodes' own scanner. If it wrote a terminal response (malformed
// body), it reports handled=true.
func (rt *Router) splitIngest(w http.ResponseWriter, st routeState, ct string, body []byte) (*splitBatch, bool) {
	split := wire.SplitJSON
	if ct == wire.ContentType {
		split = wire.SplitFrame
	}
	sb := &splitBatch{}
	bodies, err := split(body, len(st.cur.Nodes), func(serial []byte) int {
		if st.moving(serial) {
			sb.hasMover = true
		}
		sb.records++
		return st.cur.OwnerIndex(serial)
	}, &sb.rep)
	if err != nil {
		// A body a node would reject: both splitters return the node's
		// own error, so this is the node's 400 and ledger, and no node
		// sees any part of the batch.
		var rep quality.Report
		if fe, ok := wire.IsFrameError(err); ok {
			rep.Note(fe.Issue(), quality.Config{})
		} else {
			rep.Note(quality.Issue{Kind: quality.MalformedRow, Detail: err.Error()}, quality.Config{})
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":   fmt.Sprintf("malformed request body: %v", err),
			"quality": ledgerDocOf(&rep),
		})
		return nil, true
	}
	sb.primary = bodies
	if st.stage == stageDual && sb.hasMover {
		sb.dualN = make([]int, len(st.next.Nodes))
		dual, err := split(body, len(st.next.Nodes), func(serial []byte) int {
			if !st.moving(serial) {
				return -1
			}
			j := st.next.OwnerIndex(serial)
			sb.dualN[j]++
			return j
		}, nil)
		if err != nil {
			// The first pass accepted this body; the second sees the same
			// bytes. Defensive only.
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error": fmt.Sprintf("splitting dual-write body: %v", err),
			})
			return nil, true
		}
		sb.dual = dual
	}
	return sb, false
}

// forwardIngest sends the split batch: dual-write bodies to the new
// owners first, then primary bodies in node order, merging the primary
// acks. Both owners must accept a moving record before it is acked, and
// only the old owner's alerts reach the client — one answer per record.
func (rt *Router) forwardIngest(w http.ResponseWriter, r *http.Request, st routeState, ct string, sb *splitBatch) {
	ctx := r.Context()
	for j, body := range sb.dual {
		if body == nil {
			continue
		}
		n := st.next.Nodes[j]
		resp, rb, err := rt.forward(ctx, n, "POST", "/v1/ingest", ct, body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(rb)))
		}
		if err != nil {
			rt.m.proxyErrors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]any{
				"error": fmt.Sprintf("dual-write to node %s failed: %v", n.ID, err),
			})
			return
		}
		rt.m.dualWrites.Add(int64(sb.dualN[j]))
	}

	merged := ingestAckDoc{Alerts: []json.RawMessage{}}
	for i, body := range sb.primary {
		if body == nil {
			continue
		}
		n := st.cur.Nodes[i]
		resp, rb, err := rt.forward(ctx, n, "POST", "/v1/ingest", ct, body)
		if err != nil {
			rt.m.proxyErrors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]any{
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
		var ack ingestAckDoc
		if err := json.Unmarshal(rb, &ack); err != nil {
			rt.m.proxyErrors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]any{
				"error": fmt.Sprintf("node %s sent an unreadable ingest ack: %v", n.ID, err),
			})
			return
		}
		merged.Ingested += ack.Ingested
		merged.Kept += ack.Kept
		merged.Quarantined += ack.Quarantined
		merged.Alerts = append(merged.Alerts, ack.Alerts...)
		merged.Quality.add(ack.Quality)
	}

	// Fold in the router's own split-stage quarantines (records whose
	// header was too defective to route) so the batch accounting the
	// client checks — ingested == kept + quarantined == records sent —
	// still balances end to end.
	merged.Ingested += sb.rep.RowsQuarantined
	merged.Quarantined += sb.rep.RowsQuarantined
	merged.Quality.add(ledgerDocOf(&sb.rep))
	rt.m.recordsRouted.Add(int64(sb.records))
	writeJSON(w, http.StatusOK, &merged)
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
	// Reads go to the current owner in every stage: during copy and
	// dual-write the old owner still has every record (dual writes land
	// on both), so no request is ever answered by two nodes at once.
	n := rt.cur.Owner(serial)
	resp, body, err := rt.forward(r.Context(), n, "GET", "/v1/drives/"+url.PathEscape(serial), "", nil)
	if err != nil {
		rt.m.proxyErrors.Add(1)
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": fmt.Sprintf("forwarding to node %s: %v", n.ID, err),
		})
		return
	}
	rt.relay(w, resp, body)
}

// summaryDoc is the slice of a node summary the router merges.
type summaryDoc struct {
	Drives     int                         `json:"drives"`
	MaxHour    int                         `json:"max_hour"`
	BySeverity map[string]int              `json:"by_severity"`
	ByType     map[string]int              `json:"alerting_by_type"`
	ByClass    map[string]*classSummaryDoc `json:"by_class"`
	AtRisk     []rankedDrive               `json:"at_risk"`
	EvictedNow int                         `json:"evicted_now"`
	Quality    ledgerDoc                   `json:"quality"`
}

// classSummaryDoc is one device class's roll-up within a summary.
type classSummaryDoc struct {
	Drives     int            `json:"drives"`
	BySeverity map[string]int `json:"by_severity"`
	AtRisk     []rankedDrive  `json:"at_risk"`
}

// rankedDrive is one at-risk entry of a node summary: its JSON, passed
// through byte-identical, and the keys the merged list is ranked by.
type rankedDrive struct {
	raw         json.RawMessage
	degradation float64
	serial      string
}

// UnmarshalJSON reads the ranking keys. A null degradation is a drive
// whose windows are empty after a model swap (+Inf on its node), so it
// ranks last.
func (d *rankedDrive) UnmarshalJSON(b []byte) error {
	var keys struct {
		Serial      string   `json:"serial"`
		Degradation *float64 `json:"degradation"`
	}
	if err := json.Unmarshal(b, &keys); err != nil {
		return err
	}
	deg := math.Inf(1)
	if keys.Degradation != nil {
		deg = *keys.Degradation
	}
	*d = rankedDrive{raw: append(json.RawMessage(nil), b...), degradation: deg, serial: keys.Serial}
	return nil
}

func (d rankedDrive) MarshalJSON() ([]byte, error) { return d.raw, nil }

// rankAtRisk re-ranks merged per-node at-risk lists the way each node
// ranks its own — degradation ascending (worst first), ties by serial —
// and keeps the first topN. Every drive of the fleet-wide top N is in
// its owner's top N, so the result is the top N of the whole cluster.
// The result is never nil, so an empty list renders as [].
func rankAtRisk(ds []rankedDrive, topN int) []rankedDrive {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].degradation != ds[j].degradation {
			return ds[i].degradation < ds[j].degradation
		}
		return ds[i].serial < ds[j].serial
	})
	if len(ds) > topN {
		ds = ds[:topN]
	}
	if ds == nil {
		ds = []rankedDrive{}
	}
	return ds
}

// add folds one node's summary into a merged one; the at-risk lists
// are concatenated for rankAtRisk.
func (d *summaryDoc) add(o *summaryDoc) {
	d.Drives += o.Drives
	d.MaxHour = max(d.MaxHour, o.MaxHour)
	for k, c := range o.BySeverity {
		d.BySeverity[k] += c
	}
	for k, c := range o.ByType {
		d.ByType[k] += c
	}
	for cname, oc := range o.ByClass {
		c := d.ByClass[cname]
		if c == nil {
			c = &classSummaryDoc{BySeverity: map[string]int{}}
			d.ByClass[cname] = c
		}
		c.Drives += oc.Drives
		for k, n := range oc.BySeverity {
			c.BySeverity[k] += n
		}
		c.AtRisk = append(c.AtRisk, oc.AtRisk...)
	}
	d.AtRisk = append(d.AtRisk, o.AtRisk...)
	d.EvictedNow += o.EvictedNow
	d.Quality.add(o.Quality)
}

// fetchSummary asks one node for its summary.
func (rt *Router) fetchSummary(ctx context.Context, n Node, topN int) (*summaryDoc, error) {
	resp, body, err := rt.forward(ctx, n, "GET", "/v1/fleet/summary?top="+fmt.Sprint(topN), "", nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("summary from node %s: %v", n.ID, err)
	}
	var doc summaryDoc
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
	topN := rt.cfg.SummaryTopN
	if v := r.URL.Query().Get("top"); v != "" {
		n := 0
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("bad top parameter %q", v),
			})
			return
		}
		topN = n
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	docs := make([]*summaryDoc, len(rt.cur.Nodes))
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
	merged := summaryDoc{MaxHour: -1, BySeverity: map[string]int{}, ByType: map[string]int{},
		ByClass: map[string]*classSummaryDoc{}}
	nodes := make([]map[string]any, len(rt.cur.Nodes))
	for i, n := range rt.cur.Nodes {
		if errs[i] != nil {
			rt.m.proxyErrors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": errs[i].Error()})
			return
		}
		merged.add(docs[i])
		nodes[i] = map[string]any{"id": n.ID, "drives": docs[i].Drives, "max_hour": docs[i].MaxHour}
	}
	for _, c := range merged.ByClass {
		c.AtRisk = rankAtRisk(c.AtRisk, topN)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"drives":           merged.Drives,
		"max_hour":         merged.MaxHour,
		"by_severity":      merged.BySeverity,
		"alerting_by_type": merged.ByType,
		"by_class":         merged.ByClass,
		"at_risk":          rankAtRisk(merged.AtRisk, topN),
		"evicted_now":      merged.EvictedNow,
		"quality":          merged.Quality,
		"nodes":            nodes,
		"epoch":            rt.cur.Epoch,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.snapshot()
	nodes := map[string]any{}
	for _, n := range st.cur.Nodes {
		resp, body, err := rt.forward(r.Context(), n, "GET", "/metrics", "", nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			nodes[n.ID] = map[string]any{"error": fmt.Sprint(err)}
			continue
		}
		var doc map[string]any
		if json.Unmarshal(body, &doc) == nil {
			nodes[n.ID] = doc
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"ingest_batches":  rt.m.ingestBatches.Load(),
			"records_routed":  rt.m.recordsRouted.Load(),
			"dual_writes":     rt.m.dualWrites.Load(),
			"gated_requests":  rt.m.gatedRequests.Load(),
			"forwards":        rt.m.forwards.Load(),
			"forward_retries": rt.m.forwardRetries.Load(),
			"proxy_errors":    rt.m.proxyErrors.Load(),
			"rebalances":      rt.m.rebalances.Load(),
		},
		"cluster": map[string]any{
			"epoch": st.cur.Epoch,
			"stage": st.stage.String(),
			"nodes": len(st.cur.Nodes),
		},
		"nodes": nodes,
	})
}

func (rt *Router) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "live", "mode": "router"})
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
	writeJSON(w, code, map[string]any{
		"status": status,
		"mode":   "router",
		"epoch":  st.cur.Epoch,
		"stage":  st.stage.String(),
		"nodes":  healths,
	})
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := rt.snapshot()
	doc := map[string]any{
		"epoch": st.cur.Epoch,
		"stage": st.stage.String(),
		"nodes": rt.nodeHealths(st.cur.Nodes),
	}
	if st.next != nil {
		doc["next_epoch"] = st.next.Epoch
		doc["next_nodes"] = rt.nodeHealths(st.next.Nodes)
	}
	writeJSON(w, http.StatusOK, doc)
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
		writeJSON(w, http.StatusBadRequest, map[string]any{
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
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, stats)
}
