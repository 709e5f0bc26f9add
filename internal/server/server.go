// Package server is the network surface of the fleet health service: a
// net/http JSON API over the sharded fleet store. It ingests batched
// SMART telemetry (POST /v1/ingest), serves per-drive health and
// fleet-wide roll-ups (GET /v1/drives/{serial}, GET /v1/fleet/summary),
// and exposes liveness and expvar-style counters (GET /healthz,
// GET /metrics). The request path is defended the way a production
// ingest tier has to be: request bodies are size-capped (413), in-flight
// requests are bounded by a semaphore that sheds overload with 429,
// defective records are quarantined per-record with a quality ledger in
// the response instead of failing the batch, and shutdown drains
// in-flight requests before returning.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/learn"
	"disksig/internal/monitor"
	"disksig/internal/parallel"
	"disksig/internal/persist"
	"disksig/internal/quality"
	"disksig/internal/wire"
)

// Config parameterizes the server.
type Config struct {
	// MaxBodyBytes caps the POST /v1/ingest request body; larger bodies
	// get 413. <= 0 means 8 MiB.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served requests (healthz and
	// metrics are exempt: observability must work during overload).
	// <= 0 means 64.
	MaxInFlight int
	// QueueWait is how long a request may wait for an in-flight slot
	// before being shed with 429; 0 sheds immediately.
	QueueWait time.Duration
	// Log receives structured access logs and server errors; nil
	// disables logging.
	Log *log.Logger
	// Persist, when set, makes ingestion durable: every batch is
	// appended to the write-ahead log before it is applied (WAL failures
	// fail the request with 500 — an unlogged batch would not survive a
	// restart), POST /v1/admin/snapshot is served, and persistence
	// counters appear in /metrics.
	Persist *persist.Manager
	// SnapshotEvery starts a background snapshot ticker at this period
	// when Persist is set; <= 0 disables the ticker (snapshots then
	// happen only via the admin endpoint and shutdown).
	SnapshotEvery time.Duration
	// IngestDelay artificially holds every ingest request inside the
	// concurrency limiter for this long before it is processed — a
	// load-testing knob modelling slow, disk-backed ingestion so
	// overload tests can drive the server into its shedding regime
	// regardless of host speed. 0 (production) disables it.
	IngestDelay time.Duration
	// Replication, when set, puts the server in a replicated pair: a
	// primary ships its WAL to a follower and holds ingest acks for the
	// follower's confirmation; a follower applies shipped frames and
	// sends writers to the leader with a 503 hint. nil means standalone.
	Replication *ReplicationOptions
	// Retrain, when set, enables the online-learning surface: POST
	// /v1/admin/retrain runs a retraining cycle on demand and
	// GET /v1/models/status reports the serving model set and the last
	// cycle's outcome. The retrainer's Promote hook decides what a
	// promotion does (typically persist + hot swap).
	Retrain *learn.Retrainer
	// RetrainEvery starts a background retraining ticker at this period
	// when Retrain is set; <= 0 disables the ticker (cycles then run
	// only via the admin endpoint).
	RetrainEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Server serves the fleet health API.
type Server struct {
	store *fleet.Store
	cfg   Config
	m     metrics
	sem   *parallel.Semaphore
	repl  *replication

	mu          sync.Mutex
	http        *http.Server
	snapStop    chan struct{}
	retrainStop chan struct{}

	// lastRetrain is the most recent retraining cycle's outcome, served
	// by GET /v1/models/status.
	retrainMu   sync.Mutex
	lastRetrain *learn.Result

	// testHoldIngest, when set, is called by the ingest handler after
	// decoding and before responding — the shutdown-drain test uses it
	// to keep a request in flight deterministically.
	testHoldIngest func()
}

// New builds a server over a fleet store.
func New(store *fleet.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store: store,
		cfg:   cfg,
		sem:   parallel.NewSemaphore(int64(cfg.MaxInFlight)),
	}
	if cfg.Replication != nil {
		s.repl = newReplication(*cfg.Replication)
	}
	return s
}

// Handler returns the fully middleware-wrapped API handler.
func (s *Server) Handler() http.Handler {
	limited := http.NewServeMux()
	limited.HandleFunc("POST /v1/ingest", s.handleIngest)
	limited.HandleFunc("GET /v1/drives/{serial}", s.handleDrive)
	limited.HandleFunc("GET /v1/fleet/summary", s.handleSummary)
	if s.cfg.Persist != nil {
		limited.HandleFunc("POST /v1/admin/snapshot", s.handleSnapshot)
	}
	limited.HandleFunc("GET /v1/models/status", s.handleModelStatus)
	if s.cfg.Retrain != nil {
		limited.HandleFunc("POST /v1/admin/retrain", s.handleRetrain)
	}
	// The handoff plane (admin.go).
	limited.HandleFunc("GET /v1/admin/serials", s.handleSerials)
	limited.HandleFunc("POST /v1/admin/export", s.handleExport)
	limited.HandleFunc("POST /v1/admin/import", s.handleImport)
	limited.HandleFunc("POST /v1/admin/drop", s.handleDrop)

	mux := http.NewServeMux()
	mux.Handle("/v1/", s.limitConcurrency(limited))
	// Liveness, readiness, metrics, and the replication surface sit
	// outside the concurrency limiter: health probes and WAL shipping
	// must keep working while ingest is overloaded, and bare /healthz
	// stays as a liveness alias for pre-split probes.
	mux.HandleFunc("GET /healthz", s.handleLive)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.repl != nil {
		mux.HandleFunc("POST /v1/replication/ship", s.handleShip)
		mux.HandleFunc("POST /v1/replication/promote", s.handlePromote)
		mux.HandleFunc("GET /v1/replication/status", s.handleReplStatus)
		if s.cfg.Persist != nil {
			mux.HandleFunc("POST /v1/replication/bootstrap", s.handleBootstrap)
		}
	}
	return s.instrument(mux)
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http. The
// first Serve also starts the background snapshot ticker when
// persistence is configured with SnapshotEvery > 0, and the background
// retraining ticker when a retrainer is configured with RetrainEvery > 0.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.http == nil {
		s.http = &http.Server{
			Handler:           s.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
	}
	if s.snapStop == nil && s.cfg.Persist != nil && s.cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		go s.snapshotLoop(s.snapStop)
	}
	if s.retrainStop == nil && s.cfg.Retrain != nil && s.cfg.RetrainEvery > 0 {
		s.retrainStop = make(chan struct{})
		go s.retrainLoop(s.retrainStop)
	}
	srv := s.http
	s.mu.Unlock()
	return srv.Serve(l)
}

// snapshotLoop takes periodic snapshots until stop closes. Failures are
// logged, never fatal: the previous committed snapshot stays intact and
// the WAL keeps every batch since it.
func (s *Server) snapshotLoop(stop chan struct{}) {
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			info, err := s.cfg.Persist.Snapshot(s.store)
			if err != nil {
				if s.cfg.Log != nil {
					s.cfg.Log.Printf("background snapshot failed: %v", err)
				}
				continue
			}
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("snapshot: drives=%d bytes=%d dur=%s epoch=%d",
					info.Drives, info.Bytes, info.Duration.Round(time.Millisecond), info.Epoch)
			}
		}
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: the snapshot ticker stops,
// listeners close immediately, and it blocks until every in-flight
// request has drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.snapStop != nil {
		close(s.snapStop)
		s.snapStop = nil
	}
	if s.retrainStop != nil {
		close(s.retrainStop)
		s.retrainStop = nil
	}
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// handleIngest negotiates the batch format by Content-Type: JSON (the
// default) or the binary frame format of internal/wire. Anything else is
// a 415 — silently parsing a mislabeled body would quarantine the whole
// batch as garbage instead of telling the client it spoke the wrong
// format. Either format is read whole into a pooled buffer, so every
// body past MaxBodyBytes is a 413, and decoded by a pooled wire decoder.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.takesWrites(w) {
		return
	}
	if s.cfg.IngestDelay > 0 {
		// The sleep happens while holding an in-flight slot, so overload
		// tests see a server whose capacity is genuinely bounded.
		time.Sleep(s.cfg.IngestDelay)
	}
	ct := wire.MediaType(r.Header.Get("Content-Type"))
	switch ct {
	case "", "application/json":
		s.m.ingestReqJSON.Add(1)
	case wire.ContentType:
		s.m.ingestReqBinary.Add(1)
	default:
		wire.WriteJSON(w, http.StatusUnsupportedMediaType, map[string]any{
			"error": fmt.Sprintf("unsupported Content-Type %q (want application/json or %s)", ct, wire.ContentType),
		})
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			wire.WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return
		}
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("reading request body: %v", err),
		})
		return
	}

	dec := decoderPool.Get().(*wire.Decoder)
	defer decoderPool.Put(dec)
	var rep quality.Report
	var obs []fleet.Observation
	var err error
	if ct == wire.ContentType {
		obs, err = dec.Decode(buf.Bytes(), &rep)
	} else {
		obs, err = dec.DecodeJSON(buf.Bytes(), &rep)
	}
	if err != nil {
		// A malformed body or frame: nothing in the batch can be trusted,
		// so nothing was ingested, and the ledger names the defect.
		rej := wire.Reject(err)
		wire.WriteJSON(w, http.StatusBadRequest, &rej)
		return
	}
	s.finishIngest(w, r, obs, &rep)
}

// bodyPool recycles request body buffers; sized bodies are the norm
// (loadgen batches are tens of KiB), so reuse matters.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decoderPool recycles wire decoders across requests. A warm decoder
// carries its observation and serial buffers, so a batch costs it one
// allocation, the string its serials slice, however many records it
// holds.
var decoderPool = sync.Pool{New: func() any { return new(wire.Decoder) }}

// finishIngest applies decoded observations to the store (through the
// WAL when persistence is on) and writes the ack. rep carries the
// decode-stage quarantines; the batch's total record count is recovered
// from kept + quarantined, which both wire formats account identically.
func (s *Server) finishIngest(w http.ResponseWriter, r *http.Request, obs []fleet.Observation, rep *quality.Report) {
	ingested := len(obs) + rep.RowsQuarantined
	if s.testHoldIngest != nil {
		s.testHoldIngest()
	}
	var res fleet.BatchResult
	if s.cfg.Persist != nil {
		var err error
		var pos persist.Position
		res, pos, err = s.cfg.Persist.LogBatch(obs, func() fleet.BatchResult { return s.store.IngestBatch(obs) })
		if err != nil {
			// The batch was NOT applied: acknowledging it would hand the
			// client an ingest that cannot survive a restart.
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("WAL append failed, batch rejected: %v", err)
			}
			wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
				"error": "write-ahead log append failed; batch not applied",
			})
			return
		}
		if s.repl != nil {
			// A replicated primary's 200 means "on two nodes": hold the ack
			// until the follower confirms this batch's WAL position.
			if rerr := s.waitReplicated(r.Context(), pos); rerr != nil {
				if errors.Is(rerr, persist.ErrFenced) {
					// Deposed mid-request. The batch is applied locally but
					// this node's lineage is dead — the client must retry
					// against the new primary, which never saw the batch.
					s.m.ingestNotPrimary.Add(1)
					wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
						"error": "deposed during replication; retry against the new primary",
					})
					return
				}
				// Ack timeout: the batch is durable locally but its remote
				// fate is unknown. 500 is honest — and a client retry here is
				// at-least-once, the documented caveat of a lost follower.
				if s.cfg.Log != nil {
					s.cfg.Log.Printf("replication ack wait failed: %v", rerr)
				}
				wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
					"error": "replication ack timeout; batch durable locally but unconfirmed on the follower",
				})
				return
			}
		}
	} else {
		res = s.store.IngestBatch(obs)
	}
	rep.Merge(&res.Quality)

	s.m.rowsIngested.Add(int64(ingested))
	s.m.rowsKept.Add(int64(rep.RowsKept()))
	s.m.rowsQuarantined.Add(int64(rep.RowsQuarantined))
	for i := range obs {
		s.m.rowsByClass[obs[i].Class].Add(1)
	}
	s.m.observeBatchVersion(res.ModelVersion)
	ack := wire.Ack{
		Ingested:     ingested,
		Kept:         rep.RowsKept(),
		Quarantined:  rep.RowsQuarantined,
		ModelVersion: res.ModelVersion,
		Alerts:       wire.AlertsOf(res.Alerts),
		Quality:      wire.LedgerOf(rep),
	}
	for _, a := range res.Alerts {
		s.m.alertsBySeverity[int(a.Severity)].Add(1)
	}
	wire.WriteJSON(w, http.StatusOK, &ack)
}

func (s *Server) handleDrive(w http.ResponseWriter, r *http.Request) {
	serial := r.PathValue("serial")
	dh, ok := s.store.Drive(serial)
	if !ok {
		wire.WriteJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("unknown drive %q", serial),
		})
		return
	}
	doc := wire.DriveOf(dh)
	wire.WriteJSON(w, http.StatusOK, &doc)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	topN, err := wire.ParseTop(r.URL.Query().Get("top"))
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	evicted := s.store.EvictStale()
	sum := s.store.Summary(topN)
	q := s.store.Quality()
	doc := wire.SummaryOf(sum, evicted, &q)
	wire.WriteJSON(w, http.StatusOK, &doc)
}

// handleSnapshot triggers a snapshot on demand (POST /v1/admin/snapshot,
// registered only when persistence is configured).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.cfg.Persist.Snapshot(s.store)
	if err != nil {
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("admin snapshot failed: %v", err)
		}
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
			"error": fmt.Sprintf("snapshot failed: %v", err),
		})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"drives":      info.Drives,
		"bytes":       info.Bytes,
		"duration_ms": float64(info.Duration) / float64(time.Millisecond),
		"epoch":       info.Epoch,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := s.m.snapshot()
	sum := s.store.Summary(0)
	shards := make([]map[string]int, len(sum.Shards))
	for i, ss := range sum.Shards {
		shards[i] = map[string]int{"shard": ss.Shard, "drives": ss.Drives}
	}
	doc["fleet"] = map[string]any{
		"drives":   sum.Drives,
		"max_hour": sum.MaxHour,
		"shards":   shards,
	}
	if mm, ok := doc["models"].(map[string]any); ok {
		mm["active_version"] = s.store.ModelVersion()
	}
	doc["in_flight"] = s.sem.InFlight()
	if s.cfg.Persist != nil {
		ps := s.cfg.Persist.Stats()
		doc["persist"] = map[string]any{
			"epoch":               ps.Epoch,
			"snapshots":           ps.Snapshots,
			"snapshot_failures":   ps.SnapshotFailures,
			"wal_batches":         ps.WALBatches,
			"wal_rows":            ps.WALRows,
			"wal_bytes":           ps.WALBytes,
			"last_snapshot_ms":    float64(ps.LastSnapshotDuration) / float64(time.Millisecond),
			"last_snapshot_bytes": ps.LastSnapshotBytes,
			"follower_lost":       ps.FollowerLost,
		}
	}
	if s.repl != nil {
		doc["replication"] = s.replicationDoc()
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

// Severity index sanity: the alerts metric array is indexed by
// monitor.Severity, which must stay 4 values wide.
var _ = [4]struct{}{}[monitor.Critical]
