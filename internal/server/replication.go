// Replicated serving: a primary ships its WAL to one warm follower and
// withholds ingest acks until the follower confirms, so a 200 means the
// batch is applied on two nodes. Promotion is fenced by a leadership
// term: the follower bumps its term when it promotes, and the deposed
// primary's late ship requests bounce off a 403 instead of being
// double-applied. Terms order leaders; WAL epochs (a persist concept)
// order snapshot generations within one leader's stream — the two are
// deliberately distinct.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/persist"
	"disksig/internal/wire"
)

// Role is a node's place in a replicated pair.
type Role int

const (
	// RolePrimary accepts writes and ships its WAL to the follower.
	RolePrimary Role = iota
	// RoleFollower applies shipped frames and rejects direct writes.
	RoleFollower
	// RoleCandidate is mid-promotion: no writes, no ship applies.
	RoleCandidate
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ReplicationOptions configures a server's place in a replicated pair.
type ReplicationOptions struct {
	// Role is the node's starting role.
	Role Role
	// Term is the leadership term the node starts at. A follower adopts
	// the term from its bootstrap image; promotion bumps it.
	Term uint64
	// LeaderURL is the primary's base URL (follower only); it is handed
	// to rejected writers as the place to retry.
	LeaderURL string
	// SelfURL is this node's own advertised base URL, which becomes the
	// leader hint after promotion.
	SelfURL string
	// Expected is the WAL position the follower expects the next shipped
	// frame at (follower only; the bootstrap image carries it).
	Expected persist.Position
	// AckTimeout bounds how long an ingest request waits for the
	// follower's ack before failing. <= 0 means 5s.
	AckTimeout time.Duration
	// ReadyLag is how stale a follower's last primary contact may be
	// before readiness flips to 503. <= 0 means 3s.
	ReadyLag time.Duration
	// Heartbeat is the shipper's idle heartbeat period for followers this
	// primary bootstraps. <= 0 takes the shipper default (500ms).
	Heartbeat time.Duration
}

func (o ReplicationOptions) withDefaults() ReplicationOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.ReadyLag <= 0 {
		o.ReadyLag = 3 * time.Second
	}
	return o
}

// replication is the server's mutable role state plus counters. Ship
// applies run under mu, which also serializes them against promotion:
// Promote's first step (becoming candidate) waits out any in-flight
// apply, so a frame is never applied concurrently with a role change.
type replication struct {
	opts ReplicationOptions

	mu          sync.Mutex
	role        Role
	term        uint64
	leaderURL   string
	expected    persist.Position
	lastContact time.Time

	framesApplied   uint64
	rowsApplied     uint64
	alertsSupp      uint64
	duplicateFrames uint64
	fencedRejects   uint64
	shipConflicts   uint64
	promotions      uint64
	demotions       uint64
	bootstraps      uint64
}

func newReplication(opts ReplicationOptions) *replication {
	opts = opts.withDefaults()
	return &replication{
		opts:        opts,
		role:        opts.Role,
		term:        opts.Term,
		leaderURL:   opts.LeaderURL,
		expected:    opts.Expected,
		lastContact: time.Now(),
	}
}

// Role returns the node's current role. A server without replication
// configured is a standalone primary: it accepts writes.
func (s *Server) Role() Role {
	if s.repl == nil {
		return RolePrimary
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.role
}

// Term returns the node's current leadership term (0 when replication
// is not configured).
func (s *Server) Term() uint64 {
	if s.repl == nil {
		return 0
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.term
}

// takesWrites reports whether this node accepts a write (an ingest, an
// import or a drop). A follower or candidate does not: it answers 503
// with a leader hint, which the failover-aware client and the router
// follow, and reports false.
func (s *Server) takesWrites(w http.ResponseWriter) bool {
	rp := s.repl
	if rp == nil {
		return true
	}
	rp.mu.Lock()
	role, leader := rp.role, rp.leaderURL
	rp.mu.Unlock()
	if role == RolePrimary {
		return true
	}
	s.m.ingestNotPrimary.Add(1)
	wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":  fmt.Sprintf("not the primary (role %s); writes go to the leader", role),
		"leader": leader,
	})
	return false
}

// waitReplicated blocks an acked ingest until the follower confirms the
// batch's WAL position. nil when no follower is attached (single-node
// operation) or the shipper was detached mid-wait: the guarantee is
// "applied everywhere replication currently reaches".
func (s *Server) waitReplicated(ctx context.Context, pos persist.Position) error {
	sh := s.cfg.Persist.AttachedShipper()
	if sh == nil {
		return nil
	}
	tctx, cancel := context.WithTimeout(ctx, s.repl.opts.AckTimeout)
	defer cancel()
	err := sh.WaitAcked(tctx, pos)
	if errors.Is(err, persist.ErrShipperStopped) {
		return nil
	}
	return err
}

// stepDown demotes a fenced primary to follower. It runs from the
// shipper's OnFenced callback: the follower we were shipping to has a
// higher term, meaning it promoted itself while we were still acting as
// leader (typically after a partition, or an operator promote).
func (s *Server) stepDown(peerTerm uint64) {
	rp := s.repl
	if rp == nil {
		return
	}
	rp.mu.Lock()
	was := rp.role
	if rp.role == RolePrimary {
		rp.role = RoleFollower
		// The fence does not say where the new leader is; readiness stays
		// 503-stale until a bootstrap or operator re-points this node.
		rp.leaderURL = ""
		rp.demotions++
	}
	if peerTerm > rp.term {
		rp.term = peerTerm
	}
	rp.mu.Unlock()
	if was == RolePrimary && s.cfg.Persist != nil {
		s.cfg.Persist.DetachShipper()
	}
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("fenced by term %d: stepping down to follower", peerTerm)
	}
}

// Promote turns a follower into the primary: bump the term (the fence),
// snapshot the warm state so the new leader's WAL lineage starts clean,
// then start answering writes. Idempotent on an existing primary.
func (s *Server) Promote() (uint64, error) {
	rp := s.repl
	if rp == nil {
		return 0, fmt.Errorf("server: replication is not configured")
	}
	rp.mu.Lock()
	if rp.role == RolePrimary {
		term := rp.term
		rp.mu.Unlock()
		return term, nil
	}
	rp.role = RoleCandidate
	rp.term++
	term := rp.term
	rp.mu.Unlock()

	// The snapshot makes promotion restore-fast for whoever follows this
	// node next, and compacts the replicated WAL into a clean epoch. Its
	// failure is not fatal: the WAL still holds everything applied.
	if s.cfg.Persist != nil {
		if _, err := s.cfg.Persist.Snapshot(s.store); err != nil && s.cfg.Log != nil {
			s.cfg.Log.Printf("promotion snapshot failed (continuing, WAL intact): %v", err)
		}
	}

	rp.mu.Lock()
	rp.role = RolePrimary
	rp.leaderURL = rp.opts.SelfURL
	rp.promotions++
	rp.mu.Unlock()
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("promoted to primary at term %d", term)
	}
	return term, nil
}

// WatchPrimary polls the leader's liveness endpoint and promotes this
// follower after the leader has been continuously unreachable for
// promoteAfter. It returns when ctx ends or a promotion (from any
// source) resolves the watch.
func (s *Server) WatchPrimary(ctx context.Context, interval, promoteAfter time.Duration) {
	if s.repl == nil || promoteAfter <= 0 {
		return
	}
	if interval <= 0 {
		interval = promoteAfter / 5
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	client := &http.Client{Timeout: max(interval, 100*time.Millisecond)}
	t := time.NewTicker(interval)
	defer t.Stop()
	var downSince time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		s.repl.mu.Lock()
		role, leader := s.repl.role, s.repl.leaderURL
		s.repl.mu.Unlock()
		if role != RoleFollower || leader == "" {
			return
		}
		if probeLive(client, leader) {
			downSince = time.Time{}
			continue
		}
		if downSince.IsZero() {
			downSince = time.Now()
			continue
		}
		if time.Since(downSince) >= promoteAfter {
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("primary %s unreachable for %s: promoting", leader, time.Since(downSince).Round(time.Millisecond))
			}
			if _, err := s.Promote(); err != nil && s.cfg.Log != nil {
				s.cfg.Log.Printf("promotion failed: %v", err)
			}
			return
		}
	}
}

func probeLive(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/healthz/live")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// BootstrapFollower asks a running primary for its bootstrap image,
// restores the fleet state locally (at whatever shard/worker layout
// fcfg picks — the export format is layout-independent), and returns
// the store plus the ReplicationOptions a follower server should start
// with. When mgr is non-nil the restored state is snapshotted
// immediately so the follower is durable from its first frame.
func BootstrapFollower(primaryURL, selfURL string, fcfg fleet.Config, mgr *persist.Manager) (*fleet.Store, ReplicationOptions, error) {
	reqBody, err := json.Marshal(map[string]string{"follower_url": selfURL})
	if err != nil {
		return nil, ReplicationOptions{}, err
	}
	resp, err := http.Post(primaryURL+"/v1/replication/bootstrap", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return nil, ReplicationOptions{}, fmt.Errorf("server: bootstrap request: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, ReplicationOptions{}, fmt.Errorf("server: reading bootstrap image: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		snippet := body
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		return nil, ReplicationOptions{}, fmt.Errorf("server: bootstrap: primary answered %d: %s", resp.StatusCode, snippet)
	}
	st, term, pos, err := persist.DecodeBootstrap(body)
	if err != nil {
		return nil, ReplicationOptions{}, err
	}
	store, err := fleet.Restore(st, fcfg)
	if err != nil {
		return nil, ReplicationOptions{}, fmt.Errorf("server: restoring bootstrap image: %w", err)
	}
	if mgr != nil {
		if _, err := mgr.Snapshot(store); err != nil {
			return nil, ReplicationOptions{}, fmt.Errorf("server: seeding follower snapshot: %w", err)
		}
	}
	opts := ReplicationOptions{
		Role:      RoleFollower,
		Term:      term,
		LeaderURL: primaryURL,
		SelfURL:   selfURL,
		Expected:  pos,
	}
	return store, opts, nil
}

// handleBootstrap serves a follower's bootstrap request: export a
// consistent state image, attach the WAL shipper at the image's
// position, and stream the image back. Registered only with both
// replication and persistence configured.
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	rp := s.repl
	var req struct {
		FollowerURL string `json:"follower_url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil || req.FollowerURL == "" {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": "bootstrap request needs a follower_url",
		})
		return
	}
	rp.mu.Lock()
	role, term, leader := rp.role, rp.term, rp.leaderURL
	rp.mu.Unlock()
	if role != RolePrimary {
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  fmt.Sprintf("not the primary (role %s)", role),
			"leader": leader,
		})
		return
	}

	st, pos := s.cfg.Persist.BootstrapImage(s.store)
	img, err := persist.EncodeBootstrap(st, term, pos)
	if err != nil {
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
			"error": fmt.Sprintf("encoding bootstrap image: %v", err),
		})
		return
	}
	// Attach before responding: frames appended after pos ship to the
	// follower even if they land while the image is still in flight (the
	// follower dedups anything at or below its restored position).
	s.cfg.Persist.AttachShipper(persist.ShipperConfig{
		FollowerURL: req.FollowerURL,
		Term:        term,
		Heartbeat:   rp.opts.Heartbeat,
		OnFenced:    s.stepDown,
	}, pos)
	rp.mu.Lock()
	rp.bootstraps++
	rp.mu.Unlock()
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("follower %s bootstrapped at %s (term %d, %d bytes)", req.FollowerURL, pos, term, len(img))
	}
	w.Header().Set("Content-Type", persist.BootstrapContentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(img)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(img)
}

// shipAckJSON writes the follower's high-water mark (its term rides
// along so a fenced sender learns what deposed it).
func shipAckJSON(w http.ResponseWriter, status int, term uint64, pos persist.Position) {
	wire.WriteJSON(w, status, &persist.ShipAck{Epoch: pos.Epoch, Offset: pos.Offset, Term: term})
}

// frameIters recycles the follower's frame iterators. A warm iterator
// carries its observation and serial buffers, so applying a ship body
// costs one allocation per WAL frame, not per record.
var frameIters = sync.Pool{New: func() any { return new(persist.FrameIter) }}

// handleShip applies one chunk of shipped WAL frames. The protocol in
// one breath: 403 = your term lost (fence, terminal), 409 = position
// mismatch or torn frame (resync from the acked position and re-ship —
// nothing past the ack was applied), 200 = everything up to the acked
// position is applied. Duplicate frames (end at or below the expected
// offset) are skipped, never re-applied: WAL replay is not idempotent.
func (s *Server) handleShip(w http.ResponseWriter, r *http.Request) {
	rp := s.repl
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, persist.MaxShipBody)); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("reading ship request: %v", err),
		})
		return
	}
	term, from, frames, err := persist.DecodeShipRequest(buf.Bytes())
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}

	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.role == RoleCandidate {
		// Mid-promotion: the sender retries, and once the term bump lands
		// it gets fenced properly.
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "promotion in progress",
		})
		return
	}
	if rp.role != RoleFollower || term < rp.term {
		rp.fencedRejects++
		shipAckJSON(w, http.StatusForbidden, rp.term, rp.expected)
		return
	}
	if term > rp.term {
		// The same stream under a newer term (a re-promoted primary).
		// Position continuity below still gates every byte.
		rp.term = term
	}

	exp := rp.expected
	switch {
	case from.Epoch < exp.Epoch:
		// A whole stale epoch: everything in it was applied before the
		// snapshot that advanced us. Ack so the sender resyncs forward.
		rp.duplicateFrames++
		rp.lastContact = time.Now()
		shipAckJSON(w, http.StatusOK, rp.term, exp)
		return
	case from.Epoch > exp.Epoch:
		// Epoch advance after a primary snapshot. The drain-before-reset
		// barrier guarantees we acked all of the old epoch, so the new one
		// must start at its very first frame.
		if from != persist.StartPosition(from.Epoch) {
			rp.shipConflicts++
			shipAckJSON(w, http.StatusConflict, rp.term, exp)
			return
		}
		exp = from
	case from.Offset > exp.Offset:
		// A gap: frames we never saw would be skipped. Resync.
		rp.shipConflicts++
		shipAckJSON(w, http.StatusConflict, rp.term, exp)
		return
	}

	pos := from.Offset
	it := frameIters.Get().(*persist.FrameIter)
	it.Reset(frames)
	defer func() {
		it.Reset(nil)
		frameIters.Put(it)
	}()
	for {
		obs, size, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt frame: the applied prefix is acked via 409 so
			// the sender re-ships from exactly where we stopped.
			rp.shipConflicts++
			rp.expected = exp
			rp.lastContact = time.Now()
			shipAckJSON(w, http.StatusConflict, rp.term, exp)
			return
		}
		end := pos + size
		if end <= exp.Offset {
			// Already applied (a re-shipped chunk after a lost ack).
			rp.duplicateFrames++
			pos = end
			continue
		}
		if pos != exp.Offset {
			// A frame straddling the high-water mark means the sender's
			// framing disagrees with what we applied. Resync, apply nothing.
			rp.shipConflicts++
			shipAckJSON(w, http.StatusConflict, rp.term, exp)
			return
		}
		res, err := s.applyReplicated(obs)
		if err != nil {
			rp.expected = exp
			wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
				"error": fmt.Sprintf("applying shipped frame: %v", err),
			})
			return
		}
		rp.framesApplied++
		rp.rowsApplied += uint64(res.Ingested)
		rp.alertsSupp += uint64(len(res.Alerts))
		pos = end
		exp.Offset = end
	}
	rp.expected = exp
	rp.lastContact = time.Now()
	shipAckJSON(w, http.StatusOK, rp.term, exp)
}

// applyReplicated applies one shipped batch through the follower's own
// WAL (durable follower) or straight to the store. Alerts are returned
// for counting but never surfaced: the primary already surfaced them to
// its client, and a follower re-alerting on replay would double-page.
func (s *Server) applyReplicated(obs []fleet.Observation) (fleet.BatchResult, error) {
	if s.cfg.Persist != nil {
		res, _, err := s.cfg.Persist.LogBatch(obs, func() fleet.BatchResult { return s.store.IngestBatch(obs) })
		return res, err
	}
	return s.store.IngestBatch(obs), nil
}

// handlePromote is the operator's promotion trigger.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	term, err := s.Promote()
	if err != nil {
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"role": s.Role().String(),
		"term": term,
	})
}

// handleReplStatus reports role, term, stream positions, and counters.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.replicationDoc())
}

// replicationDoc renders the replication state for both the status
// endpoint and /metrics.
func (s *Server) replicationDoc() map[string]any {
	rp := s.repl
	rp.mu.Lock()
	doc := map[string]any{
		"role":              rp.role.String(),
		"term":              rp.term,
		"leader":            rp.leaderURL,
		"self":              rp.opts.SelfURL,
		"frames_applied":    rp.framesApplied,
		"rows_applied":      rp.rowsApplied,
		"alerts_suppressed": rp.alertsSupp,
		"duplicate_frames":  rp.duplicateFrames,
		"fenced_rejects":    rp.fencedRejects,
		"ship_conflicts":    rp.shipConflicts,
		"promotions":        rp.promotions,
		"demotions":         rp.demotions,
		"bootstraps":        rp.bootstraps,
	}
	if rp.role == RoleFollower {
		doc["expected"] = rp.expected
		doc["contact_age_ms"] = float64(time.Since(rp.lastContact)) / float64(time.Millisecond)
	}
	rp.mu.Unlock()
	if s.cfg.Persist != nil {
		doc["position"] = s.cfg.Persist.Position()
		if sh := s.cfg.Persist.AttachedShipper(); sh != nil {
			st := sh.Stats()
			shipper := map[string]any{
				"follower":       st.FollowerURL,
				"term":           st.Term,
				"acked":          st.Acked,
				"next":           st.Next,
				"fenced":         st.Fenced,
				"frames_shipped": st.FramesShipped,
				"bytes_shipped":  st.BytesShipped,
				"heartbeats":     st.Heartbeats,
				"conflicts":      st.Conflicts,
				"ship_errors":    st.ShipErrors,
			}
			if st.LastError != "" {
				shipper["last_error"] = st.LastError
			}
			doc["shipper"] = shipper
		}
	}
	return doc
}

// handleLive is pure liveness: the process is up and serving.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"drives": s.store.Tracked(),
	})
}

// handleReady is readiness: whether this node should receive traffic.
// A standalone server and a primary are always ready; a candidate is
// not (promotion in progress); a follower is ready only while its view
// of the primary is fresh — a stale follower would serve stale reads
// and is the wrong place to point clients.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	rp := s.repl
	if rp == nil {
		wire.WriteJSON(w, http.StatusOK, &wire.Ready{Status: "ready", Role: "standalone"})
		return
	}
	rp.mu.Lock()
	role := rp.role
	lag := time.Since(rp.lastContact)
	rp.mu.Unlock()
	doc, code := wire.Ready{Status: "ready", Role: role.String()}, http.StatusOK
	switch {
	case role == RolePrimary:
	case role == RoleCandidate:
		doc.Status, code = "promoting", http.StatusServiceUnavailable
	default:
		// A follower names both the lag it measured and the gate it is
		// held to, so the router and operators can see *how far* behind a
		// stale one is, not just that it is.
		doc.LagMs = float64(lag) / float64(time.Millisecond)
		doc.ReadyLagMs = float64(rp.opts.ReadyLag) / float64(time.Millisecond)
		if lag > rp.opts.ReadyLag {
			doc.Status, code = "stale", http.StatusServiceUnavailable
		}
	}
	wire.WriteJSON(w, code, &doc)
}
