package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// shipObs builds a one-observation batch scored by RRER, the attribute
// every test predictor in this package reads.
func shipObs(serial string, hour int, score float64) []fleet.Observation {
	var v smart.Values
	v[smart.RRER] = score
	return []fleet.Observation{{Serial: serial, Record: smart.Record{Hour: hour, Values: v}}}
}

// sourceFrames logs batches through a scratch WAL and returns the raw
// frame bytes plus the positions bracketing them — exactly what a
// primary would ship.
func sourceFrames(t *testing.T, batches ...[]fleet.Observation) (frames []byte, start, end persist.Position) {
	t.Helper()
	m, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start = m.Position()
	for _, b := range batches {
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return fleet.BatchResult{} }); err != nil {
			t.Fatal(err)
		}
	}
	end = m.Position()
	frames, got, err := m.ReadWALFrames(start.Epoch, start.Offset, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got != end.Offset {
		t.Fatalf("read frames end at %d, want %d", got, end.Offset)
	}
	return frames, start, end
}

// shipPost sends one raw ship request and returns the status plus the
// decoded ack body.
func shipPost(t *testing.T, base string, term uint64, from persist.Position, frames []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/replication/ship", persist.ShipContentType,
		bytes.NewReader(persist.EncodeShipRequest(term, from, frames)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeJSON(t, resp.Body)
}

func replStatus(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeJSON(t, resp.Body)
}

func TestFollowerRejectsDirectWritesWithLeaderHint(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{Replication: &ReplicationOptions{
		Role:      RoleFollower,
		Term:      1,
		LeaderURL: "http://leader.example",
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeJSON(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on follower = %d, want 503", resp.StatusCode)
	}
	if doc["leader"] != "http://leader.example" {
		t.Fatalf("503 leader hint = %v, want the leader URL", doc["leader"])
	}
	if got := srv.store.Tracked(); got != 0 {
		t.Fatalf("rejected write still tracked %d drives", got)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met := decodeJSON(t, mresp.Body)
	mresp.Body.Close()
	if got := met["ingest"].(map[string]any)["rejected_not_primary"]; got != float64(1) {
		t.Fatalf("rejected_not_primary = %v, want 1", got)
	}
}

// The ship protocol end to end against a real follower server: fencing,
// apply, idempotent duplicate skip, gap conflict, and term adoption.
func TestShipFenceApplyDuplicateAndGap(t *testing.T) {
	frames, start, end := sourceFrames(t,
		shipObs("SER-A", 0, 0.9),
		shipObs("SER-B", 0, 0.9),
	)
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 3, Expected: start}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A deposed primary's term bounces off with the follower's term in
	// the body, and nothing is applied.
	code, ack := shipPost(t, ts.URL, 2, start, frames)
	if code != http.StatusForbidden {
		t.Fatalf("stale-term ship = %d, want 403", code)
	}
	if ack["term"] != float64(3) {
		t.Fatalf("fence ack term = %v, want 3", ack["term"])
	}
	if srv.store.Tracked() != 0 {
		t.Fatal("fenced frames were applied")
	}

	// The live term applies and acks the new high-water mark.
	code, ack = shipPost(t, ts.URL, 3, start, frames)
	if code != http.StatusOK {
		t.Fatalf("ship = %d, want 200", code)
	}
	if ack["offset"] != float64(end.Offset) {
		t.Fatalf("ack offset = %v, want %d", ack["offset"], end.Offset)
	}
	if srv.store.Tracked() != 2 {
		t.Fatalf("follower tracks %d drives, want 2", srv.store.Tracked())
	}

	// A re-shipped chunk (lost ack) is skipped frame by frame, never
	// re-applied: WAL replay is not idempotent.
	code, ack = shipPost(t, ts.URL, 3, start, frames)
	if code != http.StatusOK || ack["offset"] != float64(end.Offset) {
		t.Fatalf("duplicate ship = %d ack %v, want 200 at %d", code, ack["offset"], end.Offset)
	}
	st := replStatus(t, ts.URL)
	if st["rows_applied"] != float64(2) {
		t.Fatalf("rows_applied = %v after duplicate ship, want 2", st["rows_applied"])
	}
	if st["duplicate_frames"].(float64) == 0 {
		t.Fatal("duplicate frames not counted")
	}

	// A gap — frames the follower never saw would be skipped — conflicts
	// with the actual high-water mark in the ack so the sender resyncs.
	code, ack = shipPost(t, ts.URL, 3, persist.Position{Epoch: end.Epoch, Offset: end.Offset + 64}, nil)
	if code != http.StatusConflict {
		t.Fatalf("gapped ship = %d, want 409", code)
	}
	if ack["offset"] != float64(end.Offset) {
		t.Fatalf("conflict ack offset = %v, want %d", ack["offset"], end.Offset)
	}

	// A newer term on the same stream (a re-promoted primary) is adopted.
	code, _ = shipPost(t, ts.URL, 5, end, nil)
	if code != http.StatusOK {
		t.Fatalf("newer-term heartbeat = %d, want 200", code)
	}
	if got := srv.Term(); got != 5 {
		t.Fatalf("follower term after adoption = %d, want 5", got)
	}
}

// A frame torn in transit: the intact prefix applies, the 409 ack names
// exactly where the sender must resume, and the re-ship completes
// without double-applying the prefix.
func TestShipTornFrameAppliesPrefixAndRecovers(t *testing.T) {
	frames, start, end := sourceFrames(t,
		shipObs("SER-A", 0, 0.9),
		shipObs("SER-B", 0, 0.9),
	)
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1, Expected: start}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, ack := shipPost(t, ts.URL, 1, start, frames[:len(frames)-4])
	if code != http.StatusConflict {
		t.Fatalf("torn ship = %d, want 409", code)
	}
	resume := int64(ack["offset"].(float64))
	if resume <= start.Offset || resume >= end.Offset {
		t.Fatalf("torn ack offset %d outside (%d, %d): prefix not applied or tear swallowed", resume, start.Offset, end.Offset)
	}
	if srv.store.Tracked() != 1 {
		t.Fatalf("follower tracks %d drives after torn ship, want 1 (the intact prefix)", srv.store.Tracked())
	}

	code, ack = shipPost(t, ts.URL, 1, persist.Position{Epoch: start.Epoch, Offset: resume}, frames[resume-start.Offset:])
	if code != http.StatusOK || ack["offset"] != float64(end.Offset) {
		t.Fatalf("re-ship = %d ack %v, want 200 at %d", code, ack["offset"], end.Offset)
	}
	if srv.store.Tracked() != 2 {
		t.Fatalf("follower tracks %d drives after recovery, want 2", srv.store.Tracked())
	}
	st := replStatus(t, ts.URL)
	if st["rows_applied"] != float64(2) {
		t.Fatalf("rows_applied = %v, want 2 (no double apply)", st["rows_applied"])
	}
}

// An epoch advance (the primary snapshotted) is accepted only at the
// very start of the new epoch — anything else means frames were lost.
func TestShipEpochAdvanceOnlyAtStart(t *testing.T) {
	_, start, _ := sourceFrames(t, shipObs("SER-A", 0, 0.9))
	srv := testServer(t, fleet.Config{Shards: 2},
		Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1, Expected: start}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := shipPost(t, ts.URL, 1, persist.Position{Epoch: start.Epoch + 1, Offset: start.Offset + 999}, nil)
	if code != http.StatusConflict {
		t.Fatalf("mid-epoch jump = %d, want 409", code)
	}
	code, ack := shipPost(t, ts.URL, 1, persist.StartPosition(start.Epoch+1), nil)
	if code != http.StatusOK {
		t.Fatalf("epoch-start heartbeat = %d, want 200", code)
	}
	if ack["epoch"] != float64(start.Epoch+1) {
		t.Fatalf("ack epoch = %v, want %d", ack["epoch"], start.Epoch+1)
	}
}

// Bootstrap hands a follower the primary's live state — restorable at a
// different shard count — plus the exact stream position, and attaches
// the shipper before the response leaves.
func TestBootstrapFollowerAtDifferentShardCount(t *testing.T) {
	dir := t.TempDir()
	mgr, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	fcfg := fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}}
	store := persistStore(t, fcfg)
	srv := New(store, Config{Persist: mgr, Replication: &ReplicationOptions{
		Role: RolePrimary, Term: 1, SelfURL: "http://primary.example",
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer mgr.DetachShipper()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, -0.9})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary ingest = %d, want 200 (no follower attached yet)", resp.StatusCode)
	}

	fst, bopts, err := BootstrapFollower(ts.URL, "http://follower.example",
		fleet.Config{Shards: 8, Monitor: fcfg.Monitor}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Shards() != 8 {
		t.Fatalf("follower restored at %d shards, want 8", fst.Shards())
	}
	want := store.ExportState()
	want.Quality.StripDiagnostics()
	got := fst.ExportState()
	got.Quality.StripDiagnostics()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bootstrapped follower state differs from the primary")
	}
	if bopts.Role != RoleFollower || bopts.Term != 1 || bopts.LeaderURL != ts.URL {
		t.Fatalf("bootstrap options = %+v", bopts)
	}
	if bopts.Expected != mgr.Position() {
		t.Fatalf("bootstrap expects %s, primary WAL is at %s", bopts.Expected, mgr.Position())
	}
	sh := mgr.AttachedShipper()
	if sh == nil {
		t.Fatal("bootstrap did not attach the shipper")
	}
	if st := sh.Stats(); st.FollowerURL != "http://follower.example" {
		t.Fatalf("shipper follows %q", st.FollowerURL)
	}

	// A non-primary refuses to hand out bootstrap images.
	mgr2, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	fsrv := testServer(t, fcfg, Config{Persist: mgr2, Replication: &ReplicationOptions{Role: RoleFollower, Term: 1}})
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	if _, _, err := BootstrapFollower(fts.URL, "http://x.example", fcfg, nil); err == nil {
		t.Fatal("bootstrapping from a follower succeeded")
	}
}

func TestPromoteBumpsTermIdempotentlyAndOpensWrites(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 3, SelfURL: "http://me.example"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	promote := func() map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/replication/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote = %d, want 200", resp.StatusCode)
		}
		return decodeJSON(t, resp.Body)
	}
	doc := promote()
	if doc["role"] != "primary" || doc["term"] != float64(4) {
		t.Fatalf("promote doc = %v, want primary at term 4", doc)
	}
	// Idempotent: promoting a primary changes nothing.
	if doc = promote(); doc["term"] != float64(4) {
		t.Fatalf("second promote term = %v, want 4", doc["term"])
	}

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after promotion = %d, want 200", resp.StatusCode)
	}
	st := replStatus(t, ts.URL)
	if st["leader"] != "http://me.example" {
		t.Fatalf("promoted leader = %v, want own SelfURL", st["leader"])
	}
}

func TestReadinessReflectsRoleAndLag(t *testing.T) {
	ready := func(srv *Server) (int, map[string]any) {
		t.Helper()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/healthz/ready")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, decodeJSON(t, resp.Body)
	}

	// Standalone and primary are always ready.
	if code, doc := ready(testServer(t, fleet.Config{}, Config{})); code != http.StatusOK || doc["role"] != "standalone" {
		t.Fatalf("standalone ready = %d %v", code, doc)
	}
	if code, _ := ready(testServer(t, fleet.Config{}, Config{Replication: &ReplicationOptions{Role: RolePrimary, Term: 1}})); code != http.StatusOK {
		t.Fatalf("primary ready = %d, want 200", code)
	}

	// A fresh follower is ready; one past its ReadyLag is stale. Both
	// answers carry the measured lag AND the gate it is judged against,
	// so a router can see how far behind a follower is.
	fresh := testServer(t, fleet.Config{}, Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1}})
	if code, doc := ready(fresh); code != http.StatusOK || doc["role"] != "follower" {
		t.Fatalf("fresh follower ready = %d %v", code, doc)
	} else if doc["ready_lag_ms"].(float64) <= 0 {
		t.Fatalf("fresh follower does not report its gate: %v", doc)
	}
	stale := testServer(t, fleet.Config{}, Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1, ReadyLag: time.Millisecond}})
	time.Sleep(10 * time.Millisecond)
	if code, doc := ready(stale); code != http.StatusServiceUnavailable {
		t.Fatalf("stale follower ready = %d %v, want 503", code, doc)
	} else if doc["ready_lag_ms"].(float64) != 1 || doc["lag_ms"].(float64) <= doc["ready_lag_ms"].(float64) {
		t.Fatalf("stale follower must report lag vs gate: %v", doc)
	}

	// Mid-promotion, the node takes no traffic.
	cand := testServer(t, fleet.Config{}, Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1}})
	cand.repl.mu.Lock()
	cand.repl.role = RoleCandidate
	cand.repl.mu.Unlock()
	if code, doc := ready(cand); code != http.StatusServiceUnavailable || doc["status"] != "promoting" {
		t.Fatalf("candidate ready = %d %v, want 503 promoting", code, doc)
	}

	// The bare /healthz alias stays pure liveness: a stale follower is
	// alive even when it is not ready.
	ts := httptest.NewServer(stale.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/healthz/live"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on stale follower = %d, want 200", path, resp.StatusCode)
		}
	}
}

// A ship request mid-promotion is answered 503 (retry), not applied and
// not fenced — the term bump has not landed yet.
func TestShipDuringPromotionBounces(t *testing.T) {
	_, start, _ := sourceFrames(t, shipObs("SER-A", 0, 0.9))
	srv := testServer(t, fleet.Config{Shards: 2},
		Config{Replication: &ReplicationOptions{Role: RoleFollower, Term: 1, Expected: start}})
	srv.repl.mu.Lock()
	srv.repl.role = RoleCandidate
	srv.repl.mu.Unlock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := shipPost(t, ts.URL, 1, start, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ship during promotion = %d, want 503", code)
	}
}

// The whole pair, end to end over real HTTP: bootstrap, synchronous
// replicated writes, a snapshot's drain barrier, auto-promotion when
// the primary dies, the deposed primary fencing itself on its next
// shipped frame, and writes resuming on the survivor.
func TestReplicatedPairEndToEndFailover(t *testing.T) {
	fcfg := fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}}
	mgr1, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr1.Close()
	store1 := persistStore(t, fcfg)
	srv1 := New(store1, Config{Persist: mgr1, Replication: &ReplicationOptions{
		Role: RolePrimary, Term: 1,
	}})
	ts1 := httptest.NewServer(srv1.Handler())
	primaryDown := false
	defer func() {
		if !primaryDown {
			ts1.Close()
		}
	}()

	// The follower must know its own URL before it can bootstrap, and
	// needs the bootstrap before it has a handler — so the listener comes
	// up first, behind an indirection.
	var follower atomic.Pointer[http.Handler]
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := follower.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "still bootstrapping", http.StatusServiceUnavailable)
	}))
	defer ts2.Close()
	mgr2, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	store2, bopts, err := BootstrapFollower(ts1.URL, ts2.URL,
		fleet.Config{Shards: 8, Monitor: fcfg.Monitor}, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(store2, Config{Persist: mgr2, Replication: &bopts})
	h := srv2.Handler()
	follower.Store(&h)

	ingest := func(ts *httptest.Server, recs ...[3]any) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(ingestBody(t, recs...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A replicated write: the primary's 200 is issued only after the
	// follower acked, and the ack only after the apply — so the rows are
	// on the follower the moment the client hears back.
	if code := ingest(ts1, [3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.9}); code != http.StatusOK {
		t.Fatalf("replicated ingest = %d, want 200", code)
	}
	if got := store2.Tracked(); got != 2 {
		t.Fatalf("follower tracks %d drives after acked write, want 2", got)
	}

	// Imports and drops are writes. An import is not a WAL frame, so a
	// primary with a follower attached refuses it rather than leave the
	// pair out of step, and the follower sends both to the leader.
	src := httptest.NewServer(New(persistStore(t, fcfg), Config{}).Handler())
	defer src.Close()
	if code := ingest(src, [3]any{"SER-9", 0, 0.9}); code != http.StatusOK {
		t.Fatalf("ingest on the export source = %d, want 200", code)
	}
	img := exportImage(t, src.URL, "SER-9")
	if code, doc := postImport(t, ts1.URL, img); code != http.StatusConflict {
		t.Fatalf("import on a replicated primary = %d %v, want 409", code, doc)
	}
	for what, post := range map[string]func() (int, map[string]any){
		"import": func() (int, map[string]any) { return postImport(t, ts2.URL, img) },
		"drop": func() (int, map[string]any) {
			return postJSON(t, ts2.URL+"/v1/admin/drop", map[string]any{"serials": []string{"SER-1"}})
		},
	} {
		if code, doc := post(); code != http.StatusServiceUnavailable || doc["leader"] != ts1.URL {
			t.Fatalf("%s on the follower = %d %v, want 503 naming leader %s", what, code, doc, ts1.URL)
		}
	}
	if p, f := store1.Tracked(), store2.Tracked(); p != 2 || f != 2 {
		t.Fatalf("after the refused admin writes the primary tracks %d drives and the follower %d, want 2 and 2", p, f)
	}
	st := replStatus(t, ts1.URL)
	if st["shipper"] == nil {
		t.Fatalf("primary status shows no shipper: %v", st)
	}

	// A snapshot resets the primary's WAL; the drain barrier means the
	// stream survives it and the next write replicates in the new epoch.
	resp, err := http.Post(ts1.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d, want 200", resp.StatusCode)
	}
	if mgr1.AttachedShipper() == nil {
		t.Fatal("snapshot detached a healthy shipper")
	}
	if code := ingest(ts1, [3]any{"SER-3", 0, 0.9}); code != http.StatusOK {
		t.Fatalf("post-snapshot ingest = %d, want 200", code)
	}
	if got := store2.Tracked(); got != 3 {
		t.Fatalf("follower tracks %d drives after epoch advance, want 3", got)
	}

	// Kill the primary; the watcher notices and self-promotes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		srv2.WatchPrimary(ctx, 10*time.Millisecond, 40*time.Millisecond)
		close(done)
	}()
	ts1.Close()
	primaryDown = true
	deadline := time.Now().Add(10 * time.Second)
	for srv2.Role() != RolePrimary {
		if time.Now().After(deadline) {
			t.Fatal("follower never promoted itself")
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-done
	if got := srv2.Term(); got != 2 {
		t.Fatalf("promoted term = %d, want 2", got)
	}

	// The deposed primary logs one more batch; its shipper carries the
	// old term, the promoted node 403s it, and the fence callback steps
	// the deposed node down. The ghost never lands.
	if _, _, err := mgr1.LogBatch(shipObs("GHOST", 0, 0.9), func() fleet.BatchResult { return fleet.BatchResult{} }); err != nil {
		t.Fatal(err)
	}
	for srv1.Role() != RoleFollower {
		if time.Now().After(deadline) {
			t.Fatal("deposed primary never stepped down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := store2.Tracked(); got != 3 {
		t.Fatalf("promoted node tracks %d drives, want 3 (ghost fenced out)", got)
	}

	// Writes flow on the survivor.
	if code := ingest(ts2, [3]any{"SER-4", 0, 0.9}); code != http.StatusOK {
		t.Fatalf("ingest on promoted node = %d, want 200", code)
	}
	if doc := replStatus(t, ts2.URL); doc["role"] != "primary" {
		t.Fatalf("survivor role = %v, want primary", doc["role"])
	}
}

// TestShipAckMatchesMapEncoding pins the typed ship ack to the bytes
// the ack had when it was rendered from a map: the same fields in the
// same (sorted) order.
func TestShipAckMatchesMapEncoding(t *testing.T) {
	got := httptest.NewRecorder()
	shipAckJSON(got, http.StatusConflict, 7, persist.Position{Epoch: 3, Offset: 1234})
	want := httptest.NewRecorder()
	wire.WriteJSON(want, http.StatusConflict, map[string]any{"term": uint64(7), "epoch": uint64(3), "offset": int64(1234)})
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Fatalf("ship ack %d %q, want %d %q", got.Code, got.Body, want.Code, want.Body)
	}
}
