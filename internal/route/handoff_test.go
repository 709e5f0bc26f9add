package route

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/server"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// handoffSet is a one-class model set of rampPredictor groups, one per
// window length, at a version.
func handoffSet(version int, windows ...float64) monitor.ModelSet {
	set := monitor.ModelSet{Version: version, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer()}}
	for i, w := range windows {
		set.Models = append(set.Models, monitor.GroupModel{Group: i + 1, Type: core.Logical,
			Form: regression.FormQuadratic, WindowD: w, Predictor: rampPredictor{}})
	}
	return set
}

// storeOf returns a store constructor serving set, with three-score
// smoothing windows and retraining history, so a handoff has windows,
// severities, ledgers and history to carry.
func storeOf(set monitor.ModelSet) func(testing.TB) *fleet.Store {
	return func(t testing.TB) *fleet.Store {
		t.Helper()
		s, err := fleet.FromSet(set, fleet.Config{Shards: 2, HistoryHours: 8, Monitor: monitor.Config{Smoothing: 3}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// degradingObs is hour h of n drives whose scores fall at one of three
// rates, so severities differ; every fifth drive also sends a record
// with a non-finite value at hour 1, which its node quarantines.
func degradingObs(n, h int) []fleet.Observation {
	var obs []fleet.Observation
	for i := 0; i < n; i++ {
		serial := fmt.Sprintf("rt-%04d", i)
		if i%5 == 0 && h == 1 {
			obs = append(obs, testObs(serial, h, math.NaN()))
			continue
		}
		obs = append(obs, testObs(serial, h, 0.9-0.5*float64(h*(i%3))))
	}
	return obs
}

// driveDoc reads one drive through url.
func driveDoc(t *testing.T, url, serial string) wire.Drive {
	t.Helper()
	resp, err := http.Get(url + "/v1/drives/" + serial)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drive %s status %d", serial, resp.StatusCode)
	}
	var doc wire.Drive
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRebalanceModelSetRule moves drives onto a joiner serving the
// sources' model set or another one. A drive keeps its score windows
// only under the set that filled them: otherwise they reset, as a swap
// resets them, while its severity, last hour, quality ledger and
// history carry over unchanged.
func TestRebalanceModelSetRule(t *testing.T) {
	for _, tc := range []struct {
		name            string
		sources, joiner monitor.ModelSet
		reset           bool
	}{
		{"same set", handoffSet(1, 12), handoffSet(1, 12), false},
		{"v1 sources, v2 joiner", handoffSet(1, 12), handoffSet(2, 12), true},
		{"two different v2 sets", handoffSet(2, 12), handoffSet(2, 24), true},
		{"joiner with more models", handoffSet(1, 12), handoffSet(1, 12, 24), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, m := startClusterOf(t, 3, storeOf(tc.sources))
			rt, ts := startRouter(t, m)
			for h := 0; h < 3; h++ {
				if code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(degradingObs(60, h))); code != http.StatusOK {
					t.Fatalf("hour %d ingest status %d: %v", h, code, doc)
				}
			}
			before := map[string]fleet.DriveEntry{}
			for _, n := range nodes {
				for _, e := range n.store.ExportState().Drives {
					before[e.Serial] = e
				}
			}

			joiner := storeOf(tc.joiner)(t)
			jts := httptest.NewServer(server.New(joiner, server.Config{}).Handler())
			t.Cleanup(jts.Close)
			next, err := NewMap(2, append(append([]Node{}, m.Nodes...), Node{ID: "node-3", URL: jts.URL}))
			if err != nil {
				t.Fatal(err)
			}
			stats, err := rt.Rebalance(context.Background(), next)
			if err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			moved := joiner.ExportState().Drives
			if len(moved) == 0 || len(moved) != stats.Moved {
				t.Fatalf("joiner holds %d drives, rebalance moved %d", len(moved), stats.Moved)
			}
			for _, e := range moved {
				want := before[e.Serial]
				if tc.reset && want.State.Tracked {
					want.State.Recent = make([][]float64, len(tc.joiner.Models))
				}
				if !reflect.DeepEqual(e, want) {
					t.Fatalf("drive %s on the joiner:\n got %+v\nwant %+v", e.Serial, e, want)
				}
				if !want.State.Tracked {
					continue
				}
				// Through the router, a drive with empty windows has no
				// degradation until it scores again.
				if d := driveDoc(t, ts.URL, e.Serial); (d.Degradation == nil) != tc.reset || d.LastHour != 2 {
					t.Fatalf("drive %s answers degradation %v at hour %d, reset %v", e.Serial, d.Degradation, d.LastHour, tc.reset)
				}
			}
		})
	}
}

// TestRebalanceRetryImportsFreshState retries a failed migration to the
// same epoch after more ingest. The failed attempt's import landed on
// the joiner, but its answer was lost; the retry must clear that stale
// copy and move the drives' newest state, so no acked record is lost.
func TestRebalanceRetryImportsFreshState(t *testing.T) {
	_, m := startCluster(t, 3)
	rt, ts := startRouter(t, m)
	ingest := func(hours ...int) {
		t.Helper()
		for _, h := range hours {
			if code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(80, h))); code != http.StatusOK {
				t.Fatalf("hour %d ingest status %d: %v", h, code, doc)
			}
		}
	}
	ingest(0, 1, 2)

	joiner := testStore(t)
	node := server.New(joiner, server.Config{}).Handler()
	var failed atomic.Bool
	jts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/admin/import" && failed.CompareAndSwap(false, true) {
			node.ServeHTTP(httptest.NewRecorder(), r)
			http.Error(w, "injected import failure", http.StatusInternalServerError)
			return
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(jts.Close)
	next, err := NewMap(2, append(append([]Node{}, m.Nodes...), Node{ID: "node-3", URL: jts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Rebalance(context.Background(), next); err == nil {
		t.Fatal("rebalance succeeded through a failed import")
	}
	if rt.Epoch() != 1 {
		t.Fatalf("epoch %d after a failed rebalance, want 1", rt.Epoch())
	}
	stale := len(joiner.Serials())
	if stale == 0 {
		t.Fatal("the failed import left nothing on the joiner; the retry is not tested")
	}

	ingest(3, 4, 5)
	stats, err := rt.Rebalance(context.Background(), next)
	if err != nil {
		t.Fatalf("retried rebalance: %v", err)
	}
	if stats.Moved <= stale {
		t.Fatalf("retry moved %d drives, the failed import alone landed %d", stats.Moved, stale)
	}
	moved := 0
	for _, o := range clusterObs(80, 0) {
		if got := driveDoc(t, ts.URL, o.Serial).LastHour; got != 5 {
			t.Fatalf("drive %s answers hour %d after the retry, want 5", o.Serial, got)
		}
		if next.OwnerID(o.Serial) == "node-3" {
			moved++
		}
	}
	if got := len(joiner.Serials()); got != moved {
		t.Fatalf("joiner holds %d drives, the map assigns it %d", got, moved)
	}
}

// TestRebalanceFlipReleasesGatedBatch holds the joiner's import until a
// batch of only mover records has parked at the copy gate. When the
// gate opens the epoch has flipped, so the batch lands on the new owner
// alone: it acks 200, every mover answers at the batch's hour through
// the router, and the old owners never ingest a record of it.
func TestRebalanceFlipReleasesGatedBatch(t *testing.T) {
	nodes, m := startCluster(t, 3)
	rt, ts := startRouter(t, m)
	for h := 0; h < 3; h++ {
		if code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(80, h))); code != http.StatusOK {
			t.Fatalf("hour %d ingest status %d: %v", h, code, doc)
		}
	}

	node := server.New(testStore(t), server.Config{}).Handler()
	importing := make(chan struct{})
	var hold sync.Once
	jts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/admin/import" {
			// The first import waits until the mover batch has parked.
			hold.Do(func() {
				close(importing)
				deadline := time.Now().Add(10 * time.Second)
				for rt.m.gatedRequests.Load() < 1 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			})
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(jts.Close)
	next, err := NewMap(2, append(append([]Node{}, m.Nodes...), Node{ID: "node-3", URL: jts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	var movers []fleet.Observation
	for _, o := range clusterObs(80, 3) {
		if next.OwnerID(o.Serial) == "node-3" {
			movers = append(movers, o)
		}
	}
	before := make([]float64, len(nodes))
	for i, n := range nodes {
		before[i] = rowCounters(t, n.ts.URL)["rows_ingested"]
	}

	rebalanced := make(chan error, 1)
	go func() {
		_, err := rt.Rebalance(context.Background(), next)
		rebalanced <- err
	}()
	select {
	case <-importing:
	case err := <-rebalanced:
		t.Fatalf("rebalance ended before the joiner's import: %v", err)
	}
	code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(movers))
	if code != http.StatusOK {
		t.Fatalf("gated batch status %d: %v", code, doc)
	}
	checkAck(t, doc, len(movers), len(movers))
	if err := <-rebalanced; err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rt.m.gatedRequests.Load() < 1 {
		t.Fatal("the mover batch never parked at the copy gate")
	}
	for _, o := range movers {
		if got := driveDoc(t, ts.URL, o.Serial).LastHour; got != 3 {
			t.Fatalf("mover %s answers hour %d, want 3", o.Serial, got)
		}
	}
	for i, n := range nodes {
		if got := rowCounters(t, n.ts.URL)["rows_ingested"]; got != before[i] {
			t.Errorf("old owner %s rows_ingested %v → %v: it ingested the gated mover batch", n.id, before[i], got)
		}
	}
}
