package route

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// rampPredictor scores records by their RRER value directly, the same
// idiom the fleet and server tests use.
type rampPredictor struct{}

func (rampPredictor) Predict(x []float64) float64 { return x[smart.RRER] }

// The handoff plane ships states as gob bootstrap images, so the test
// predictor must be registered like any real model's would be.
func init() { gob.Register(rampPredictor{}) }

func testNormalizer() *smart.Normalizer {
	norm := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	norm.Observe(lo)
	norm.Observe(hi)
	return norm
}

func testStore(t testing.TB) *fleet.Store {
	t.Helper()
	norm := testNormalizer()
	models := []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: rampPredictor{},
	}}
	s, err := fleet.New(models, norm, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testNode is one in-process cluster node: a real internal/server over
// a real store, on a loopback httptest listener.
type testNode struct {
	id    string
	store *fleet.Store
	ts    *httptest.Server
}

func startCluster(t *testing.T, n int) ([]testNode, *Map) {
	t.Helper()
	return startClusterOf(t, n, testStore)
}

// startClusterOf is startCluster with every node's store built by
// newStore.
func startClusterOf(t *testing.T, n int, newStore func(testing.TB) *fleet.Store) ([]testNode, *Map) {
	t.Helper()
	nodes := make([]testNode, n)
	mapNodes := make([]Node, n)
	for i := range nodes {
		store := newStore(t)
		srv := server.New(store, server.Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		id := fmt.Sprintf("node-%d", i)
		nodes[i] = testNode{id: id, store: store, ts: ts}
		mapNodes[i] = Node{ID: id, URL: ts.URL}
	}
	m, err := NewMap(1, mapNodes)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, m
}

func startRouter(t *testing.T, m *Map) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(Config{Map: m, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// testObs builds one observation with the score in the RRER slot.
func testObs(serial string, hour int, score float64) fleet.Observation {
	var v smart.Values
	v[smart.RRER] = score
	return fleet.Observation{Serial: serial, Record: smart.Record{Hour: hour, Values: v}}
}

func jsonBody(t *testing.T, obs []fleet.Observation) []byte {
	t.Helper()
	type rec struct {
		Serial string    `json:"serial"`
		Class  string    `json:"class,omitempty"`
		Hour   int       `json:"hour"`
		Values []float64 `json:"values"`
	}
	rs := make([]rec, len(obs))
	for i, o := range obs {
		rs[i] = rec{Serial: o.Serial, Hour: o.Record.Hour, Values: o.Record.Values[:]}
		if o.Class != smart.HDD {
			rs[i].Class = o.Class.String()
		}
	}
	body, err := json.Marshal(map[string]any{"records": rs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postIngest(t *testing.T, url, ct string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, doc
}

func clusterObs(n int, hour int) []fleet.Observation {
	obs := make([]fleet.Observation, n)
	for i := range obs {
		obs[i] = testObs(fmt.Sprintf("rt-%04d", i), hour, 0.5)
	}
	return obs
}

// checkAck asserts the merged ack balances: ingested == sent ==
// kept + quarantined.
func checkAck(t *testing.T, doc map[string]any, sent, kept int) {
	t.Helper()
	if int(doc["ingested"].(float64)) != sent {
		t.Fatalf("ingested = %v, want %d (doc %v)", doc["ingested"], sent, doc)
	}
	if int(doc["kept"].(float64)) != kept {
		t.Fatalf("kept = %v, want %d (doc %v)", doc["kept"], kept, doc)
	}
	if int(doc["quarantined"].(float64)) != sent-kept {
		t.Fatalf("quarantined = %v, want %d", doc["quarantined"], sent-kept)
	}
}

func TestRouterSplitsIngestAcrossOwners(t *testing.T) {
	for _, tc := range []struct {
		name string
		ct   string
		body func(*testing.T, []fleet.Observation) []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", wire.ContentType, func(t *testing.T, obs []fleet.Observation) []byte {
			return wire.EncodeBatch(obs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, m := startCluster(t, 3)
			_, ts := startRouter(t, m)

			obs := clusterObs(60, 0)
			code, doc := postIngest(t, ts.URL, tc.ct, tc.body(t, obs))
			if code != http.StatusOK {
				t.Fatalf("ingest status %d: %v", code, doc)
			}
			checkAck(t, doc, 60, 60)

			// Every record landed on exactly the node the map owns it to.
			total := 0
			for i, n := range nodes {
				got := n.store.Summary(0).Drives
				want := 0
				for _, o := range obs {
					if m.OwnerID(o.Serial) == n.id {
						want++
					}
				}
				if got != want {
					t.Fatalf("node %d holds %d drives, map assigns %d", i, got, want)
				}
				total += got
			}
			if total != 60 {
				t.Fatalf("cluster holds %d drives, want 60", total)
			}

			// Reads route to the owner through the router.
			for _, o := range obs[:10] {
				resp, err := http.Get(ts.URL + "/v1/drives/" + o.Serial)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("drive %s status %d via router", o.Serial, resp.StatusCode)
				}
				resp.Body.Close()
			}
		})
	}
}

// A record the store quarantines (non-finite score) must still balance
// in the merged ack, and the defect must surface in the merged ledger.
func TestRouterMergesQuarantineAccounting(t *testing.T) {
	_, m := startCluster(t, 3)
	_, ts := startRouter(t, m)

	obs := clusterObs(12, 0)
	body := jsonBody(t, obs)
	// Null out one record's values: missing-at-source, NaN on the node,
	// store-side quarantine.
	var req struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.Records[3]["values"] = nil
	mut, _ := json.Marshal(map[string]any{"records": req.Records})

	code, doc := postIngest(t, ts.URL, "application/json", mut)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, doc)
	}
	checkAck(t, doc, 12, 12-1)
	q := doc["quality"].(map[string]any)
	if int(q["rows_read"].(float64)) != 12 || int(q["rows_quarantined"].(float64)) != 1 {
		t.Fatalf("merged ledger %v, want 12 read / 1 quarantined", q)
	}
}

// A JSON record whose serial is past wire.MaxSerialLen is routed to
// its owner like any other and quarantined there; the rest of the
// batch is kept.
func TestRouterQuarantinesOverlongSerial(t *testing.T) {
	_, m := startCluster(t, 2)
	_, ts := startRouter(t, m)

	obs := []fleet.Observation{testObs(strings.Repeat("L", wire.MaxSerialLen+1), 0, 0.5), testObs("rt-clean", 0, 0.5)}
	code, doc := postIngest(t, ts.URL, "application/json", jsonBody(t, obs))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, doc)
	}
	checkAck(t, doc, 2, 1)
	if n := doc["quality"].(map[string]any)["by_kind"].(map[string]any)["bad-field"]; n != 1.0 {
		t.Fatalf("merged ledger has %v bad-field issues, want 1: %v", n, doc["quality"])
	}
	resp, err := http.Get(ts.URL + "/v1/drives/rt-clean")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET clean drive: status %d, want 200", resp.StatusCode)
	}
}

// A body a node would reject is rejected at the router with the node's
// 400 and ledger shape, and so are unsupported content types.
func TestRouterIngestErrorContract(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)

	code, doc := postIngest(t, ts.URL, "application/json", []byte(`{"records": [`))
	if code != http.StatusBadRequest || doc["quality"] == nil {
		t.Fatalf("truncated JSON: status %d doc %v, want node-shaped 400", code, doc)
	}

	code, doc = postIngest(t, ts.URL, "text/csv", []byte("a,b\n"))
	if code != http.StatusUnsupportedMediaType {
		t.Fatalf("csv status %d: %v", code, doc)
	}

	// A torn binary frame is the router's own 400: it cannot split what
	// it cannot checksum, and no node should see any part of it.
	frame := wire.EncodeBatch(clusterObs(4, 0))
	code, doc = postIngest(t, ts.URL, wire.ContentType, frame[:len(frame)-3])
	if code != http.StatusBadRequest || doc["quality"] == nil {
		t.Fatalf("torn frame: status %d doc %v", code, doc)
	}

	// A body one byte past the router's 8 MiB cap is a 413.
	code, doc = postIngest(t, ts.URL, "application/json", bytes.Repeat([]byte(" "), 8<<20+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d doc %v, want 413", code, doc)
	}
	checkNothingApplied(t, nodes)
}

func TestRouterSummaryMerge(t *testing.T) {
	_, m := startCluster(t, 3)
	_, ts := startRouter(t, m)

	obs := clusterObs(30, 0)
	// Push one drive to an alerting score so at_risk is non-empty.
	obs = append(obs, testObs("rt-risky", 4, 0.99))
	code, doc := postIngest(t, ts.URL, "application/json", jsonBody(t, obs))
	if code != http.StatusOK {
		t.Fatalf("ingest status %d: %v", code, doc)
	}

	resp, err := http.Get(ts.URL + "/v1/fleet/summary?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if int(sum["drives"].(float64)) != 31 {
		t.Fatalf("merged drives = %v, want 31", sum["drives"])
	}
	if int(sum["max_hour"].(float64)) != 4 {
		t.Fatalf("merged max_hour = %v, want 4", sum["max_hour"])
	}
	if nodes := sum["nodes"].([]any); len(nodes) != 3 {
		t.Fatalf("summary lists %d nodes, want 3", len(nodes))
	}
	q := sum["quality"].(map[string]any)
	if int(q["rows_read"].(float64)) != 31 {
		t.Fatalf("merged summary ledger reads %v rows, want 31", q["rows_read"])
	}
}

func TestRouterMetricsAndHealth(t *testing.T) {
	nodes, m := startCluster(t, 2)
	rt, ts := startRouter(t, m)

	code, _ := postIngest(t, ts.URL, "application/json", jsonBody(t, clusterObs(8, 0)))
	if code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	router := doc["router"].(map[string]any)
	if int(router["records_routed"].(float64)) != 8 {
		t.Fatalf("records_routed = %v, want 8", router["records_routed"])
	}
	if len(doc["nodes"].(map[string]any)) != 2 {
		t.Fatalf("metrics cover %v nodes, want 2", doc["nodes"])
	}

	rt.ForceProbe()
	resp, err = http.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready status %d with all nodes up", resp.StatusCode)
	}

	// Kill a node: the cluster is degraded and says so.
	nodes[0].ts.Close()
	rt.ForceProbe()
	resp, err = http.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready status %d with a node down, want 503", resp.StatusCode)
	}
}

// TestRebalanceJoin walks the full live handoff: a populated 3-node
// cluster absorbs a fourth node, every moved serial keeps answering
// through the router, lands intact on its new owner, and is gone from
// its old one.
func TestRebalanceJoin(t *testing.T) {
	nodes, m := startCluster(t, 3)
	rt, ts := startRouter(t, m)

	obs := clusterObs(80, 0)
	for hour := 0; hour < 3; hour++ {
		code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(80, hour)))
		if code != http.StatusOK {
			t.Fatalf("hour %d ingest status %d: %v", hour, code, doc)
		}
	}

	// Join node-3.
	joiner := testStore(t)
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
	if stats.Moved == 0 || stats.Transfers == 0 {
		t.Fatalf("rebalance stats %+v, want movement", stats)
	}
	if rt.Epoch() != 2 {
		t.Fatalf("epoch %d after rebalance, want 2", rt.Epoch())
	}

	// Every serial answers through the router with its full history.
	moved := 0
	for _, o := range obs {
		resp, err := http.Get(ts.URL + "/v1/drives/" + o.Serial)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drive %s status %d after rebalance: %v", o.Serial, resp.StatusCode, doc)
		}
		if doc["last_hour"].(float64) != 2 {
			t.Fatalf("drive %s last_hour %v after rebalance, want 2", o.Serial, doc["last_hour"])
		}
		if next.OwnerID(o.Serial) == "node-3" {
			moved++
		}
	}
	if got := joiner.Summary(0).Drives; got != moved {
		t.Fatalf("joiner holds %d drives, map assigns %d", got, moved)
	}
	// Old owners no longer answer for moved serials.
	for _, o := range obs {
		if next.OwnerID(o.Serial) != "node-3" {
			continue
		}
		old := m.OwnerIndex([]byte(o.Serial))
		resp, err := http.Get(nodes[old].ts.URL + "/v1/drives/" + o.Serial)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("moved drive %s still answers %d on its old owner", o.Serial, resp.StatusCode)
		}
	}

	// Post-cutover ingest routes by the new map.
	code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(80, 3)))
	if code != http.StatusOK {
		t.Fatalf("post-rebalance ingest status %d: %v", code, doc)
	}
	checkAck(t, doc, 80, 80)
}

func TestRebalanceRejectsStaleEpoch(t *testing.T) {
	_, m := startCluster(t, 2)
	rt, ts := startRouter(t, m)

	stale := &Map{Epoch: 1, Nodes: m.Nodes}
	if _, err := rt.Rebalance(context.Background(), stale); err == nil {
		t.Fatal("rebalance accepted a non-advancing epoch")
	}

	// The HTTP surface maps validation failures to 400.
	body, _ := json.Marshal(stale)
	resp, err := http.Post(ts.URL+"/v1/cluster/rebalance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale rebalance status %d, want 400", resp.StatusCode)
	}
}

// TestRebalanceOverHTTPWithLiveTraffic drives the cutover through the
// HTTP control plane while an ingest stream is running: every post is
// acked, no acked record is lost, the nodes partition the fleet, and
// the cluster status surface reads idle at the new epoch.
func TestRebalanceOverHTTPWithLiveTraffic(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)

	// Seed state so the handoff has something to bulk-copy; the goroutine
	// then keeps the stream alive across the cutover.
	for hour := 0; hour < 2; hour++ {
		if code, doc := postIngest(t, ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(40, hour))); code != http.StatusOK {
			t.Fatalf("seed ingest status %d: %v", code, doc)
		}
	}

	stop := make(chan struct{})
	ingestErr := make(chan error, 1)
	lastHour := 1 // the last hour the stream had acked, read after ingestErr closes
	go func() {
		defer close(ingestErr)
		for hour := 2; ; hour++ {
			select {
			case <-stop:
				return
			default:
			}
			code, doc := postIngestNoFatal(ts.URL, wire.ContentType, wire.EncodeBatch(clusterObs(40, hour)))
			if code != http.StatusOK {
				ingestErr <- fmt.Errorf("live ingest status %d: %v", code, doc)
				return
			}
			lastHour = hour
		}
	}()

	joinerStore := testStore(t)
	joiner := httptest.NewServer(server.New(joinerStore, server.Config{}).Handler())
	t.Cleanup(joiner.Close)
	next, err := NewMap(2, append(append([]Node{}, m.Nodes...), Node{ID: "node-2", URL: joiner.URL}))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(next)
	resp, err := http.Post(ts.URL+"/v1/cluster/rebalance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var stats RebalanceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status %d", resp.StatusCode)
	}
	close(stop)
	if err := <-ingestErr; err != nil {
		t.Fatal(err)
	}
	if stats.Moved == 0 {
		t.Fatalf("stats %+v, want movement", stats)
	}

	// No acked record was lost across the cutover, and the three nodes
	// partition the fleet: every drive lives on exactly one of them.
	for _, o := range clusterObs(40, 0) {
		if got := driveDoc(t, ts.URL, o.Serial).LastHour; got != lastHour {
			t.Fatalf("drive %s answers hour %d through the router, the stream acked hour %d", o.Serial, got, lastHour)
		}
	}
	holder := map[string]int{}
	for i, store := range []*fleet.Store{nodes[0].store, nodes[1].store, joinerStore} {
		for _, serial := range store.Serials() {
			if j, ok := holder[serial]; ok {
				t.Fatalf("drive %s is held by nodes %d and %d", serial, j, i)
			}
			holder[serial] = i
		}
	}
	if len(holder) != 40 {
		t.Fatalf("the nodes hold %d drives between them, want 40", len(holder))
	}

	resp, err = http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if int(status["epoch"].(float64)) != 2 || status["stage"] != "idle" {
		t.Fatalf("cluster status %v, want idle at epoch 2", status)
	}
}

func postIngestNoFatal(url, ct string, body []byte) (int, map[string]any) {
	resp, err := http.Post(url+"/v1/ingest", ct, bytes.NewReader(body))
	if err != nil {
		return 0, map[string]any{"error": err.Error()}
	}
	defer resp.Body.Close()
	var doc map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}
