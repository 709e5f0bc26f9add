package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/server"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// rowCounters reads a node's /metrics ingest row counters.
func rowCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Ingest map[string]float64 `json:"ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for k, v := range doc.Ingest {
		if strings.HasPrefix(k, "rows_") {
			rows[k] = v
		}
	}
	return rows
}

// checkNothingApplied requires every node's store to be empty and its
// ingest row counters to read zero.
func checkNothingApplied(t *testing.T, nodes []testNode) {
	t.Helper()
	for _, n := range nodes {
		if d := n.store.Summary(0).Drives; d != 0 {
			t.Errorf("node %s stores %d drives", n.id, d)
		}
		for k, v := range rowCounters(t, n.ts.URL) {
			if v != 0 {
				t.Errorf("node %s /metrics ingest %s = %v, want 0", n.id, k, v)
			}
		}
	}
}

// TestRouterRejectsTrailingJSON: a body holding two top-level values is
// refused whole, as a node refuses it, instead of the first value being
// acknowledged and the second dropped.
func TestRouterRejectsTrailingJSON(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	body := append(jsonBody(t, clusterObs(4, 0)), jsonBody(t, clusterObs(4, 1))...)
	code, doc := postIngest(t, ts.URL, "application/json", body)
	if code != http.StatusBadRequest || doc["quality"] == nil {
		t.Fatalf("two top-level values: status %d doc %v, want a node-shaped 400", code, doc)
	}
	checkNothingApplied(t, nodes)
}

// TestRouterMalformedRecordAppliesNothing: a batch whose second record
// carries an unknown field is one a node rejects whole. Through the
// router it must be rejected whole too — no sub-batch forwarded to the
// valid record's owner first — so the 400's "nothing ingested" ledger
// is true on every node.
func TestRouterMalformedRecordAppliesNothing(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	var a, b string
	for _, o := range clusterObs(16, 0) {
		switch {
		case a == "":
			a = o.Serial
		case m.OwnerIndex([]byte(o.Serial)) != m.OwnerIndex([]byte(a)):
			b = o.Serial
		}
	}
	if b == "" {
		t.Fatal("no two serials with different owners")
	}
	rec := func(serial, extra string) string {
		return fmt.Sprintf(`{"serial":%q,"hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]%s}`, serial, extra)
	}
	body := `{"records":[` + rec(a, "") + "," + rec(b, `,"huor":3`) + `]}`

	code, doc := postIngest(t, ts.URL, "application/json", []byte(body))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d doc %v, want 400", code, doc)
	}
	q := doc["quality"].(map[string]any)
	if q["rows_read"].(float64) != 0 || q["rows_kept"].(float64) != 0 {
		t.Fatalf("400 ledger %v, want nothing ingested", q)
	}
	checkNothingApplied(t, nodes)
}

// TestRouterRejectsMalformedJSONWithoutNodes: the router judges a
// malformed JSON body itself, as it does a torn frame, so a client error
// stays a 400 while no node is reachable instead of turning into a 502.
func TestRouterRejectsMalformedJSONWithoutNodes(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	for _, n := range nodes {
		n.ts.Close()
	}
	for _, body := range []string{
		`{"records": [`,
		`{"records":[]}{"records":[]}`,
		`{"records":[{"serial":"a","hour":0,"huor":3}]}`,
	} {
		code, doc := postIngest(t, ts.URL, "application/json", []byte(body))
		if code != http.StatusBadRequest || doc["quality"] == nil {
			t.Errorf("%s: status %d doc %v, want a node-shaped 400", body, code, doc)
		}
	}
}

// TestRouterMixedClassBinaryMatchesDirect routes a mixed HDD+SSD batch,
// which frames as wire version 2, and requires the merged ack, the
// summary and every drive's state to equal one node ingesting the same
// frame directly.
func TestRouterMixedClassBinaryMatchesDirect(t *testing.T) {
	obs := make([]fleet.Observation, 48)
	for d := range obs {
		obs[d] = testObs(fmt.Sprintf("v2-%04d", d%19), d/19, -0.9+0.04*float64(d))
		if d%3 == 0 {
			obs[d].Class = smart.SSD
		}
	}
	frame := wire.EncodeBatch(obs)
	if frame[0] != wire.Version2 {
		t.Fatalf("mixed batch framed as version %d, want %d", frame[0], wire.Version2)
	}
	_, m := startClusterOf(t, 3, mixedStore)
	_, routed := startRouter(t, m)
	direct := httptest.NewServer(server.New(mixedStore(t), server.Config{}).Handler())
	t.Cleanup(direct.Close)

	code, got := postIngest(t, routed.URL, wire.ContentType, frame)
	if code != http.StatusOK {
		t.Fatalf("routed v2 ingest: status %d: %v", code, got)
	}
	code, want := postIngest(t, direct.URL, wire.ContentType, frame)
	if code != http.StatusOK {
		t.Fatalf("direct v2 ingest: status %d: %v", code, want)
	}
	for _, key := range []string{"ingested", "kept", "quarantined", "quality"} {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Errorf("ack %s: routed %v, direct %v", key, got[key], want[key])
		}
	}
	if len(got["alerts"].([]any)) != len(want["alerts"].([]any)) {
		t.Errorf("routed ack carries %d alerts, direct %d", len(got["alerts"].([]any)), len(want["alerts"].([]any)))
	}
	for _, key := range []string{"drives", "by_severity", "by_class", "at_risk"} {
		if g, w := getSummary(t, routed.URL, 50)[key], getSummary(t, direct.URL, 50)[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("summary %s: routed %v, direct %v", key, g, w)
		}
	}
}

// TestRankAtRiskNullDegradationLast: a node renders the +Inf
// degradation of a drive whose windows a model swap emptied as null,
// and the merged at-risk list must rank it last, not as 0.
func TestRankAtRiskNullDegradationLast(t *testing.T) {
	var sum wire.Summary
	if err := json.Unmarshal([]byte(`{"at_risk":[{"serial":"b","degradation":null},{"serial":"c","degradation":0.3},`+
		`{"serial":"a","degradation":-0.5},{"serial":"d","degradation":0.7}]}`), &sum); err != nil {
		t.Fatal(err)
	}
	sum.Rank(10)
	var got []string
	for _, d := range sum.AtRisk {
		got = append(got, d.Serial)
	}
	if want := []string{"a", "c", "d", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ranked %v, want %v", got, want)
	}
}

// TestRouterAckModelVersion: the merged ack carries the model version
// every node part reported, and none while the parts disagree, as after
// a promotion that has reached only one node.
func TestRouterAckModelVersion(t *testing.T) {
	nodes, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	swap := func(n testNode, version int) {
		t.Helper()
		set := n.store.ModelSet()
		set.Version = version
		if err := n.store.SwapModels(set); err != nil {
			t.Fatal(err)
		}
	}
	owners := map[int]bool{}
	for _, o := range clusterObs(16, 0) {
		owners[m.OwnerIndex([]byte(o.Serial))] = true
	}
	if len(owners) != 2 {
		t.Fatalf("the batch reaches %d nodes, want both", len(owners))
	}
	for i, tc := range []struct {
		swap func()
		want any // the ack's model_version; nil means absent
	}{
		{func() {}, 1.0},
		{func() { swap(nodes[0], 2) }, nil},
		{func() { swap(nodes[1], 2) }, 2.0},
	} {
		tc.swap()
		code, doc := postIngest(t, ts.URL, "application/json", jsonBody(t, clusterObs(16, i)))
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d: %v", i, code, doc)
		}
		if got, ok := doc["model_version"]; got != tc.want || ok != (tc.want != nil) {
			t.Errorf("step %d: model_version = %v (present %v), want %v", i, got, ok, tc.want)
		}
	}
}
