package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// mixedStore serves HDD and SSD drives, each class scored by its own
// ramp model with a distinct failure type, so by_class and
// alerting_by_type both split by class.
func mixedStore(t testing.TB) *fleet.Store {
	t.Helper()
	model := func(class smart.DeviceClass, typ core.FailureType) monitor.GroupModel {
		return monitor.GroupModel{Class: class, Group: 1, Type: typ, Form: regression.FormQuadratic,
			WindowD: 12, Predictor: rampPredictor{}}
	}
	models := []monitor.GroupModel{model(smart.HDD, core.Logical), model(smart.SSD, core.BadSector)}
	set := monitor.ModelSet{Models: models, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer(), smart.SSD: testNormalizer()}}
	s, err := fleet.FromSet(set, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func getSummary(t *testing.T, url string, topN int) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/fleet/summary?top=%d", url, topN))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status %d: %v", resp.StatusCode, doc)
	}
	return doc
}

func atRiskSerials(list any) []string {
	var out []string
	for _, e := range list.([]any) {
		out = append(out, e.(map[string]any)["serial"].(string))
	}
	return out
}

// TestRouterSummaryRanksWorstFirst pins the merged at-risk order to the
// nodes' own: most degraded first.
func TestRouterSummaryRanksWorstFirst(t *testing.T) {
	_, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	obs := make([]fleet.Observation, 40)
	for i := range obs {
		obs[i] = testObs(fmt.Sprintf("rt-%04d", i), 0, -1+0.05*float64(i))
	}
	if code, doc := postIngest(t, ts.URL, "application/json", jsonBody(t, obs)); code != http.StatusOK {
		t.Fatalf("ingest status %d: %v", code, doc)
	}
	got := atRiskSerials(getSummary(t, ts.URL, 3)["at_risk"])
	if want := []string{"rt-0000", "rt-0001", "rt-0002"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("routed at_risk = %v, want %v", got, want)
	}
}

// TestRouterSummaryMatchesSingleStore requires the routed summary of a
// mixed-class fleet with tied degradations to equal the summary of one
// store holding every drive, at-risk order, per-class roll-up and
// ledger included: the whole document but the parts that name the
// cluster's layout (the node's shards, the router's nodes and epoch).
func TestRouterSummaryMatchesSingleStore(t *testing.T) {
	levels := [...]float64{-0.9, -0.6, -0.2, 0.3, 0.8}
	obs := make([]fleet.Observation, 60)
	for d := range obs {
		obs[d] = testObs(fmt.Sprintf("mx-%04d", (d*37)%101), d%7, levels[d%len(levels)])
		if d%3 == 0 {
			obs[d].Class = smart.SSD
		}
	}
	_, m := startClusterOf(t, 3, mixedStore)
	_, routed := startRouter(t, m)
	if code, doc := postIngest(t, routed.URL, "application/json", jsonBody(t, obs)); code != http.StatusOK {
		t.Fatalf("ingest status %d: %v", code, doc)
	}
	single := mixedStore(t)
	single.IngestBatch(obs)
	ref := httptest.NewServer(server.New(single, server.Config{}).Handler())
	t.Cleanup(ref.Close)

	for _, topN := range []int{0, 1, 4, 13, len(obs) + 2} {
		got, want := getSummary(t, routed.URL, topN), getSummary(t, ref.URL, topN)
		for _, key := range []string{"nodes", "epoch"} {
			if _, ok := got[key]; !ok {
				t.Errorf("top=%d: routed summary has no %s", topN, key)
			}
			delete(got, key)
		}
		delete(want, "shards")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("top=%d: routed summary\n%v\nwant\n%v", topN, got, want)
		}
	}
}

// TestRouterSummaryTopParameter: the router parses ?top= as a node
// does, a decimal n >= 0 with an empty value meaning wire.DefaultTop, and
// answers anything else with a 400 of its own.
func TestRouterSummaryTopParameter(t *testing.T) {
	_, m := startCluster(t, 2)
	_, ts := startRouter(t, m)
	if code, doc := postIngest(t, ts.URL, "application/json", jsonBody(t, clusterObs(12, 0))); code != http.StatusOK {
		t.Fatalf("ingest status %d: %v", code, doc)
	}
	for _, tc := range []struct {
		top    string
		status int
		atRisk int
	}{
		{"5abc", http.StatusBadRequest, 0}, {"5.9", http.StatusBadRequest, 0},
		{"0x10", http.StatusBadRequest, 0}, {"1e3", http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0}, {"x", http.StatusBadRequest, 0},
		{"", http.StatusOK, 10}, {"0", http.StatusOK, 0}, {"7", http.StatusOK, 7},
	} {
		resp, err := http.Get(ts.URL + "/v1/fleet/summary?top=" + url.QueryEscape(tc.top))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("top=%q: status %d, want %d (%v)", tc.top, resp.StatusCode, tc.status, doc)
			continue
		}
		if tc.status == http.StatusOK && len(doc["at_risk"].([]any)) != tc.atRisk {
			t.Errorf("top=%q: %d at-risk drives, want %d", tc.top, len(doc["at_risk"].([]any)), tc.atRisk)
		}
	}
}

// TestRouterSummaryNamesFirstFailingNode: with nodes down, the summary
// fails with 502 naming the first failing node in node order, however
// the concurrent node requests finish.
func TestRouterSummaryNamesFirstFailingNode(t *testing.T) {
	nodes, m := startCluster(t, 3)
	_, ts := startRouter(t, m)
	nodes[1].ts.Close()
	nodes[2].ts.Close()
	resp, err := http.Get(ts.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	msg, _ := doc["error"].(string)
	if resp.StatusCode != http.StatusBadGateway || !strings.HasPrefix(msg, "summary from node node-1:") {
		t.Fatalf("summary with nodes 1 and 2 down = %d %q, want 502 naming node-1", resp.StatusCode, msg)
	}
}
