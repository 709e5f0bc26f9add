package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/learn"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

func TestModelStatusWithoutRetrainer(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Status is always served: every store has a model version.
	resp, err := http.Get(ts.URL + "/v1/models/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status = %d, want 200", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if doc["active_version"].(float64) != 1 || doc["retrain_enabled"].(bool) {
		t.Fatalf("status = %v, want active_version 1 with retraining disabled", doc)
	}
	if doc["last_retrain"] != nil {
		t.Fatalf("last_retrain = %v before any cycle, want absent/null", doc["last_retrain"])
	}
	if len(doc["groups"].([]any)) != 1 {
		t.Fatalf("groups = %v, want the 1 trained model", doc["groups"])
	}

	// The trigger endpoint only exists when a retrainer is wired.
	resp2, err := http.Post(ts.URL+"/v1/admin/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("retrain without retrainer = %d, want 404", resp2.StatusCode)
	}
}

// TestModelStatusMixedStore: each group carries its device class, so a
// mixed fleet's two "group 1"s are told apart, and the version and
// groups reported after a one-class swap come from the one new set.
func TestModelStatusMixedStore(t *testing.T) {
	models, norm := testModels()
	ssd := models[0]
	ssd.Class, ssd.Type = smart.SSD, core.BadSector
	store, err := fleet.FromSet(monitor.ModelSet{
		Models: append(models, ssd),
		Norms:  [smart.NumClasses]*smart.Normalizer{smart.HDD: norm, smart.SSD: norm},
	}, fleet.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Config{}).Handler())
	defer ts.Close()
	status := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/models/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc := decodeJSON(t, resp.Body)
		out := fmt.Sprintf("v%v", doc["active_version"])
		for _, g := range doc["groups"].([]any) {
			gm := g.(map[string]any)
			out += fmt.Sprintf(" %v/%v/%v", gm["class"], gm["group"], gm["type"])
		}
		return out
	}
	if got, want := status(), "v1 hdd/1/logical ssd/1/bad-sector"; got != want {
		t.Fatalf("status = %q, want %q", got, want)
	}
	hdd := models[0]
	hdd.Type = core.ReadWriteHead
	next := monitor.ModelSet{Version: 2, Models: []monitor.GroupModel{hdd}, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: norm}}
	if err := store.SwapModels(next); err != nil {
		t.Fatal(err)
	}
	if got, want := status(), "v2 hdd/1/read/write-head ssd/1/bad-sector"; got != want {
		t.Fatalf("status after an HDD-only swap = %q, want %q", got, want)
	}
}

func TestRetrainEndpointSkippedCycle(t *testing.T) {
	store := testStore(t, fleet.Config{Shards: 2, HistoryHours: 100, Monitor: monitor.Config{Smoothing: 1}})
	// No Promote hook: the cycle evaluates only, which is all a fleet
	// this small can reach anyway (the cohort guard skips it first).
	srv := New(store, Config{Retrain: &learn.Retrainer{
		Store: store,
		Cfg:   learn.Config{Core: core.Config{Seed: 1}},
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A couple of drives with short histories: the cycle runs, reports a
	// skipped promotion, and the result is surfaced on the status page.
	body := ingestBody(t,
		[3]any{"SER-1", 0, 0.9},
		[3]any{"SER-1", 1, 0.9},
		[3]any{"SER-2", 0, 0.9},
	)
	if resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		ack := decodeJSON(t, resp.Body)
		resp.Body.Close()
		if ack["model_version"].(float64) != 1 {
			t.Fatalf("ingest ack model_version = %v, want 1", ack["model_version"])
		}
	}

	resp, err := http.Post(ts.URL+"/v1/admin/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %d, want 200", resp.StatusCode)
	}
	res := decodeJSON(t, resp.Body)
	if res["promoted"].(bool) {
		t.Fatalf("tiny fleet promoted: %v", res)
	}
	if res["reason"] == "" || res["serving_version"].(float64) != 1 {
		t.Fatalf("cycle result = %v", res)
	}

	// Status now reports the cycle and still serves version 1.
	resp2, err := http.Get(ts.URL + "/v1/models/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	doc := decodeJSON(t, resp2.Body)
	if doc["active_version"].(float64) != 1 || !doc["retrain_enabled"].(bool) {
		t.Fatalf("status = %v, want active_version 1 with retraining enabled", doc)
	}
	last, ok := doc["last_retrain"].(map[string]any)
	if !ok || last["promoted"].(bool) {
		t.Fatalf("last_retrain = %v, want the skipped cycle", doc["last_retrain"])
	}

	// The metrics models section tallies the cycle and the batch version.
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	met := decodeJSON(t, resp3.Body)
	mm := met["models"].(map[string]any)
	if mm["retrains"].(float64) != 1 || mm["promotions"].(float64) != 0 || mm["active_version"].(float64) != 1 {
		t.Fatalf("metrics models = %v", mm)
	}
	if mm["batches_by_version"].(map[string]any)["v1"].(float64) != 1 {
		t.Fatalf("batches_by_version = %v, want v1: 1", mm["batches_by_version"])
	}
}
