package loadgen

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios.golden.json with the observed scenario reports")

// scenarioGoldenPath holds TestScenariosEndToEnd's deterministic fields.
const scenarioGoldenPath = "testdata/scenarios.golden.json"

// scenarioGolden is the part of a scenario report that two runs with
// the same seed must agree on. Timing fields stay out, and so does any
// count that depends on timing.
type scenarioGolden struct {
	WorkloadFingerprint string                 `json:"workload_fingerprint"`
	SummaryFingerprint  string                 `json:"summary_fingerprint,omitempty"`
	Drives              int                    `json:"drives"`
	Records             int                    `json:"records"`
	Alerts              int                    `json:"alerts"`
	Phases              map[string]phaseGolden `json:"phases"`
	Rebalance           *rebalanceGolden       `json:"rebalance,omitempty"`
	Drift               *driftGolden           `json:"drift,omitempty"`
}

type phaseGolden struct {
	RecordsSent        int            `json:"records_sent"`
	RecordsKept        int            `json:"records_kept"`
	RecordsQuarantined int            `json:"records_quarantined"`
	ModelVersions      map[string]int `json:"model_versions,omitempty"`
}

type rebalanceGolden struct {
	JoinMoved      int `json:"join_moved"`
	JoinTransfers  int `json:"join_transfers"`
	DrainMoved     int `json:"drain_moved"`
	DrainTransfers int `json:"drain_transfers"`
}

type driftGolden struct {
	PromotedVersion int    `json:"promoted_version"`
	Fingerprint     string `json:"fingerprint"`
}

// timedVersions names the phases whose model-version tallies depend on
// timing: drift's filler runs while the swap lands at an arbitrary
// batch, so how many of its batches each version scored varies.
var timedVersions = map[string]bool{"filler-during-retrain": true}

// goldenOf extracts a report's deterministic fields.
func goldenOf(s *ScenarioReport) scenarioGolden {
	g := scenarioGolden{
		WorkloadFingerprint: s.WorkloadFingerprint, SummaryFingerprint: s.SummaryFingerprint,
		Drives: s.Drives, Records: s.Records, Alerts: s.Alerts,
		Phases: map[string]phaseGolden{},
	}
	for _, p := range s.Phases {
		pg := phaseGolden{RecordsSent: p.RecordsSent, RecordsKept: p.RecordsKept, RecordsQuarantined: p.RecordsQuarantined}
		if !timedVersions[p.Name] {
			pg.ModelVersions = p.ModelVersions
		}
		g.Phases[p.Name] = pg
	}
	if rb := s.Rebalance; rb != nil {
		g.Rebalance = &rebalanceGolden{JoinMoved: rb.JoinMoved, JoinTransfers: rb.JoinTransfers,
			DrainMoved: rb.DrainMoved, DrainTransfers: rb.DrainTransfers}
	}
	if d := s.Drift; d != nil {
		g.Drift = &driftGolden{PromotedVersion: d.PromotedVersion, Fingerprint: d.Fingerprint}
	}
	return g
}

// checkScenarioGoldens compares each scenario's deterministic fields
// with the committed golden file, one subtest per scenario, naming
// every field that differs. With -update it rewrites the file instead.
func checkScenarioGoldens(t *testing.T, reps []*ScenarioReport) {
	got := map[string]scenarioGolden{}
	for _, s := range reps {
		got[s.Name] = goldenOf(s)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(scenarioGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", scenarioGoldenPath)
		return
	}
	data, err := os.ReadFile(scenarioGoldenPath)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/loadgen -run TestScenariosEndToEnd -update' to create it)", err)
	}
	var want map[string]scenarioGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", scenarioGoldenPath, err)
	}
	for _, s := range reps {
		t.Run(s.Name, func(t *testing.T) {
			w, ok := want[s.Name]
			if !ok {
				t.Fatalf("%s has no entry for this scenario (run with -update if it is new)", scenarioGoldenPath)
			}
			gf, wf := flatten(t, got[s.Name]), flatten(t, w)
			keys := make([]string, 0, len(gf)+len(wf))
			for k := range gf {
				keys = append(keys, k)
			}
			for k := range wf {
				if _, ok := gf[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if gf[k] != wf[k] {
					t.Errorf("%s = %s, want %s (run with -update if the change is intentional)", k, orAbsent(gf[k]), orAbsent(wf[k]))
				}
			}
		})
	}
}

// flatten renders v's JSON as one value per dotted field path.
func flatten(t *testing.T, v any) map[string]string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var walk func(path string, x any)
	walk = func(path string, x any) {
		if m, ok := x.(map[string]any); ok {
			for k, y := range m {
				walk(path+"."+k, y)
			}
			return
		}
		out[path[1:]] = fmt.Sprint(x)
	}
	walk("", doc)
	return out
}

func orAbsent(s string) string {
	if s == "" {
		return "(absent)"
	}
	return s
}
