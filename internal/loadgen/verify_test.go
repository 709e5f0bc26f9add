package loadgen

import (
	"fmt"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/smart"
)

func TestAlertKeyFormat(t *testing.T) {
	got := AlertKey("s-1", 42, "critical", 1, "logical", 0.123456789)
	want := "s-1|h42|critical|g1|logical|0.123456789"
	if got != want {
		t.Fatalf("AlertKey = %q, want %q", got, want)
	}
}

func TestSetDiffMultiset(t *testing.T) {
	a := []string{"x", "x", "y"}
	b := []string{"x", "y", "z"}
	if got := setDiff(a, b); len(got) != 1 || got[0] != "x" {
		t.Fatalf("setDiff(a,b) = %v, want [x] (duplicate needs a duplicate)", got)
	}
	if got := setDiff(b, a); len(got) != 1 || got[0] != "z" {
		t.Fatalf("setDiff(b,a) = %v, want [z]", got)
	}
	if got := setDiff(a, a); got != nil {
		t.Fatalf("setDiff(a,a) = %v, want nil", got)
	}
}

func TestCompareAlerts(t *testing.T) {
	if err := CompareAlerts("w", "g", []string{"a", "b"}, []string{"b", "a"}, false); err != nil {
		t.Fatalf("unordered comparison of a permutation failed: %v", err)
	}
	if err := CompareAlerts("w", "g", []string{"a", "b"}, []string{"b", "a"}, true); err == nil {
		t.Fatal("ordered comparison of a permutation passed")
	}
	err := CompareAlerts("w", "g", []string{"a", "b"}, []string{"a"}, false)
	if err == nil {
		t.Fatal("missing alert not detected")
	}
	if !strings.Contains(err.Error(), "missing from g: b") {
		t.Fatalf("diff does not name the missing alert: %v", err)
	}
}

func TestDiffStringsReordersOnly(t *testing.T) {
	d := DiffStrings("w", "g", []string{"a", "b"}, []string{"b", "a"})
	if !strings.Contains(d, "same multiset, different order") {
		t.Fatalf("reorder-only diff not labeled: %s", d)
	}
}

func TestCompareStatesDetectsDivergence(t *testing.T) {
	dep := testDeployment(t)
	mk := func(shards int) *fleet.Store {
		cfg := dep.fleetConfig()
		cfg.Shards = shards
		s, err := fleet.FromSet(dep.Set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	obs := []fleet.Observation{
		{Serial: "d-1", Record: rrerRecord(0, 0.9)},
		{Serial: "d-2", Record: rrerRecord(0, 0.5)},
	}
	a, b := mk(2), mk(16)
	a.IngestBatch(obs)
	b.IngestBatch(obs)
	// Identical ingestion at different shard counts: canonically equal.
	if err := CompareStates("a", "b", CanonicalState(a), CanonicalState(b)); err != nil {
		t.Fatalf("layout-independent states compare unequal: %v", err)
	}
	if fa, fb := StateFingerprint(CanonicalState(a)), StateFingerprint(CanonicalState(b)); fa != fb {
		t.Fatalf("layout-independent fingerprints differ: %s vs %s", fa, fb)
	}
	// One extra observation must be detected and named.
	b.IngestBatch([]fleet.Observation{{Serial: "d-2", Record: rrerRecord(1, 0.4)}})
	err := CompareStates("a", "b", CanonicalState(a), CanonicalState(b))
	if err == nil {
		t.Fatal("diverged states compare equal")
	}
	if !strings.Contains(err.Error(), "d-2") {
		t.Fatalf("divergence does not name the differing drive: %v", err)
	}
	if StateFingerprint(CanonicalState(a)) == StateFingerprint(CanonicalState(b)) {
		t.Fatal("diverged states share a fingerprint")
	}
}

func TestShadowLedgerAccounting(t *testing.T) {
	dep := testDeployment(t)
	sh, err := ShadowFromSet(dep.Set, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		t.Fatal(err)
	}
	wl := WorkloadFromDrives(testDrives(), 4)
	if err := sh.ApplyChunk(wl.Split(2)); err != nil {
		t.Fatal(err)
	}
	if sh.Ingested() != wl.Records() {
		t.Fatalf("shadow ingested %d, want %d", sh.Ingested(), wl.Records())
	}
	if sh.Quarantined() == 0 {
		t.Fatal("poisoned drive not quarantined by shadow")
	}
	if got := sh.State(); len(got.Drives) == 0 {
		t.Fatal("shadow state empty after ingestion")
	}
	if sh.Store().Tracked() == 0 {
		t.Fatal("shadow store tracks no drives")
	}
}

func TestBatchAlertKeysSubmissionOrder(t *testing.T) {
	dep := testDeployment(t)
	store, err := fleet.FromSet(dep.Set, dep.fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A drive that crashes from healthy to dead raises an alert.
	res := store.IngestBatch([]fleet.Observation{
		{Serial: "d-1", Record: rrerRecord(0, 0.9)},
		{Serial: "d-1", Record: rrerRecord(1, -0.9)},
	})
	keys := BatchAlertKeys(res)
	if len(keys) == 0 {
		t.Fatal("no alert keys for a crashing drive")
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "d-1|h") {
			t.Fatalf("malformed alert key %q", k)
		}
	}
}

func TestStatusClassOf(t *testing.T) {
	cases := map[int]string{
		200: "2xx", 204: "2xx",
		400: "400", 413: "413", 429: "429",
		404: "4xx", 409: "4xx",
		500: "5xx", 503: "5xx",
	}
	for code, want := range cases {
		if got := statusClassOf(code); got != want {
			t.Errorf("statusClassOf(%d) = %q, want %q", code, got, want)
		}
	}
}

func TestCompareStatesNamesExtraDrive(t *testing.T) {
	want := &fleet.State{Drives: []fleet.DriveEntry{{Serial: "d-1"}}}
	got := &fleet.State{Drives: []fleet.DriveEntry{{Serial: "d-1"}, {Serial: "d-2"}}}
	err := CompareStates("ref", "sut", want, got)
	if err == nil || !strings.Contains(err.Error(), "unexpected drive d-2") {
		t.Fatalf("CompareStates with an extra drive: %v", err)
	}
}

func TestDiffStringsTruncatesLongDiffs(t *testing.T) {
	var want, got []string
	for i := 0; i < 8; i++ {
		want = append(want, fmt.Sprintf("w%d", i))
		got = append(got, fmt.Sprintf("g%d", i))
	}
	out := DiffStrings("A", "B", want, got)
	if !strings.Contains(out, "and 3 more missing") || !strings.Contains(out, "and 3 more extra") {
		t.Fatalf("diff not truncated at 5 entries per side:\n%s", out)
	}
}

func TestWorkloadFromDrivesDefaultBatchSize(t *testing.T) {
	recs := make([]smart.Record, 250)
	for i := range recs {
		recs[i].Hour = i
	}
	wl := WorkloadFromDrives([]Drive{{Serial: "x-1", Records: recs}}, 0)
	queues := wl.Split(1)
	if len(queues) != 1 {
		t.Fatalf("%d streams, want 1", len(queues))
	}
	// The default batch size is 200, so 250 records make 2 batches.
	if len(queues[0]) != 2 || len(queues[0][0].Obs) != 200 || len(queues[0][1].Obs) != 50 {
		t.Fatalf("batch layout %d, want [200 50]", len(queues[0]))
	}
}

func TestMergeStatesPartition(t *testing.T) {
	dep := testDeployment(t)
	mk := func(shards int, obs []fleet.Observation) *fleet.Store {
		cfg := dep.fleetConfig()
		cfg.Shards = shards
		s, err := fleet.FromSet(dep.Set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.IngestBatch(obs)
		return s
	}
	whole := []fleet.Observation{
		{Serial: "d-1", Record: rrerRecord(0, 0.9)},
		{Serial: "d-2", Record: rrerRecord(1, 0.5)},
		{Serial: "d-3", Record: rrerRecord(2, 0.7)},
	}
	// Three disjoint single-drive nodes at different shard counts must
	// merge into exactly the state of one store fed everything.
	all := mk(4, whole)
	var parts []*fleet.State
	for i, o := range whole {
		parts = append(parts, CanonicalState(mk(i+1, []fleet.Observation{o})))
	}
	merged, err := MergeStates(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareStates("whole", "merged", CanonicalState(all), merged); err != nil {
		t.Fatalf("merged partition diverges from the whole: %v", err)
	}
	// A serial on two nodes is a split-brain, not a mergeable state.
	dup := CanonicalState(mk(2, whole[:1]))
	if _, err := MergeStates(parts[0], dup); err == nil {
		t.Fatal("split-brain duplicate serial merged without error")
	} else if !strings.Contains(err.Error(), "d-1") {
		t.Fatalf("split-brain error does not name the serial: %v", err)
	}
	if _, err := MergeStates(); err == nil {
		t.Fatal("merging zero states succeeded")
	}
}
