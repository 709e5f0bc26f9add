package loadgen

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/server"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// rampPredictor scores records by their RRER value directly (same idiom
// as the monitor, fleet and server tests).
type rampPredictor struct{}

func (rampPredictor) Predict(x []float64) float64 { return x[smart.RRER] }

// testDeployment is a deterministic deployment over a trivial model: the
// drive's health is its RRER value, normalized over [-1, 1].
func testDeployment(t *testing.T) Deployment {
	t.Helper()
	norm := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	norm.Observe(lo)
	norm.Observe(hi)
	return Deployment{
		Set: monitor.ModelSet{
			Models: []monitor.GroupModel{{
				Group:     1,
				Type:      core.Logical,
				Form:      regression.FormQuadratic,
				WindowD:   12,
				Predictor: rampPredictor{},
			}},
			Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: norm},
		},
		Monitor: monitor.Config{Smoothing: 1},
		Shards:  4,
	}
}

// rrerRecord builds a record whose RRER slot carries the score.
func rrerRecord(hour int, score float64) smart.Record {
	var v smart.Values
	v[smart.RRER] = score
	return smart.Record{Hour: hour, Values: v}
}

// testDrives is a small hand-built fleet: one degrading drive (alerts),
// one healthy, one with a non-finite value (quarantined).
func testDrives() []Drive {
	degrading := make([]smart.Record, 0, 8)
	for h := 0; h < 8; h++ {
		degrading = append(degrading, rrerRecord(h, 0.9-0.3*float64(h)))
	}
	healthy := make([]smart.Record, 0, 8)
	for h := 0; h < 8; h++ {
		healthy = append(healthy, rrerRecord(h, 0.9))
	}
	poisoned := []smart.Record{rrerRecord(0, 0.9), rrerRecord(1, math.NaN()), rrerRecord(2, 0.9)}
	return []Drive{
		{Serial: "deg-1", Records: degrading},
		{Serial: "ok-1", Records: healthy},
		{Serial: "bad-1", Records: poisoned},
	}
}

func TestBuildWorkloadDeterministic(t *testing.T) {
	cfg := DefaultWorkloadConfig(synth.ScaleSmall, 7)
	cfg.MaxFailed, cfg.MaxGood = 3, 5
	a, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := Fingerprint(a.Split(4)), Fingerprint(b.Split(4))
	if fa != fb {
		t.Fatalf("same config, different fingerprints: %s vs %s", fa, fb)
	}
	cfg.Seed = 8
	c, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc := Fingerprint(c.Split(4)); fc == fa {
		t.Fatalf("different seeds, same fingerprint %s", fc)
	}
}

func TestSplitPartitionsAndPreservesPerDriveOrder(t *testing.T) {
	wl := WorkloadFromDrives(testDrives(), 4)
	queues := wl.Split(2)
	if len(queues) != 2 {
		t.Fatalf("%d streams, want 2", len(queues))
	}
	// Every drive's records must appear in exactly one stream, in order.
	seen := map[string][]int{} // serial -> hours in arrival order
	driveStream := map[string]int{}
	total := 0
	for s, q := range queues {
		for _, b := range q {
			if b.Stream != s {
				t.Fatalf("batch labeled stream %d found in stream %d", b.Stream, s)
			}
			for _, o := range b.Obs {
				if prev, ok := driveStream[o.Serial]; ok && prev != s {
					t.Fatalf("drive %s appears in streams %d and %d", o.Serial, prev, s)
				}
				driveStream[o.Serial] = s
				seen[o.Serial] = append(seen[o.Serial], o.Record.Hour)
				total++
			}
		}
	}
	if total != wl.Records() {
		t.Fatalf("split carries %d records, workload has %d", total, wl.Records())
	}
	for _, d := range testDrives() {
		hours := seen[d.Serial]
		if len(hours) != len(d.Records) {
			t.Fatalf("drive %s: %d records in split, want %d", d.Serial, len(hours), len(d.Records))
		}
		for i, r := range d.Records {
			if hours[i] != r.Hour {
				t.Fatalf("drive %s record %d: hour %d, want %d (order broken)", d.Serial, i, hours[i], r.Hour)
			}
		}
	}
}

func TestEncodeBatchWireForm(t *testing.T) {
	obs := []fleet.Observation{{Serial: "s-1", Record: rrerRecord(3, math.NaN())}}
	body := string(EncodeBatch(obs))
	if !strings.Contains(body, "null") {
		t.Fatalf("NaN not encoded as null: %s", body)
	}
	if strings.Contains(body, "NaN") {
		t.Fatalf("literal NaN leaked into wire form: %s", body)
	}
	if !strings.Contains(body, `"serial":"s-1"`) || !strings.Contains(body, `"hour":3`) {
		t.Fatalf("missing serial/hour: %s", body)
	}
}

func TestWithSuffixFreshSerials(t *testing.T) {
	wl := WorkloadFromDrives(testDrives(), 4)
	w2 := wl.WithSuffix("-p1")
	if w2.Drives[0].Serial != wl.Drives[0].Serial+"-p1" {
		t.Fatalf("suffix not applied: %s", w2.Drives[0].Serial)
	}
	if w2.Records() != wl.Records() {
		t.Fatalf("suffix changed record count: %d vs %d", w2.Records(), wl.Records())
	}
	if f1, f2 := Fingerprint(wl.Split(2)), Fingerprint(w2.Split(2)); f1 == f2 {
		t.Fatal("suffixed workload has identical fingerprint (serials not in bodies?)")
	}
}

func TestChunkQueuesPartitions(t *testing.T) {
	wl := WorkloadFromDrives(testDrives(), 2)
	queues := wl.Split(2)
	chunks := ChunkQueues(queues, 3)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(chunks))
	}
	for s, q := range queues {
		var got []*Batch
		for k := range chunks {
			got = append(got, chunks[k][s]...)
		}
		if len(got) != len(q) {
			t.Fatalf("stream %d: chunks carry %d batches, want %d", s, len(got), len(q))
		}
		for i := range q {
			if got[i] != q[i] {
				t.Fatalf("stream %d batch %d: chunk order differs from queue order", s, i)
			}
		}
	}
	if n, want := CountRecords(queues), wl.Records(); n != want {
		t.Fatalf("CountRecords = %d, want %d", n, want)
	}
}

// TestDriverDeliversEverythingOnce drives a hand-built workload through
// the real HTTP layer and requires the served store to match a shadow
// fed the same observations in-process.
func TestDriverDeliversEverythingOnce(t *testing.T) {
	dep := testDeployment(t)
	wl := WorkloadFromDrives(testDrives(), 4)
	shadow, err := ShadowFromSet(dep.Set, fleet.Config{Monitor: dep.Monitor})
	if err != nil {
		t.Fatal(err)
	}
	h, err := StartHarness(dep.Set, dep.fleetConfig(), server.Config{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.Stop(ctx)
	}()

	queues := wl.Split(2)
	drv := &Driver{BaseURL: h.URL}
	stats, err := drv.Run(context.Background(), Phase{Name: "test", Clients: 2}, queues)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsSent != wl.Records() {
		t.Fatalf("sent %d records, want %d", stats.RecordsSent, wl.Records())
	}
	if stats.Batches != len(queues[0])+len(queues[1]) {
		t.Fatalf("delivered %d batches, want %d", stats.Batches, len(queues[0])+len(queues[1]))
	}
	if stats.Status["2xx"] != stats.Requests {
		t.Fatalf("status taxonomy %v, want all 2xx", stats.Status)
	}
	if stats.RecordsQuarantined == 0 {
		t.Fatal("poisoned drive was not quarantined over the wire")
	}
	if err := shadow.ApplyChunk(queues); err != nil {
		t.Fatal(err)
	}
	if err := CompareStates("shadow", "served", shadow.State(), CanonicalState(h.Store)); err != nil {
		t.Fatal(err)
	}
	if err := CompareAlerts("shadow", "http", shadow.AlertKeys(), stats.AlertKeys, false); err != nil {
		t.Fatal(err)
	}
	if len(shadow.AlertKeys()) == 0 {
		t.Fatal("no alerts raised; the comparison is vacuous")
	}
	if _, _, _, err := MetricsInvariant(h.URL, int64(wl.Records())); err != nil {
		t.Fatal(err)
	}
}

// TestDriverRetriesShedBatches overloads a one-slot server and requires
// retries to deliver every record exactly once anyway.
func TestDriverRetriesShedBatches(t *testing.T) {
	dep := testDeployment(t)
	wl := WorkloadFromDrives(testDrives(), 2)
	h, err := StartHarness(dep.Set, dep.fleetConfig(), server.Config{
		MaxInFlight: 1,
		IngestDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.Stop(ctx)
	}()
	queues := wl.Split(3)
	drv := &Driver{BaseURL: h.URL, MaxRetryWait: 5 * time.Millisecond}
	stats, err := drv.Run(context.Background(), Phase{Name: "overload", Clients: 3}, queues)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsSent != wl.Records() {
		t.Fatalf("sent %d records, want %d (shed batches lost?)", stats.RecordsSent, wl.Records())
	}
	if _, _, _, err := MetricsInvariant(h.URL, int64(wl.Records())); err != nil {
		t.Fatal(err)
	}
	// Note: shedding is likely here but not guaranteed at this scale; the
	// ramp scenario asserts it over a real workload.
	if stats.Status["429"] > 0 && stats.Retries == 0 {
		t.Fatalf("saw 429s but recorded no retries: %+v", stats)
	}
}

// TestScenariosEndToEnd runs every scripted scenario over real trained
// models (the diskload path) and requires every check to pass, the
// steady scenario to be bit-deterministic across two independent runs,
// and each scenario's deterministic fields to match the committed
// golden file (testdata/scenarios.golden.json; -update rewrites it).
func TestScenariosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario suite in -short mode")
	}
	gen := synth.DefaultConfig(synth.ScaleSmall)
	gen.Seed = 1
	ds, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.Characterize(ds, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := monitor.SetOf(ch)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Set: set, Shards: 4}
	cfg := ScenarioConfig{
		Workload:        DefaultWorkloadConfig(synth.ScaleSmall, 1),
		Clients:         3,
		Passes:          2,
		RampClients:     []int{1, 3},
		RampMaxInFlight: 1,
		RampIngestDelay: 5 * time.Millisecond,
		StateDir:        t.TempDir(),
	}

	requirePassed := func(name string, rep *ScenarioReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Passed {
			t.Fatalf("%s failed checks:\n  %s", name, strings.Join(rep.FailedChecks(), "\n  "))
		}
	}

	ctx := context.Background()
	s1, err := RunSteady(ctx, dep, cfg)
	requirePassed("steady", s1, err)
	s2, err := RunSteady(ctx, dep, cfg)
	requirePassed("steady rerun", s2, err)
	if s1.WorkloadFingerprint != s2.WorkloadFingerprint {
		t.Fatalf("steady workload fingerprints differ: %s vs %s", s1.WorkloadFingerprint, s2.WorkloadFingerprint)
	}
	if s1.SummaryFingerprint != s2.SummaryFingerprint {
		t.Fatalf("steady summary fingerprints differ: %s vs %s", s1.SummaryFingerprint, s2.SummaryFingerprint)
	}
	if s1.Alerts == 0 {
		t.Fatal("steady raised no alerts; scenario is vacuous")
	}

	fc, err := RunFormatCompare(ctx, dep, cfg)
	requirePassed("format-compare", fc, err)
	if fc.BinarySpeedup <= 0 {
		t.Fatalf("format-compare recorded no speedup: %+v", fc)
	}

	r, err := RunRamp(ctx, dep, cfg)
	requirePassed("ramp", r, err)
	if r.ShedPointClients != 3 {
		t.Fatalf("shed point at %d clients, want 3 (ladder %v over 1 slot)", r.ShedPointClients, cfg.RampClients)
	}

	c, err := RunChaos(ctx, dep, cfg)
	requirePassed("chaos", c, err)
	if c.Recovery == nil || c.Recovery.WALBatches == 0 {
		t.Fatalf("chaos recovery replayed no WAL batches: %+v", c.Recovery)
	}
	if c.Recovery.ShardsBefore == c.Recovery.ShardsAfter {
		t.Fatalf("chaos restored at the same shard count %d; layout independence untested", c.Recovery.ShardsAfter)
	}

	fo, err := RunFailover(ctx, dep, cfg)
	requirePassed("failover", fo, err)
	if fo.Failover == nil || fo.Failover.PromoteMs <= 0 {
		t.Fatalf("failover recorded no promotion time: %+v", fo.Failover)
	}
	if fo.Failover.NetRetries == 0 {
		t.Fatal("failover saw no transport retries; the primary kill was vacuous")
	}

	rb, err := RunRebalance(ctx, dep, cfg)
	requirePassed("rebalance", rb, err)
	if rb.Rebalance == nil || rb.Rebalance.JoinMoved == 0 || rb.Rebalance.DrainMoved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", rb.Rebalance)
	}
	if rb.Rebalance.ReadProbes == 0 || rb.Rebalance.ReadFailures != 0 {
		t.Fatalf("rebalance availability poller: %d probes, %d failures", rb.Rebalance.ReadProbes, rb.Rebalance.ReadFailures)
	}
	if rb.Rebalance.DirectJSONRate <= 0 || rb.Rebalance.RoutedBinaryRate <= 0 {
		t.Fatalf("rebalance recorded no proxy-overhead rates: %+v", rb.Rebalance)
	}

	dr, err := RunDrift(ctx, dep, cfg)
	requirePassed("drift", dr, err)
	if dr.Drift == nil || dr.Drift.PromotedVersion != 2 || dr.Drift.FillerNon200 != 0 {
		t.Fatalf("drift retraining cycle = %+v", dr.Drift)
	}

	mx, err := RunMixed(ctx, dep, cfg)
	requirePassed("mixed", mx, err)
	if mx.Mixed == nil || mx.Mixed.Contamination != 0 {
		t.Fatalf("mixed class isolation = %+v", mx.Mixed)
	}
	if mx.Mixed.HDDGroups < 2 || mx.Mixed.SSDGroups < 2 {
		t.Fatalf("mixed recovered %d HDD / %d SSD groups, want >= 2 each", mx.Mixed.HDDGroups, mx.Mixed.SSDGroups)
	}
	if mx.Mixed.HDDRows == 0 || mx.Mixed.SSDRows == 0 {
		t.Fatalf("mixed per-class ingest counters = %+v", mx.Mixed)
	}

	bcfg := cfg
	bcfg.BackblazePath = "../../testdata/backblaze_sample.csv"
	bb, err := RunBackblaze(ctx, dep, bcfg)
	requirePassed("backblaze", bb, err)
	if bb.Backblaze == nil || bb.Backblaze.RowsQuarantined == 0 || bb.Backblaze.RowsDropped == 0 {
		t.Fatalf("backblaze exercised no defect path: %+v", bb.Backblaze)
	}
	if bb.Backblaze.HDDDrives == 0 || bb.Backblaze.SSDDrives == 0 {
		t.Fatalf("backblaze class detection = %+v", bb.Backblaze)
	}

	rep := &Report{Schema: "disksig/loadgen/v1", Seed: 3, Scale: "small", Scenarios: []*ScenarioReport{s1, fc, r, c, fo, rb, dr, mx, bb}}
	if !rep.Passed() {
		t.Fatal("aggregate report not passed")
	}
	path := t.TempDir() + "/BENCH_loadgen.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	checkScenarioGoldens(t, rep.Scenarios)
}

func TestPacingIntervalPacesSteady(t *testing.T) {
	// 4 clients, 100-record batches, 2000 records/sec fleet-wide: each
	// client sends a batch every 200ms.
	if got, want := pacingInterval(2000, 4, 100), 200*time.Millisecond; got != want {
		t.Fatalf("pacingInterval = %v, want %v", got, want)
	}
	if got := pacingInterval(0, 4, 100); got != 0 {
		t.Fatalf("pacingInterval(0) = %v, want 0 (closed loop)", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{Schema: "disksig/loadgen/v1", Seed: 1, Scale: "small"}
	sr := &ScenarioReport{Name: "x"}
	sr.addCheck("ok-check", nil)
	sr.addCheck("bad-check", fmt.Errorf("boom"))
	sr.finish()
	rep.Scenarios = append(rep.Scenarios, sr)
	if rep.Passed() {
		t.Fatal("report with a failed check reports Passed")
	}
	if got := sr.FailedChecks(); len(got) != 1 || !strings.Contains(got[0], "boom") {
		t.Fatalf("FailedChecks = %v", got)
	}
}
