// Command diskload is the deterministic load generator and soak tester
// for the fleet health service: it trains the characterization pipeline
// once, then runs scripted load scenarios against a real diskserve HTTP
// stack — steady-state soak, ramp-to-shed and a kill/warm-restart chaos
// schedule — each verified record-for-record against a shadow
// in-process monitor, and writes a machine-readable report.
//
// Usage:
//
//	diskload -scenario all -scale small -report BENCH_loadgen.json
//	diskload -scenario steady,chaos -state-dir /tmp/dl  # durable state kept
//	diskload -scenario steady -soak 60s -rate 20000
//	diskload -scenario steady -format binary   # binary wire format
//	diskload -scenario ramp -max-inflight 4
//	diskload -scenario compare -passes 3       # JSON vs binary throughput
//	diskload -scenario rebalance               # live shard handoff drill
//	diskload -scenario steady -double          # prove seed determinism
//
// Scenarios:
//
//	steady   constant-rate (or closed-loop) ingestion, N clients, one or
//	         more passes; the served store must match the shadow
//	         record-for-record and /metrics must balance exactly.
//	compare  the same workload replayed as JSON and as CRC-framed binary
//	         batches against two fresh servers, pass by pass; both
//	         replicas must land on bit-identical state fingerprints and
//	         the median binary/JSON pass rate ratio must be at least 1.2.
//	ramp     concurrency ladder past the server's in-flight limit; load
//	         shedding must engage (429 + valid Retry-After), nothing may
//	         500, and retries must deliver every record exactly once.
//	chaos    a persisted server is killed mid-stream and warm-restarted
//	         from snapshot + WAL at a different shard count; the restored
//	         store must match the shadow at the kill point.
//	failover a replicated pair: the primary ships its WAL to a warm
//	         follower and acks only replicated batches; the primary is
//	         killed mid-stream, the follower promotes itself, clients
//	         retry their way over, and no acknowledged record may be
//	         lost — with the deposed primary's late frames provably
//	         fenced.
//	rebalance three routed nodes absorb a fourth joining and the first
//	         draining, each cut over live mid-stream; the merged cluster
//	         state must match the shadow record-for-record, the drained
//	         node must end empty, and concurrent reads must never fail.
//	drift    the failure mix of the fleet shifts mid-stream; an online
//	         retraining cycle harvests the retained telemetry, the
//	         candidate must beat the serving models in a held-out shadow
//	         evaluation and be hot-swapped while a concurrent client
//	         keeps ingesting with zero errors; a kill + warm restart
//	         must come back on the promoted version matching the shadow.
//	mixed    a heterogeneous HDD+SSD fleet: per-class characterization
//	         must recover each class's group structure with zero
//	         cross-class contamination, and the mixed stream must
//	         survive the chaos kill/warm-restart schedule with the
//	         per-class roll-ups accounting for every drive.
//	backblaze a real-format Backblaze daily dump (HDD and SSD rows,
//	         defective rows included) is read under the lenient quality
//	         policy — the reader ledger must balance exactly — and
//	         replayed through the serving stack against a shadow.
//
// -scenario takes a comma-separated list (run in the order above) or
// all. The durable scenarios (chaos, failover, drift, mixed) keep their
// state in <state-dir>/<scenario>, or in scratch directories removed
// afterwards when -state-dir is empty.
//
// Exit status is non-zero if any scenario check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"disksig/internal/core"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diskload: ")

	var (
		scenario  = flag.String("scenario", "all", "comma-separated scenarios to run (steady, compare, ramp, chaos, failover, rebalance, drift, mixed, backblaze) or all")
		scaleFlag = flag.String("scale", "small", "fleet scale preset for training and workload")
		seed      = flag.Int64("seed", 1, "seed for training, workload generation and fault injection")
		clients   = flag.Int("clients", 4, "concurrent HTTP clients (steady and chaos)")
		batch     = flag.Int("batch", 200, "observations per ingest request")
		rate      = flag.Float64("rate", 0, "steady-state pacing in records/sec across all clients; 0 runs closed-loop")
		soak      = flag.Duration("soak", 0, "keep the steady scenario running at least this long (adds passes)")
		passes    = flag.Int("passes", 1, "steady-state workload passes (fresh drive serials per pass)")
		double    = flag.Bool("double", false, "run the steady scenario twice and require identical workload and summary fingerprints")
		report    = flag.String("report", "BENCH_loadgen.json", "machine-readable report path; empty disables")
		inflight  = flag.Int("max-inflight", 4, "server in-flight limit the ramp ladder must exceed to shed")
		shards    = flag.Int("shards", 16, "fleet store shards of the system under test")
		workers   = flag.Int("workers", 0, "store ingestion parallelism; 0 means GOMAXPROCS")
		corrupt   = flag.Float64("corrupt", 0.02, "per-record garble/duplicate/reorder probability of the workload")
		stateDir  = flag.String("state-dir", "", "root of the durable scenarios' state (<state-dir>/<scenario>); empty uses scratch directories")
		format    = flag.String("format", "json", "ingest wire format of steady/ramp/chaos batches: json or binary")
		cmpBatch  = flag.Int("compare-batch", 1000, "compare scenario batch size (amortizes per-request HTTP overhead)")
		margin    = flag.Float64("shadow-margin", 0, "drift scenario promotion margin: candidate F1 must beat serving F1 by at least this much")
		bbPath    = flag.String("backblaze", "testdata/backblaze_sample.csv", "Backblaze-format CSV the backblaze scenario replays")
	)
	flag.Parse()

	scale, err := synth.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*scenario, ",") {
		known := name == "all"
		for _, sc := range scenarios {
			known = known || sc.name == name
		}
		if !known {
			log.Fatalf("unknown scenario %q in -scenario (want a comma-separated list of %s, or all)", name, scenarioNames())
		}
		selected[name] = true
	}
	wireFormat, err := loadgen.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}

	// Train once; every scenario (and every shadow) shares the models.
	gen := synth.DefaultConfig(scale)
	gen.Seed = *seed
	ds, err := synth.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	ch, err := core.Characterize(ds, core.Config{Seed: *seed, Workers: *workers, Quality: quality.Config{}})
	if err != nil {
		log.Fatal(err)
	}
	set, err := monitor.SetOf(ch)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained %d group models in %v", len(set.Models), time.Since(start).Round(time.Millisecond))

	dep := loadgen.Deployment{
		Set:     set,
		Monitor: monitor.Config{},
		Shards:  *shards,
		Workers: *workers,
		Log:     log.Default(),
	}
	wcfg := loadgen.DefaultWorkloadConfig(scale, *seed)
	wcfg.BatchSize = *batch
	wcfg.GarbleRate = *corrupt
	wcfg.DuplicateRate = *corrupt
	wcfg.ReorderRate = *corrupt
	wcfg.Format = wireFormat
	cfg := loadgen.ScenarioConfig{
		Workload:        wcfg,
		Clients:         *clients,
		RatePerSec:      *rate,
		Passes:          *passes,
		SoakFor:         *soak,
		RampMaxInFlight: *inflight,
		StateDir:        *stateDir,
		CompareBatch:    *cmpBatch,
		ShadowMargin:    *margin,
		BackblazePath:   *bbPath,
	}

	ctx := context.Background()
	rep := &loadgen.Report{Schema: "disksig/loadgen/v1", Seed: *seed, Scale: scale.String()}
	run := func(name string, f scenarioFunc, cfg loadgen.ScenarioConfig) *loadgen.ScenarioReport {
		start := time.Now()
		sr, err := f(ctx, dep, cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
		printScenario(sr, time.Since(start))
		return sr
	}
	for _, sc := range scenarios {
		if !selected[sc.name] && !selected["all"] {
			continue
		}
		a := run(sc.name, sc.run, cfg)
		if sc.name != "steady" || !*double {
			continue
		}
		// The determinism proof: an independent second run — fresh
		// server, fresh shadow, same seed, and the first run's pass count,
		// which under -soak depends on the wall clock — must replay
		// byte-identical requests and land on a byte-identical fleet summary.
		rerun := cfg
		rerun.Passes, rerun.SoakFor = len(a.Phases), 0
		b := run(sc.name, sc.run, rerun)
		b.Name = "steady-rerun"
		var detErr error
		if a.WorkloadFingerprint != b.WorkloadFingerprint {
			detErr = fmt.Errorf("workload fingerprints differ: %s vs %s", a.WorkloadFingerprint, b.WorkloadFingerprint)
		} else if a.SummaryFingerprint != b.SummaryFingerprint {
			detErr = fmt.Errorf("summary fingerprints differ: %s vs %s", a.SummaryFingerprint, b.SummaryFingerprint)
		}
		b.Checks = append(b.Checks, loadgen.Check{Name: "deterministic-rerun", OK: detErr == nil})
		if detErr != nil {
			b.Checks[len(b.Checks)-1].Detail = detErr.Error()
			b.Passed = false
			log.Printf("determinism FAILED: %v", detErr)
		} else {
			log.Printf("determinism: rerun fingerprints identical (workload %s, summary %s)",
				a.WorkloadFingerprint, a.SummaryFingerprint)
		}
	}

	if *report != "" {
		if err := rep.WriteFile(*report); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *report)
	}
	if !rep.Passed() {
		log.Fatal("FAILED")
	}
	log.Print("all scenarios passed")
}

type scenarioFunc func(context.Context, loadgen.Deployment, loadgen.ScenarioConfig) (*loadgen.ScenarioReport, error)

// scenarios is every scenario diskload runs, in run order.
var scenarios = []struct {
	name string
	run  scenarioFunc
}{
	{"steady", loadgen.RunSteady},
	{"compare", loadgen.RunFormatCompare},
	{"ramp", loadgen.RunRamp},
	{"chaos", loadgen.RunChaos},
	{"failover", loadgen.RunFailover},
	{"rebalance", loadgen.RunRebalance},
	{"drift", loadgen.RunDrift},
	{"mixed", loadgen.RunMixed},
	{"backblaze", loadgen.RunBackblaze},
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return strings.Join(names, ", ")
}

// printScenario renders one scenario's outcome for humans; the JSON
// report carries the same data for machines.
func printScenario(sr *loadgen.ScenarioReport, elapsed time.Duration) {
	verdict := "passed"
	if !sr.Passed {
		verdict = "FAILED"
	}
	log.Printf("%s %s in %v: %d drives, %d records, %d alerts (workload %s, summary %s)",
		sr.Name, verdict, elapsed.Round(time.Millisecond), sr.Drives, sr.Records, sr.Alerts,
		sr.WorkloadFingerprint, sr.SummaryFingerprint)
	for _, ph := range sr.Phases {
		log.Printf("  phase %-16s clients=%-3d reqs=%-5d retries=%-4d %8.0f rec/s  p50=%.1fms p95=%.1fms p99=%.1fms  status=%v",
			ph.Name, ph.Clients, ph.Requests, ph.Retries, ph.RecordsPerSec,
			ph.Latency.P50, ph.Latency.P95, ph.Latency.P99, ph.Status)
	}
	if sr.ShedPointClients > 0 {
		log.Printf("  shed point: %d clients", sr.ShedPointClients)
	}
	if sr.BinarySpeedup > 0 {
		log.Printf("  binary speedup: %.2fx over json", sr.BinarySpeedup)
	}
	if r := sr.Recovery; r != nil {
		log.Printf("  recovery: restore %.1fms, %d snapshot drives + %d WAL batches (%d rows), %d -> %d shards",
			r.RestoreMs, r.SnapshotDrives, r.WALBatches, r.WALRows, r.ShardsBefore, r.ShardsAfter)
	}
	if f := sr.Failover; f != nil {
		log.Printf("  failover: promote %.1fms, %.0f -> %.0f -> %.0f rec/s (dip %.0f%%), %d transport retries",
			f.PromoteMs, f.PreKillRate, f.FailoverRate, f.PostFailoverRate, f.ThroughputDipPct, f.NetRetries)
	}
	if rb := sr.Rebalance; rb != nil {
		log.Printf("  rebalance: join %.1fms (%d moved, %d transfers), drain %.1fms (%d moved, %d transfers), %d gated batches",
			rb.JoinMs, rb.JoinMoved, rb.JoinTransfers, rb.DrainMs, rb.DrainMoved, rb.DrainTransfers, rb.GatedRequests)
		log.Printf("  rebalance reads: %d probes, %d failures; router overhead: json %.0f -> %.0f rec/s, binary %.0f -> %.0f rec/s",
			rb.ReadProbes, rb.ReadFailures, rb.DirectJSONRate, rb.RoutedJSONRate, rb.DirectBinaryRate, rb.RoutedBinaryRate)
	}
	if d := sr.Drift; d != nil {
		log.Printf("  drift: v%d -> v%d promoted (fp %s), serving F1 %.3f/recall %.3f -> candidate F1 %.3f/recall %.3f, agreement %.3f",
			d.ServingVersion, d.PromotedVersion, d.Fingerprint,
			d.ServingF1, d.ServingRecall, d.CandidateF1, d.CandidateRecall, d.Agreement)
		log.Printf("  drift timing: train %dms, promote (swap pause) %dms; %d filler batches during retrain, %d non-200",
			d.TrainMs, d.PromoteMs, d.FillerBatches, d.FillerNon200)
	}
	if m := sr.Mixed; m != nil {
		log.Printf("  mixed: %d HDD + %d SSD groups (contamination %d), %d HDD + %d SSD drives, rows hdd=%d ssd=%d",
			m.HDDGroups, m.SSDGroups, m.Contamination, m.HDDDrives, m.SSDDrives, m.HDDRows, m.SSDRows)
	}
	if b := sr.Backblaze; b != nil {
		log.Printf("  backblaze: %d rows read = %d kept + %d quarantined + %d dropped; %d drives (%d HDD, %d SSD), ingest hdd=%d ssd=%d",
			b.RowsRead, b.RowsKept, b.RowsQuarantined, b.RowsDropped,
			b.Drives, b.HDDDrives, b.SSDDrives, b.IngestHDD, b.IngestSSD)
	}
	for _, c := range sr.FailedChecks() {
		log.Printf("  check FAILED: %s", c)
	}
}
