package loadgen

import (
	"context"
	"fmt"
	"log"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/server"
)

// Deployment is everything a scenario needs to stand up servers and
// shadows: the trained model set plus the deployment knobs.
type Deployment struct {
	Set     monitor.ModelSet
	Monitor monitor.Config
	// Shards and Workers configure the system under test's store; the
	// shadow always runs with defaults (layout independence is part of
	// what the comparison proves).
	Shards, Workers int
	Log             *log.Logger
}

func (d Deployment) fleetConfig() fleet.Config {
	return fleet.Config{Shards: d.Shards, Workers: d.Workers, Monitor: d.Monitor}
}

// ScenarioConfig parameterizes the scripted scenarios.
type ScenarioConfig struct {
	Workload WorkloadConfig
	// Clients is the steady/chaos concurrency. <= 0 means 4.
	Clients int
	// RatePerSec paces the steady scenario at this many records per
	// second across all clients; 0 runs closed-loop.
	RatePerSec float64
	// Passes repeats the steady workload with fresh serials per pass;
	// SoakFor instead keeps adding passes until the elapsed wall clock
	// exceeds it (the 60s CI soak). Passes <= 0 means 1.
	Passes  int
	SoakFor time.Duration
	// RampClients is the ramp scenario's concurrency ladder; empty means
	// 1, 2, 4, 8, 16. RampMaxInFlight is the server's in-flight limit
	// the ladder must exceed to shed; <= 0 means 4. RampIngestDelay is
	// the server's artificial per-ingest hold (see
	// server.Config.IngestDelay) that makes its capacity genuinely
	// bounded — without it a fast (or single-CPU) host drains requests
	// quicker than clients can pile them up and the shed point is
	// scheduling noise; <= 0 means 10ms.
	RampClients     []int
	RampMaxInFlight int
	RampIngestDelay time.Duration
	// StateDir is the root of the durable scenarios' state: each one
	// keeps its snapshot, WAL and model artifacts in <StateDir>/<name>.
	// Empty gives each a scratch directory removed when it returns.
	StateDir string
	// ShadowMargin is the drift scenario's promotion margin: the
	// retrained candidate must beat the serving models' F1 by at least
	// this much on the held-out cohort. 0 promotes on ties.
	ShadowMargin float64
	// CompareBatch is the format-compare scenario's batch size. The
	// comparison runs closed-loop and wants per-request HTTP overhead
	// amortized so the measured gap is dominated by the decode + scoring
	// cost, not TCP round trips; <= 0 means 1000.
	CompareBatch int
	// BackblazePath is the Backblaze-format daily dump the backblaze
	// scenario replays (required for RunBackblaze).
	BackblazePath string
}

func (c ScenarioConfig) clients() int {
	if c.Clients <= 0 {
		return 4
	}
	return c.Clients
}

// pacingInterval converts a fleet-wide records/sec target into the
// per-client batch send interval.
func pacingInterval(rate float64, clients, batchSize int) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(clients) * float64(batchSize) / rate * float64(time.Second))
}

// RunSteady is the steady-state soak: the workload streams through the
// real HTTP path at a constant (optionally paced) rate, one or more
// passes, and the run passes only if the served store matches the
// shadow record-for-record, the alert streams agree, and the /metrics
// ledger balances exactly.
func RunSteady(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "steady", dep, cfg, func(r *run) error {
		wl, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		h, err := r.serve(nil, server.Config{MaxInFlight: 256})
		if err != nil {
			return err
		}
		r.drv.SetBaseURL(h.URL)
		r.interval = pacingInterval(cfg.RatePerSec, r.clients, cfg.Workload.withDefaults().BatchSize)
		passes := max(cfg.Passes, 1)
		start := time.Now()
		queues := r.split(wl)
		for pass := 0; pass < passes || time.Since(start) < cfg.SoakFor; pass++ {
			if pass > 0 {
				// A fresh serial suffix per pass: the soak keeps ingesting new
				// drives instead of replaying stale hours the store would drop.
				queues = wl.WithSuffix(fmt.Sprintf("-p%d", pass)).Split(r.clients)
			}
			if _, err := r.phase(fmt.Sprintf("steady-pass%d", pass), queues); err != nil {
				return err
			}
		}
		r.verify("state-matches-shadow", h, r.shadow.Ingested())
		return nil
	})
}

// RunFormatCompare replays the same workload twice — once as JSON
// bodies, once as CRC-framed binary batches — each against its own
// server, closed-loop, alternating the two replicas pass by pass. The
// run passes only if both replicas land on bit-identical canonical-state
// fingerprints, acknowledge the same alert multiset, match an in-process
// shadow record-for-record, and balance their /metrics ledgers. The
// per-format phases record throughput side by side; they are the
// BENCH_loadgen.json evidence for the binary hot path. The speedup is
// the median of the per-pass binary/JSON rate ratios, so one pass slowed
// by a noisy neighbour cannot sink it; the in-run gate is deliberately
// loose (1.2x) because CI replays the soak under -race on shared
// runners, and the committed report shows the real margin.
func RunFormatCompare(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "format-compare", dep, cfg, func(r *run) error {
		wcfg := cfg.Workload
		wcfg.BatchSize = cfg.CompareBatch
		if wcfg.BatchSize <= 0 {
			wcfg.BatchSize = 1000
		}
		wcfg.Format = FormatJSON
		wl, err := BuildWorkload(wcfg)
		if err != nil {
			return err
		}
		// The JSON replica is the scenario's own driver and shadow; the
		// observation streams are identical across formats, so the shadow
		// is applied on the JSON leg only.
		hj, err := r.serve(nil, server.Config{MaxInFlight: 256})
		if err != nil {
			return err
		}
		hb, err := r.serve(nil, server.Config{MaxInFlight: 256})
		if err != nil {
			return err
		}
		r.drv.SetBaseURL(hj.URL)
		bdrv := r.driver(hb.URL)
		var binAlerts []string
		var ratios []float64
		bwl := wl.WithFormat(FormatBinary)
		jq, bq := r.split(wl), bwl.Split(r.clients)
		// At least three passes per format: a single pass of the small
		// workload is a handful of requests, too few for a stable rate.
		for pass := 0; pass < max(cfg.Passes, 3); pass++ {
			if pass > 0 {
				suffix := fmt.Sprintf("-p%d", pass)
				jq, bq = wl.WithSuffix(suffix).Split(r.clients), bwl.WithSuffix(suffix).Split(r.clients)
			}
			js, err := r.phase(fmt.Sprintf("compare-json-pass%d", pass), jq)
			if err != nil {
				return err
			}
			bs, err := r.send(bdrv, fmt.Sprintf("compare-binary-pass%d", pass), bq)
			if bs != nil {
				binAlerts = append(binAlerts, bs.AlertKeys...)
				r.rep.Records += bs.RecordsSent
			}
			if err != nil {
				return fail("binary-replica", err)
			}
			if js.RecordsPerSec > 0 {
				ratios = append(ratios, bs.RecordsPerSec/js.RecordsPerSec)
			}
		}
		if err := r.metrics(hj.URL, r.shadow.Ingested()); err != nil {
			return fail("json-replica", fmt.Errorf("metrics invariant: %w", err))
		}
		if err := r.metrics(hb.URL, r.shadow.Ingested()); err != nil {
			return fail("binary-replica", fmt.Errorf("metrics invariant: %w", err))
		}

		js, bs := CanonicalState(hj.Store), CanonicalState(hb.Store)
		var fpErr error
		if jfp, bfp := StateFingerprint(js), StateFingerprint(bs); jfp != bfp {
			fpErr = CompareStates("json", "binary", js, bs)
			if fpErr == nil {
				fpErr = fmt.Errorf("state fingerprints differ (json %s vs binary %s) but states compare equal", jfp, bfp)
			}
		}
		r.rep.addCheck("formats-identical-state", fpErr)
		r.rep.addCheck("formats-identical-alerts",
			CompareAlerts("json", "binary", r.alerts, binAlerts, false))
		r.match("state-matches-shadow", js)
		r.rep.BinarySpeedup = quantiles(ratios).P50
		var spErr error
		if r.rep.BinarySpeedup < 1.2 {
			spErr = fmt.Errorf("binary throughput only %.2fx of JSON (median of %d passes, want >= 1.2x)", r.rep.BinarySpeedup, len(ratios))
		}
		r.rep.addCheck("binary-faster-than-json", spErr)
		return nil
	})
}

// RunRamp is the ramp-to-shed scenario: the concurrency ladder climbs
// past the server's in-flight limit, and the run passes only if load
// shedding engages (429 with a valid Retry-After), nothing 500s, no
// batch is lost to shedding (retries deliver every record exactly
// once), and the final state still matches the shadow. Each rung
// replays the full workload (fresh serials per rung) at its client
// count, so every rung's throughput and latency are measured over the
// same load.
func RunRamp(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "ramp", dep, cfg, func(r *run) error {
		ladder := cfg.RampClients
		if len(ladder) == 0 {
			ladder = []int{1, 2, 4, 8, 16}
		}
		maxInFlight := cfg.RampMaxInFlight
		if maxInFlight <= 0 {
			maxInFlight = 4
		}
		delay := cfg.RampIngestDelay
		if delay <= 0 {
			delay = 10 * time.Millisecond
		}
		wl, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		h, err := r.serve(nil, server.Config{
			MaxInFlight: maxInFlight,
			// QueueWait 0: shed immediately at the limit, so the shed point
			// in the ladder is sharp. IngestDelay holds each request's
			// in-flight slot long enough that clients beyond the limit must
			// overlap with full slots — shedding above the limit is then a
			// certainty, not a scheduling accident.
			IngestDelay: delay,
		})
		if err != nil {
			return err
		}
		r.drv.SetBaseURL(h.URL)

		var allQueues [][]*Batch
		for i, clients := range ladder {
			wlr := wl
			if i > 0 {
				wlr = wl.WithSuffix(fmt.Sprintf("-r%d", i))
			}
			queues := wlr.Split(clients)
			allQueues = append(allQueues, queues...)
			stats, err := r.phase(fmt.Sprintf("ramp-c%d", clients), queues)
			if err != nil {
				return err
			}
			if stats.Status["429"] > 0 && (r.rep.ShedPointClients == 0 || clients < r.rep.ShedPointClients) {
				r.rep.ShedPointClients = clients
			}
		}
		r.rep.WorkloadFingerprint = Fingerprint(allQueues)
		r.rep.Drives = len(wl.Drives)

		// Shedding must engage above the limit and never below it.
		var shedErr error
		if r.rep.ShedPointClients == 0 {
			shedErr = fmt.Errorf("no phase observed 429s (ladder %v, max in-flight %d)", ladder, maxInFlight)
		}
		r.rep.addCheck("shedding-engaged", shedErr)
		var belowErr, taxErr error
		for _, ph := range r.rep.Phases {
			if ph.Clients <= maxInFlight && ph.Status["429"] > 0 {
				belowErr = fmt.Errorf("phase %s shed %d requests with clients <= in-flight limit %d",
					ph.Name, ph.Status["429"], maxInFlight)
			}
			if n := ph.Status["5xx"] + ph.Status["400"] + ph.Status["413"] + ph.Status["4xx"]; n > 0 {
				taxErr = fmt.Errorf("phase %s had %d non-2xx/non-429 responses: %v", ph.Name, n, ph.Status)
			}
		}
		r.rep.addCheck("no-shed-below-limit", belowErr)
		r.rep.addCheck("zero-errors", taxErr)
		r.verify("state-matches-shadow", h, r.shadow.Ingested())
		return nil
	})
}
