package loadgen

import (
	"context"
	"fmt"

	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// RunMixed is the heterogeneous-fleet drill: a mixed HDD+SSD fleet is
// characterized class by class (each class must recover its own group
// structure with zero cross-class contamination), the per-class model
// sets serve a mixed workload through the real HTTP stack, and the
// stream survives RunChaos's mid-stream kill + warm restart at a
// different shard count — verified record-for-record against a shadow
// the whole way. On top of the chaos invariants, the scenario checks the
// class-facing surface: the summary's per-class roll-up accounts for
// every drive, both classes raise alerts, and per-class ingest counters
// balance.
func RunMixed(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "mixed", dep, cfg, func(r *run) error {
		mc, err := r.trainMixed()
		if err != nil {
			return err
		}
		mrep := &MixedReport{
			HDDGroups:     len(mc.ByClass[smart.HDD].Results),
			SSDGroups:     len(mc.ByClass[smart.SSD].Results),
			Contamination: mc.Contamination(),
		}
		r.rep.Mixed = mrep
		// Each class must recover its own multi-group signature structure,
		// and the partition must be exact: a profile characterized under the
		// wrong class would poison both normalizers.
		var structErr error
		if mrep.HDDGroups < 2 || mrep.SSDGroups < 2 {
			structErr = fmt.Errorf("degenerate class structure: %d HDD groups, %d SSD groups (want >= 2 each)",
				mrep.HDDGroups, mrep.SSDGroups)
		}
		r.rep.addCheck("per-class-group-structure", structErr)
		var contamErr error
		if mrep.Contamination != 0 {
			contamErr = fmt.Errorf("%d profiles landed in the wrong class partition", mrep.Contamination)
		}
		r.rep.addCheck("zero-cross-class-contamination", contamErr)

		// The workload is generated at Seed+FleetSeedOffset, so the
		// replayed fleet is held out exactly as in the HDD scenarios.
		wcfg := cfg.Workload
		wcfg.Mixed = true
		wl, err := BuildWorkload(wcfg)
		if err != nil {
			return err
		}
		for _, d := range wl.Drives {
			if d.Class == smart.SSD {
				mrep.SSDDrives++
			} else {
				mrep.HDDDrives++
			}
		}
		if mrep.SSDDrives == 0 || mrep.HDDDrives == 0 {
			return fail("workload-mixed", fmt.Errorf("workload is not mixed: %d HDD, %d SSD drives", mrep.HDDDrives, mrep.SSDDrives))
		}

		h, err := r.chaos("mixed-", wl)
		if err != nil {
			return err
		}
		// The class-facing surface: the summary's per-class roll-up must
		// account for every tracked drive, and both classes must be alerting
		// (the workload carries failed drives of both kinds).
		r.rep.addCheck("per-class-summary", checkClassSummary(h.URL, mrep))
		m, err := classRows(h.URL, mrep.HDDDrives, mrep.SSDDrives)
		mrep.HDDRows, mrep.SSDRows = m.Ingest.HDD, m.Ingest.SSD
		r.rep.addCheck("per-class-ingest-counters", err)
		return nil
	})
}

// trainMixed characterizes the default mixed HDD+SSD fleet class by
// class on the workload's training seed and deploys the per-class
// models: real or held-out telemetry then meets trained per-class
// signatures, the production posture of a monitor facing a new fleet.
func (r *run) trainMixed() (*core.MixedCharacterization, error) {
	w := r.cfg.Workload
	ds, err := synth.GenerateMixed(synth.DefaultMixedFleet(w.Scale).WithSeed(w.Seed))
	if err != nil {
		return nil, err
	}
	mc, err := core.CharacterizeMixed(ds, core.Config{Seed: w.Seed, Workers: r.dep.Workers})
	if err != nil {
		return nil, err
	}
	models, norms, err := monitor.ModelsFromMixed(mc)
	if err != nil {
		return nil, err
	}
	return mc, r.deploy(models, norms, 0)
}

// classRows reads the per-class ingest counters off /metrics and
// requires rows for every device class that replayed drives.
func classRows(url string, hddDrives, ssdDrives int) (*metricsDoc, error) {
	m := &metricsDoc{}
	if err := fetchJSON(url+"/metrics", m); err != nil {
		return m, err
	}
	if hddDrives > 0 && m.Ingest.HDD == 0 || ssdDrives > 0 && m.Ingest.SSD == 0 {
		return m, fmt.Errorf("per-class ingest counters: %d HDD rows for %d drives, %d SSD rows for %d drives",
			m.Ingest.HDD, hddDrives, m.Ingest.SSD, ssdDrives)
	}
	return m, nil
}

// checkClassSummary fetches /v1/fleet/summary and validates the by_class
// roll-up: both classes present, per-class drive counts summing to the
// fleet total, and at least one non-healthy drive in each class.
func checkClassSummary(baseURL string, mrep *MixedReport) error {
	var sum struct {
		Drives  int `json:"drives"`
		ByClass map[string]struct {
			Drives     int            `json:"drives"`
			BySeverity map[string]int `json:"by_severity"`
		} `json:"by_class"`
	}
	if err := fetchJSON(baseURL+"/v1/fleet/summary?top=5", &sum); err != nil {
		return err
	}
	total := 0
	for _, cname := range []string{"hdd", "ssd"} {
		cs, ok := sum.ByClass[cname]
		if !ok {
			return fmt.Errorf("summary by_class has no %q entry", cname)
		}
		if cs.Drives == 0 {
			return fmt.Errorf("summary by_class[%s] tracks zero drives", cname)
		}
		sev := 0
		for name, n := range cs.BySeverity {
			if name != "healthy" {
				sev += n
			}
		}
		if sev == 0 {
			return fmt.Errorf("summary by_class[%s] has no drive above healthy (failed drives of both classes were replayed)", cname)
		}
		total += cs.Drives
	}
	if total != sum.Drives {
		return fmt.Errorf("by_class drives sum to %d, fleet tracks %d", total, sum.Drives)
	}
	mrep.HDDTracked = sum.ByClass["hdd"].Drives
	mrep.SSDTracked = sum.ByClass["ssd"].Drives
	return nil
}
