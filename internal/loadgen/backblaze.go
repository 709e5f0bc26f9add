package loadgen

import (
	"context"
	"fmt"
	"os"

	"disksig/internal/dataset"
	"disksig/internal/quality"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// RunBackblaze is the real-data scenario: a Backblaze-format daily dump
// (the public fleet telemetry format, HDD and SSD rows mixed) is read
// under the lenient quality policy, its reader ledger is checked for
// exact kept + quarantined + dropped balance, and the surviving drives
// are replayed through the real HTTP stack against per-class models
// trained on the synthetic fleet — verified record-for-record against a
// shadow. The default input is the checked-in sample dump, which
// carries both device classes and a handful of defective rows so every
// quarantine path is exercised.
func RunBackblaze(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "backblaze", dep, cfg, func(r *run) error {
		if cfg.BackblazePath == "" {
			return fmt.Errorf("loadgen: backblaze scenario needs BackblazePath")
		}
		f, err := os.Open(cfg.BackblazePath)
		if err != nil {
			return err
		}
		ds, qrep, err := dataset.ReadBackblazeCSVQ(f, quality.Config{})
		f.Close()
		if err != nil {
			return fmt.Errorf("loadgen: reading %s: %w", cfg.BackblazePath, err)
		}
		brep := &BackblazeReport{
			RowsRead:        qrep.RowsRead,
			RowsKept:        qrep.RowsKept(),
			RowsQuarantined: qrep.RowsQuarantined,
			RowsDropped:     qrep.RowsDropped,
		}
		r.rep.Backblaze = brep

		// The reader's ledger must balance exactly: every CSV row is kept,
		// quarantined or dropped, nothing double-counted, nothing lost.
		var accErr error
		if brep.RowsRead != brep.RowsKept+brep.RowsQuarantined+brep.RowsDropped {
			accErr = fmt.Errorf("reader ledger does not balance: read %d != kept %d + quarantined %d + dropped %d",
				brep.RowsRead, brep.RowsKept, brep.RowsQuarantined, brep.RowsDropped)
		}
		r.rep.addCheck("reader-accounting", accErr)
		var defectErr error
		if brep.RowsQuarantined == 0 || brep.RowsDropped == 0 {
			defectErr = fmt.Errorf("dump exercised no defect path: %d quarantined, %d dropped (the sample carries defective rows)",
				brep.RowsQuarantined, brep.RowsDropped)
		}
		r.rep.addCheck("defects-detected", defectErr)

		// Map the dataset onto replayable drives. Serials are derived from
		// the deterministic drive IDs, so two reads of the same dump build
		// byte-identical workloads.
		var drives []Drive
		for _, pop := range [][]*smart.Profile{ds.Failed, ds.Good} {
			for _, p := range pop {
				drives = append(drives, Drive{
					Serial:  fmt.Sprintf("bb-%05d", p.DriveID),
					Class:   p.Class,
					Records: p.Records,
				})
				if p.Class == smart.SSD {
					brep.SSDDrives++
				} else {
					brep.HDDDrives++
				}
			}
		}
		brep.Drives = len(drives)
		var classErr error
		if brep.HDDDrives == 0 || brep.SSDDrives == 0 {
			classErr = fmt.Errorf("class detection found %d HDD and %d SSD drives (the sample carries both)",
				brep.HDDDrives, brep.SSDDrives)
		}
		r.rep.addCheck("both-classes-detected", classErr)

		// The serving models come from the synthetic mixed fleet.
		if _, err := r.trainMixed(); err != nil {
			return err
		}
		h, err := r.serve(nil, server.Config{MaxInFlight: 256})
		if err != nil {
			return err
		}
		r.drv.SetBaseURL(h.URL)
		queues := r.split(WorkloadFromDrives(drives, 100))
		if _, err := r.phase("backblaze-replay", queues); err != nil {
			return err
		}
		r.verify("final-state-matches-shadow", h, CountRecords(queues))
		// Per-class ingest counters must reflect the detected populations.
		m, err := classRows(h.URL, brep.HDDDrives, brep.SSDDrives)
		brep.IngestKept, brep.IngestHDD, brep.IngestSSD = m.Ingest.Kept, m.Ingest.HDD, m.Ingest.SSD
		r.rep.addCheck("per-class-ingest-counters", err)
		brep.Fingerprint = r.rep.SummaryFingerprint
		return nil
	})
}
