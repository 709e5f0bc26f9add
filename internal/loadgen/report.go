package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the machine-readable outcome of a diskload run, written as
// BENCH_loadgen.json. Fingerprints and check verdicts are deterministic
// in the seed; throughput and latency are measurements and are not.
type Report struct {
	Schema    string            `json:"schema"` // "disksig/loadgen/v1"
	Seed      int64             `json:"seed"`
	Scale     string            `json:"scale"`
	Scenarios []*ScenarioReport `json:"scenarios"`
}

// Passed reports whether every scenario passed every check.
func (r *Report) Passed() bool {
	for _, s := range r.Scenarios {
		if !s.Passed {
			return false
		}
	}
	return true
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("loadgen: writing report: %w", err)
	}
	return nil
}

// ScenarioReport is one scenario's outcome.
type ScenarioReport struct {
	Name string `json:"name"`
	// WorkloadFingerprint hashes the exact request sequence;
	// SummaryFingerprint hashes the final canonical fleet state. Two
	// runs with the same seed must agree on both.
	WorkloadFingerprint string `json:"workload_fingerprint"`
	SummaryFingerprint  string `json:"summary_fingerprint,omitempty"`

	Drives  int `json:"drives"`
	Records int `json:"records"`
	Alerts  int `json:"alerts"`

	Phases []*PhaseStats `json:"phases"`

	// ShedPointClients is the smallest client count at which the ramp
	// scenario observed load shedding (0 when it never shed).
	ShedPointClients int `json:"shed_point_clients,omitempty"`

	// BinarySpeedup is the format-compare scenario's measured throughput
	// ratio: binary records/s over JSON records/s for the same workload.
	BinarySpeedup float64 `json:"binary_speedup,omitempty"`

	// Recovery describes the chaos scenario's warm restart.
	Recovery *RecoveryReport `json:"recovery,omitempty"`

	// Drift describes the drift scenario's retraining cycle.
	Drift *DriftReport `json:"drift,omitempty"`

	// Failover describes the failover scenario's primary kill.
	Failover *FailoverReport `json:"failover,omitempty"`

	// Rebalance describes the rebalance scenario's live shard handoffs.
	Rebalance *RebalanceReport `json:"rebalance,omitempty"`

	// Mixed describes the mixed-fleet scenario's per-class outcome.
	Mixed *MixedReport `json:"mixed,omitempty"`

	// Backblaze describes the real-data replay scenario.
	Backblaze *BackblazeReport `json:"backblaze,omitempty"`

	Checks []Check `json:"checks"`
	Passed bool    `json:"passed"`
}

// RecoveryReport measures the chaos scenario's kill/warm-restart.
type RecoveryReport struct {
	RestoreMs      float64 `json:"restore_ms"`
	SnapshotDrives int     `json:"snapshot_drives"`
	WALBatches     int     `json:"wal_batches_replayed"`
	WALRows        int     `json:"wal_rows_replayed"`
	ShardsBefore   int     `json:"shards_before"`
	ShardsAfter    int     `json:"shards_after"`
}

// DriftReport measures the drift scenario's online-retraining cycle:
// the shadow-evaluation scores that justified the promotion, the
// training fingerprint, and how long training and the promotion (the
// artifact save + hot swap + snapshot, the only ingest pause) took.
type DriftReport struct {
	ServingVersion  int     `json:"serving_version"`
	PromotedVersion int     `json:"promoted_version"`
	Fingerprint     string  `json:"fingerprint"`
	FailedDrives    int     `json:"failed_drives"`
	GoodDrives      int     `json:"good_drives"`
	EvalDrives      int     `json:"eval_drives"`
	ServingF1       float64 `json:"serving_f1"`
	ServingRecall   float64 `json:"serving_recall"`
	CandidateF1     float64 `json:"candidate_f1"`
	CandidateRecall float64 `json:"candidate_recall"`
	Agreement       float64 `json:"agreement"`
	TrainMs         int64   `json:"train_ms"`
	PromoteMs       int64   `json:"promote_ms"`
	FillerBatches   int     `json:"filler_batches"`
	FillerNon200    int     `json:"filler_non_200"`
}

// FailoverReport measures the failover scenario: how long the follower
// took to promote itself after the primary died, and how far the
// delivered throughput dipped while clients were bouncing between the
// dead primary and the not-yet-promoted follower.
type FailoverReport struct {
	PromoteMs        float64 `json:"promote_ms"`
	PreKillRate      float64 `json:"pre_kill_records_per_sec"`
	FailoverRate     float64 `json:"failover_records_per_sec"`
	PostFailoverRate float64 `json:"post_failover_records_per_sec"`
	ThroughputDipPct float64 `json:"throughput_dip_pct"`
	NetRetries       int     `json:"net_retries"`
}

// RebalanceReport measures the rebalance scenario: a node join and a
// node drain, each cut over live under ingest load, plus the router's
// proxy overhead against a direct node connection.
type RebalanceReport struct {
	// Join and Drain measure each migration: serials copied,
	// (source, target) transfer images, and wall-clock time.
	JoinMs         float64 `json:"join_ms"`
	JoinMoved      int     `json:"join_moved"`
	JoinTransfers  int     `json:"join_transfers"`
	DrainMs        float64 `json:"drain_ms"`
	DrainMoved     int     `json:"drain_moved"`
	DrainTransfers int     `json:"drain_transfers"`
	// GatedRequests counts ingest batches parked at the copy gate.
	GatedRequests int64 `json:"gated_requests"`
	// ReadProbes/ReadFailures are the concurrent availability poller's
	// tallies: reads of known-ingested serials through the router while
	// the handoffs ran. ReadFailures must be zero.
	ReadProbes   int `json:"read_probes"`
	ReadFailures int `json:"read_failures"`
	// Router-path throughput against a direct node connection, per wire
	// format (records/s; overhead = 1 - routed/direct).
	DirectJSONRate   float64 `json:"direct_json_records_per_sec"`
	RoutedJSONRate   float64 `json:"routed_json_records_per_sec"`
	DirectBinaryRate float64 `json:"direct_binary_records_per_sec"`
	RoutedBinaryRate float64 `json:"routed_binary_records_per_sec"`
}

// MixedReport measures the mixed-fleet scenario: the per-class group
// structure recovered by characterization, the class split of the
// replayed workload, and the per-class accounting reported by the
// serving tier.
type MixedReport struct {
	HDDGroups     int   `json:"hdd_groups"`
	SSDGroups     int   `json:"ssd_groups"`
	Contamination int   `json:"cross_class_contamination"`
	HDDDrives     int   `json:"hdd_drives"`
	SSDDrives     int   `json:"ssd_drives"`
	HDDTracked    int   `json:"hdd_tracked"`
	SSDTracked    int   `json:"ssd_tracked"`
	HDDRows       int64 `json:"hdd_rows_ingested"`
	SSDRows       int64 `json:"ssd_rows_ingested"`
}

// BackblazeReport measures the real-data replay scenario: the reader's
// quality accounting over the CSV and what the serving tier tracked
// after the replay.
type BackblazeReport struct {
	RowsRead        int    `json:"rows_read"`
	RowsKept        int    `json:"rows_kept"`
	RowsQuarantined int    `json:"rows_quarantined"`
	RowsDropped     int    `json:"rows_dropped"`
	Drives          int    `json:"drives"`
	HDDDrives       int    `json:"hdd_drives"`
	SSDDrives       int    `json:"ssd_drives"`
	IngestKept      int64  `json:"ingest_rows_kept"`
	IngestHDD       int64  `json:"ingest_rows_hdd"`
	IngestSSD       int64  `json:"ingest_rows_ssd"`
	Fingerprint     string `json:"state_fingerprint,omitempty"`
}

// Check is one named verification verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// addCheck records a verdict: a nil err passes, anything else fails
// with the error as detail.
func (s *ScenarioReport) addCheck(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	s.Checks = append(s.Checks, c)
}

// finish sets Passed from the accumulated checks.
func (s *ScenarioReport) finish() {
	s.Passed = true
	for _, c := range s.Checks {
		if !c.OK {
			s.Passed = false
		}
	}
}

// FailedChecks lists the names of failed checks.
func (s *ScenarioReport) FailedChecks() []string {
	var out []string
	for _, c := range s.Checks {
		if !c.OK {
			out = append(out, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return out
}
