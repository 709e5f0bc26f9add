package loadgen

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// This file is the replay-verification toolkit of the diskload
// scenarios and of perfbench's correctness check: a canonical alert
// key, a shard-layout-independent state canonicalization, diffing
// helpers and a shadow monitor — an in-process fleet store fed the same
// observations as the system under test, whose alerts and final state
// the real serving path must match record-for-record.

// AlertKey renders an alert as a canonical comparison key. Two replays
// agree record-for-record exactly when their key streams are equal.
func AlertKey(serial string, hour int, severity string, group int, typ string, degradation float64) string {
	return fmt.Sprintf("%s|h%d|%s|g%d|%s|%.9f", serial, hour, severity, group, typ, degradation)
}

// BatchAlertKeys renders every alert of a batch result, in submission
// order.
func BatchAlertKeys(res fleet.BatchResult) []string {
	var keys []string
	for _, a := range res.Alerts {
		keys = append(keys, AlertKey(a.Serial, a.Hour, a.Severity.String(), a.Group, a.Type.String(), a.Degradation))
	}
	return keys
}

// CanonicalState exports a store's full state with best-effort
// diagnostics stripped: the comparable image of a fleet, independent of
// shard layout, worker count and quarantine-example sampling.
func CanonicalState(s *fleet.Store) *fleet.State {
	st := s.ExportState()
	st.Quality.StripDiagnostics()
	return st
}

// CompareStates requires two canonical states to be deeply equal.
func CompareStates(wantLabel, gotLabel string, want, got *fleet.State) error {
	if reflect.DeepEqual(want, got) {
		return nil
	}
	return fmt.Errorf("fleet state mismatch: %s has %d drives (max hour %d), %s has %d drives (max hour %d)%s",
		wantLabel, len(want.Drives), want.MaxHour, gotLabel, len(got.Drives), got.MaxHour,
		firstDriveDiff(want, got))
}

// firstDriveDiff names the first per-drive divergence, the usual
// debugging entry point for a state mismatch.
func firstDriveDiff(want, got *fleet.State) string {
	bySerial := make(map[string]monitor.DriveState, len(got.Drives))
	for _, e := range got.Drives {
		bySerial[e.Serial] = e.State
	}
	for _, e := range want.Drives {
		g, ok := bySerial[e.Serial]
		if !ok {
			return fmt.Sprintf("; drive %s missing", e.Serial)
		}
		if !reflect.DeepEqual(e.State, g) {
			return fmt.Sprintf("; first differing drive %s", e.Serial)
		}
	}
	if len(got.Drives) > len(want.Drives) {
		for _, e := range got.Drives {
			if _, ok := serialSet(want.Drives)[e.Serial]; !ok {
				return fmt.Sprintf("; unexpected drive %s", e.Serial)
			}
		}
	}
	return ""
}

func serialSet(entries []fleet.DriveEntry) map[string]struct{} {
	set := make(map[string]struct{}, len(entries))
	for _, e := range entries {
		set[e.Serial] = struct{}{}
	}
	return set
}

// MergeStates folds the canonical states of disjoint cluster nodes
// into one fleet-wide canonical state, comparable against a single
// shadow. The node states must partition the fleet: a serial appearing
// on two nodes is a split-brain and an error. Models, normalizer and
// monitor config come from the first state (every node of a cluster
// serves the same trained models); quality ledgers sum, drives
// concatenate and re-sort, and the fleet clock is the newest node's.
func MergeStates(states ...*fleet.State) (*fleet.State, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("loadgen: merging zero states")
	}
	merged := &fleet.State{
		MonitorCfg:   states[0].MonitorCfg,
		Models:       states[0].Models,
		Norm:         states[0].Norm,
		SSDNorm:      states[0].SSDNorm,
		ModelVersion: states[0].ModelVersion,
	}
	seen := map[string]struct{}{}
	for _, st := range states {
		for _, e := range st.Drives {
			if _, dup := seen[e.Serial]; dup {
				return nil, fmt.Errorf("loadgen: serial %s present on two nodes — split-brain", e.Serial)
			}
			seen[e.Serial] = struct{}{}
			merged.Drives = append(merged.Drives, e)
		}
		merged.Quality.Merge(&st.Quality)
		if st.HasHour && (!merged.HasHour || st.MaxHour > merged.MaxHour) {
			merged.MaxHour = st.MaxHour
		}
		merged.HasHour = merged.HasHour || st.HasHour
	}
	sort.Slice(merged.Drives, func(i, j int) bool {
		return merged.Drives[i].Serial < merged.Drives[j].Serial
	})
	return merged, nil
}

// CompareAlerts requires two alert-key streams to be equal. Ordered
// comparison asserts record-for-record identity in sequence; unordered
// comparison (for streams collected across concurrent clients, where
// only per-drive order is defined) sorts both sides first.
func CompareAlerts(wantLabel, gotLabel string, want, got []string, ordered bool) error {
	if !ordered {
		want = append([]string(nil), want...)
		got = append([]string(nil), got...)
		sort.Strings(want)
		sort.Strings(got)
	}
	if reflect.DeepEqual(want, got) {
		return nil
	}
	return fmt.Errorf("alert mismatch between %s and %s:\n%s",
		wantLabel, gotLabel, DiffStrings(wantLabel, gotLabel, want, got))
}

// DiffStrings reports the first few entries present in one slice but
// not the other (as multisets), labeled by side.
func DiffStrings(wantLabel, gotLabel string, want, got []string) string {
	onlyWant, onlyGot := setDiff(want, got), setDiff(got, want)
	var b strings.Builder
	fmt.Fprintf(&b, "  %s: %d alerts, %s: %d alerts\n", wantLabel, len(want), gotLabel, len(got))
	if len(onlyWant) == 0 && len(onlyGot) == 0 && len(want) == len(got) {
		b.WriteString("  same multiset, different order\n")
	}
	for i, s := range onlyWant {
		if i >= 5 {
			fmt.Fprintf(&b, "  ... and %d more missing\n", len(onlyWant)-i)
			break
		}
		fmt.Fprintf(&b, "  missing from %s: %s\n", gotLabel, s)
	}
	for i, s := range onlyGot {
		if i >= 5 {
			fmt.Fprintf(&b, "  ... and %d more extra\n", len(onlyGot)-i)
			break
		}
		fmt.Fprintf(&b, "  extra in %s:   %s\n", gotLabel, s)
	}
	return b.String()
}

// setDiff returns the elements of a not matched by an element of b,
// multiset-style: a duplicate in a needs a duplicate in b.
func setDiff(a, b []string) []string {
	counts := map[string]int{}
	for _, s := range b {
		counts[s]++
	}
	var out []string
	for _, s := range a {
		if counts[s] > 0 {
			counts[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}

// StateFingerprint hashes a canonical state — per-drive monitor state
// plus the fleet quality counters — into a short hex digest. Two runs
// that agree on every record agree on the fingerprint; it is the
// report-sized stand-in for a full state diff. (fmt renders map keys
// sorted, so the digest is deterministic.)
func StateFingerprint(st *fleet.State) string {
	h := fnv.New64a()
	for _, e := range st.Drives {
		fmt.Fprintf(h, "%s|%v|%v|%d|%v|%d|%v|%v\n",
			e.Serial, e.State.Class, e.State.Tracked, e.State.LastHour, e.State.Seen,
			e.State.Severity, e.State.Recent, e.State.Ledger)
	}
	fmt.Fprintf(h, "q|%d|%d|%d|%v|%v\n",
		st.Quality.RowsRead, st.Quality.RowsQuarantined, st.Quality.RowsDropped,
		st.Quality.ByKind, st.Quality.ByField)
	fmt.Fprintf(h, "h|%d|%v\n", st.MaxHour, st.HasHour)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Shadow is the in-process reference monitor of a load run: a fleet
// store built from the same models and configuration as the system
// under test, fed the same observations batch by batch. After a replay,
// the served store must match the shadow's state record-for-record and
// its alert stream as a multiset.
type Shadow struct {
	store  *fleet.Store
	alerts []string
	// ingested/kept/quarantined accumulate the per-batch accounting so
	// the /metrics invariant can be checked against an exact expectation.
	ingested, quarantined int
}

// NewShadow builds a shadow store. The shard count is free to differ
// from the system under test — CanonicalState is layout-independent.
func NewShadow(models []monitor.GroupModel, norm *smart.Normalizer, cfg fleet.Config) (*Shadow, error) {
	store, err := fleet.New(models, norm, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building shadow store: %w", err)
	}
	return &Shadow{store: store}, nil
}

// NewShadowMulti is NewShadow for class-stamped model sets (mixed
// HDD+SSD fleets).
func NewShadowMulti(models []monitor.GroupModel, norms monitor.ClassNorms, cfg fleet.Config) (*Shadow, error) {
	store, err := fleet.NewMulti(models, norms, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building shadow store: %w", err)
	}
	return &Shadow{store: store}, nil
}

// Apply ingests one batch into the shadow, recording its alerts and
// accounting. It enforces the ledger invariant on its own result.
func (sh *Shadow) Apply(obs []fleet.Observation) error {
	res := sh.store.IngestBatch(obs)
	sh.alerts = append(sh.alerts, BatchAlertKeys(res)...)
	sh.ingested += res.Ingested
	sh.quarantined += res.Quality.RowsQuarantined
	if res.Quality.RowsRead != res.Ingested || res.Ingested != res.Quality.RowsKept()+res.Quality.RowsQuarantined {
		return fmt.Errorf("loadgen: shadow ledger invariant violated: read=%d ingested=%d kept=%d quarantined=%d",
			res.Quality.RowsRead, res.Ingested, res.Quality.RowsKept(), res.Quality.RowsQuarantined)
	}
	return nil
}

// ApplyChunk ingests one phase's per-stream batches, stream-major.
// Within a stream the batches are in arrival order; across streams the
// drives are disjoint, so any stream order yields the same state.
func (sh *Shadow) ApplyChunk(chunk [][]*Batch) error {
	for _, q := range chunk {
		for _, b := range q {
			if err := sh.Apply(b.Obs); err != nil {
				return err
			}
		}
	}
	return nil
}

// AlertKeys returns the accumulated alert keys in ingestion order.
func (sh *Shadow) AlertKeys() []string { return sh.alerts }

// Ingested and Quarantined return the accumulated accounting.
func (sh *Shadow) Ingested() int    { return sh.ingested }
func (sh *Shadow) Quarantined() int { return sh.quarantined }

// State returns the shadow's canonical state.
func (sh *Shadow) State() *fleet.State { return CanonicalState(sh.store) }

// Store exposes the underlying store (for direct queries in tests).
func (sh *Shadow) Store() *fleet.Store { return sh.store }
