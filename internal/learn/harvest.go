// Package learn is the online-learning subsystem: it harvests training
// telemetry from a live fleet snapshot, re-runs the characterization
// pipeline off the ingest hot path, shadow-evaluates the candidate
// model set against the serving one on held-out drives, and promotes
// the candidate only when it wins by a configurable margin. The paper
// extracts signatures once from a fixed observation window; a drifting
// production fleet (new drive generations, shifting degradation
// dynamics) needs this periodic re-characterization to keep alert
// quality from decaying (ROADMAP item 2).
package learn

import (
	"fmt"
	"hash/fnv"

	"disksig/internal/fleet"
	"disksig/internal/smart"
)

// Harvest labeling parameters. Labels are self-relative: a drive is
// called failing when its newest records are degraded relative to its
// own oldest retained records, so the heuristic needs no fleet-wide
// thresholds and survives cohort drift (the very thing retraining is
// for). The eight health-value attributes (indices RRER..SUT) decrease
// as errors mount; raw counters and environmental attributes are
// excluded (POH and TC drift for healthy drives too).
const (
	// harvestMinRecords is the least history a drive needs to be
	// labeled at all; shorter histories train as good drives only if
	// they are long enough to normalize (they never enter the failed
	// cohort).
	harvestMinRecords = 24
	// harvestWindow caps the head/tail comparison windows.
	harvestWindow = 48
	// strongDropPoints and moderateDropPoints are health-value drops
	// (head mean minus tail mean) that mark an attribute as strongly or
	// moderately degraded. Sample noise is well under one point, and
	// the synthetic failure modes ramp their attributes by tens of
	// points, so the bands are wide.
	strongDropPoints   = 10.0
	moderateDropPoints = 4.0
	// holdoutMod holds out every drive whose serial hash is 0 mod this
	// for shadow evaluation; they never enter training.
	holdoutMod = 5
)

// EvalDrive is one held-out drive: its retained telemetry and its
// harvest label, the ground truth of the shadow evaluation.
type EvalDrive struct {
	Serial  string
	Failing bool
	Records []smart.Record
}

// HarvestResult is the training and evaluation material extracted from
// one fleet snapshot.
type HarvestResult struct {
	// Failed and Good are the training profiles (held-out drives
	// excluded). DriveIDs are dense per cohort in serial order.
	Failed []*smart.Profile
	Good   []*smart.Profile
	// Eval holds the held-out drives in serial order.
	Eval []EvalDrive
	// Fingerprint is the deterministic FNV-64a digest of every
	// harvested drive's serial, hour range and label: two harvests of
	// identical telemetry agree exactly.
	Fingerprint string
	// Skipped counts the drives not harvested: those with too little
	// history, and every drive of a class other than HDD, which
	// retraining does not cover.
	Skipped int
}

// Harvest extracts labeled training profiles and a held-out evaluation
// cohort from the retained histories of a fleet state's HDDs. It is
// deterministic: State.Drives is sorted by serial and the holdout split
// hashes serials, so the same state always yields the same harvest.
func Harvest(st *fleet.State) (*HarvestResult, error) {
	if st == nil {
		return nil, fmt.Errorf("learn: harvesting nil state")
	}
	res := &HarvestResult{}
	digest := fnv.New64a()
	for _, e := range st.Drives {
		n := len(e.History)
		if n < harvestMinRecords || e.State.Class != smart.HDD {
			res.Skipped++
			continue
		}
		failing := labelFailing(e.History)
		fmt.Fprintf(digest, "%s|%d|%d|%d|%v\n", e.Serial, e.History[0].Hour, e.History[n-1].Hour, n, failing)
		if serialHash(e.Serial)%holdoutMod == 0 {
			res.Eval = append(res.Eval, EvalDrive{Serial: e.Serial, Failing: failing, Records: e.History})
			continue
		}
		p := &smart.Profile{Failed: failing, Records: e.History}
		if failing {
			p.DriveID = len(res.Failed)
			res.Failed = append(res.Failed, p)
		} else {
			p.DriveID = len(res.Good)
			res.Good = append(res.Good, p)
		}
	}
	res.Fingerprint = fmt.Sprintf("%016x", digest.Sum64())
	return res, nil
}

// labelFailing compares the drive's oldest and newest retained records:
// any health attribute that dropped strongly, or two that dropped
// moderately, marks the drive as failing. Multi-attribute because the
// failure modes differ in which attributes ramp (and some terminal
// deltas can be near zero for a given group).
func labelFailing(hist []smart.Record) bool {
	w := len(hist) / 4
	if w > harvestWindow {
		w = harvestWindow
	}
	if w < 1 {
		w = 1
	}
	moderate := 0
	for a := int(smart.RRER); a <= int(smart.SUT); a++ {
		var head, tail float64
		for i := 0; i < w; i++ {
			head += hist[i].Values[a]
			tail += hist[len(hist)-w+i].Values[a]
		}
		drop := (head - tail) / float64(w)
		if drop >= strongDropPoints {
			return true
		}
		if drop >= moderateDropPoints {
			moderate++
		}
	}
	return moderate >= 2
}

// serialHash is the FNV-64a hash of a serial, the holdout selector.
func serialHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
