package fleet

import (
	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// ShardStats is one shard's occupancy, the load-balance view of the
// FNV-1a serial hashing.
type ShardStats struct {
	Shard  int
	Drives int
}

// ClassSummary is one device class's share of the fleet roll-up.
type ClassSummary struct {
	// Drives is the number of tracked drives of this class.
	Drives int
	// BySeverity counts the class's drives per severity name.
	BySeverity map[string]int
	// AtRisk lists the class's most degraded drives, ascending by
	// degradation (ties by serial), capped by the Summary call's topN —
	// the per-class triage list: an SSD cliff and a slowly degrading
	// HDD must not compete for the same dashboard slots.
	AtRisk []DriveHealth
}

// Summary is the fleet-wide roll-up served by /v1/fleet/summary.
type Summary struct {
	// Drives is the number of tracked drives.
	Drives int
	// MaxHour is the newest sample hour seen (telemetry time); -1 before
	// any ingest.
	MaxHour int
	// BySeverity counts tracked drives per severity name.
	BySeverity map[string]int
	// ByType counts drives at Watch or worse per failure-type name of
	// their most pessimistic group model — the alert roll-up that tells
	// an operator which failure mode is trending.
	ByType map[string]int
	// ByClass rolls the fleet up per device class, keyed by class name.
	// Classes with no tracked drives have no entry.
	ByClass map[string]*ClassSummary
	// Shards is the per-shard occupancy.
	Shards []ShardStats
	// AtRisk lists the most degraded drives, ascending by degradation
	// (worst first, ties by serial), capped by the Summary call's topN.
	AtRisk []DriveHealth
}

// numSeverities and numTypes size Summary's counters: every tracked
// drive has a severity in [Healthy, Critical], and every model trained
// by the pipeline has one of the three core failure types.
const (
	numSeverities = int(monitor.Critical) + 1
	numTypes      = int(core.ReadWriteHead) + 1
)

// Summary computes the fleet-wide roll-up. topN caps the AtRisk list;
// <= 0 means no at-risk list. Each shard's drive verdicts are walked
// once under its lock, counting into fixed arrays; only a drive that
// would enter a bounded top-N heap is read in full (with its
// time-to-failure estimate) and offered, so a call costs O(drives) time
// and O(topN) memory. Shards are read one at a time, so the summary is
// per-shard consistent but not a global atomic cut — the right trade for
// a dashboard read that must not stall ingestion.
func (s *Store) Summary(topN int) Summary {
	sum := Summary{MaxHour: -1, Shards: make([]ShardStats, len(s.shards))}
	var (
		bySev  [numSeverities]int
		byType [numTypes]int
		// otherTypes counts types outside [0, numTypes), which only a
		// hand-built or corrupted model set can carry.
		otherTypes map[core.FailureType]int
		classN     [smart.NumClasses]int
		classSev   [smart.NumClasses][numSeverities]int
		top        = atRiskHeap{n: topN}
		classTop   [smart.NumClasses]atRiskHeap
	)
	for c := range classTop {
		classTop[c].n = topN
	}
	for si, sh := range s.shards {
		sh.mu.Lock()
		tracked := sh.mon.Tracked()
		sum.Shards[si] = ShardStats{Shard: si, Drives: tracked}
		if tracked > 0 && sh.maxHour > sum.MaxHour {
			sum.MaxHour = sh.maxHour
		}
		sh.mon.Each(func(v monitor.Verdict) {
			bySev[v.Severity]++
			classN[v.Class]++
			classSev[v.Class][v.Severity]++
			if v.Severity >= monitor.Watch {
				if v.Type >= 0 && int(v.Type) < numTypes {
					byType[v.Type]++
				} else {
					if otherTypes == nil {
						otherTypes = map[core.FailureType]int{}
					}
					otherTypes[v.Type]++
				}
			}
			if topN <= 0 {
				return
			}
			serial := sh.serials[v.DriveID]
			if !top.wants(v.Degradation, serial) && !classTop[v.Class].wants(v.Degradation, serial) {
				return
			}
			st, _ := sh.mon.Status(v.DriveID)
			dh := DriveHealth{Serial: serial, DriveStatus: st}
			top.offer(dh)
			classTop[v.Class].offer(dh)
		})
		sh.mu.Unlock()
	}

	sum.BySeverity = severityCounts(&bySev)
	sum.ByType = map[string]int{}
	for t, n := range byType {
		if n > 0 {
			sum.ByType[core.FailureType(t).String()] = n
		}
	}
	for t, n := range otherTypes {
		sum.ByType[t.String()] = n
	}
	sum.ByClass = map[string]*ClassSummary{}
	for c, n := range classN {
		if n == 0 {
			continue
		}
		sum.Drives += n
		sum.ByClass[smart.DeviceClass(c).String()] = &ClassSummary{
			Drives:     n,
			BySeverity: severityCounts(&classSev[c]),
			AtRisk:     classTop[c].sorted(),
		}
	}
	sum.AtRisk = top.sorted()
	return sum
}

// severityCounts names the non-zero severity counters.
func severityCounts(counts *[numSeverities]int) map[string]int {
	out := map[string]int{}
	for sev, n := range counts {
		if n > 0 {
			out[monitor.Severity(sev).String()] = n
		}
	}
	return out
}

// atRiskHeap keeps the n (> 0) most degraded drives offered to it. It
// is a max-heap in the at-risk order (degradation ascending, ties by
// serial), so its root is the least degraded drive kept and the one a
// more degraded drive displaces. It stays nil until a drive is kept,
// and never holds more than n drives.
type atRiskHeap struct {
	n     int
	items []DriveHealth
}

// RanksBefore is the at-risk order: a drive of degradation aDeg and
// serial aSerial ranks ahead of one of bDeg and bSerial when it is more
// degraded (lower), ties broken by serial. A +Inf degradation (a drive
// whose windows a model swap emptied) ranks last. The router re-ranks
// merged node summaries with it.
func RanksBefore(aDeg float64, aSerial string, bDeg float64, bSerial string) bool {
	if aDeg != bDeg {
		return aDeg < bDeg
	}
	return aSerial < bSerial
}

// atRiskBefore reports whether a ranks ahead of b in the at-risk order.
func atRiskBefore(a, b *DriveHealth) bool {
	return RanksBefore(a.Degradation, a.Serial, b.Degradation, b.Serial)
}

// wants reports whether offer would keep a drive of degradation deg and
// this serial, so a caller reads the drive in full only when it would.
func (h *atRiskHeap) wants(deg float64, serial string) bool {
	return len(h.items) < h.n || RanksBefore(deg, serial, h.items[0].Degradation, h.items[0].Serial)
}

func (h *atRiskHeap) offer(dh DriveHealth) {
	if len(h.items) < h.n {
		h.items = append(h.items, dh)
		for i := len(h.items) - 1; i > 0; {
			parent := (i - 1) / 2
			if !atRiskBefore(&h.items[parent], &h.items[i]) {
				break
			}
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			i = parent
		}
		return
	}
	if !atRiskBefore(&dh, &h.items[0]) {
		return
	}
	h.items[0] = dh
	h.siftDown(len(h.items))
}

// siftDown restores the heap order of items[:end] after its root
// changed.
func (h *atRiskHeap) siftDown(end int) {
	for i := 0; ; {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < end && atRiskBefore(&h.items[worst], &h.items[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// sorted heap-sorts the kept drives in place into the at-risk order and
// returns them.
func (h *atRiskHeap) sorted() []DriveHealth {
	for end := len(h.items) - 1; end > 0; end-- {
		h.items[0], h.items[end] = h.items[end], h.items[0]
		h.siftDown(end)
	}
	return h.items
}
