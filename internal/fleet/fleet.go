// Package fleet is the fleet-state layer of the serving subsystem: a
// sharded, lock-striped store that owns one monitor-backed drive state
// per serial number. Serials hash onto a power-of-two number of shards
// with FNV-1a; each shard guards its own monitor.Monitor with its own
// mutex, so concurrent ingestion and queries for different drives
// contend only when they land on the same shard. Batched ingestion fans
// out across shards via internal/parallel while preserving per-drive
// arrival order, which keeps the per-drive alert stream identical to a
// sequential replay at any shard and worker count.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"disksig/internal/monitor"
	"disksig/internal/parallel"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// Config parameterizes the store.
type Config struct {
	// Shards is the number of lock stripes, rounded up to the next power
	// of two; <= 0 means 8.
	Shards int
	// Monitor configures every shard's monitor identically (thresholds,
	// smoothing).
	Monitor monitor.Config
	// TTLHours makes EvictStale discard drives whose last sample is more
	// than this many hours behind the fleet's newest sample; <= 0
	// disables TTL eviction.
	TTLHours int
	// Workers bounds the shard fan-out of IngestBatch; <= 0 means
	// GOMAXPROCS. Like everywhere else in the pipeline it is a resource
	// bound, never a result knob.
	Workers int
	// HistoryHours retains each drive's most recent kept records (one
	// per distinct hour, keep-latest on repeats) as retraining
	// telemetry; <= 0 retains nothing. It is a deployment knob like
	// Shards: restoring a state into a store with a smaller cap
	// truncates to the newest records, and a cap of 0 drops history.
	HistoryHours int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	c.Shards = nextPowerOfTwo(c.Shards)
	return c
}

func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Observation is one serial-identified SMART sample, the unit of
// ingestion.
type Observation struct {
	Serial string
	// Class is the drive's device class; the zero value is HDD, so
	// observations from class-unaware sources score against the legacy
	// models unchanged.
	Class  smart.DeviceClass
	Record smart.Record
}

// Serials gives a decoded batch's observations their serials as slices
// of one string, so a batch costs one allocation however many records
// it holds. A decoder adds each kept observation's serial in order and
// then calls Assign. The store copies a serial only when it starts
// tracking the drive, so the string dies with the batch. The zero value
// is ready to use; a Serials is not safe for concurrent use.
type Serials struct {
	buf  []byte
	ends []int
}

// Reset empties s for the next batch, keeping its storage.
func (s *Serials) Reset() { s.buf, s.ends = s.buf[:0], s.ends[:0] }

// Add appends the serial of the next kept observation.
func (s *Serials) Add(serial []byte) {
	s.buf = append(s.buf, serial...)
	s.ends = append(s.ends, len(s.buf))
}

// Assign copies the serials added since Reset into one string and gives
// obs[i] the i-th of them.
func (s *Serials) Assign(obs []Observation) {
	all := string(s.buf)
	start := 0
	for i, end := range s.ends {
		obs[i].Serial = all[start:end]
		start = end
	}
}

// Alert is a monitor alert tagged with the drive's serial number (the
// embedded Alert.DriveID is the store's internal per-shard ID and is not
// meaningful to callers).
type Alert struct {
	Serial string
	// ModelVersion is the version of the model set that scored the
	// record and raised this alert. The swap barrier guarantees a batch
	// is scored by exactly one version.
	ModelVersion int
	monitor.Alert
}

// DriveHealth is the store's current view of one drive, the /v1/drives
// query result.
type DriveHealth struct {
	Serial string
	monitor.DriveStatus
}

// BatchResult accounts for one IngestBatch call.
type BatchResult struct {
	// Ingested is the number of observations submitted.
	Ingested int
	// Alerts holds the escalations raised by this batch, in submission
	// order (deterministic at any worker count).
	Alerts []Alert
	// Quality is this batch's quarantine ledger delta: RowsRead equals
	// Ingested, and RowsRead = RowsKept() + RowsQuarantined.
	Quality quality.Report
	// ModelVersion is the model-set version that scored every record of
	// this batch. The swap barrier excludes hot swaps for the duration
	// of a batch, so a single version always applies.
	ModelVersion int
}

// shard is one lock stripe: a monitor plus the serial <-> local-ID
// mapping. A drive's local ID is its slot in the shard's monitor, so the
// monitor keeps no ID map of its own and one free list serves both.
// Local IDs are dense per shard: a drive that leaves (Remove, EvictStale)
// frees its ID for the next new drive, so serials and the monitor's slot
// table stay bounded by the live drives, and a drive that reports again
// after leaving restarts with fresh state.
type shard struct {
	mu      sync.Mutex
	mon     *monitor.Monitor
	ids     map[string]int
	serials []string
	free    []int
	maxHour int
	// history holds each drive's newest kept records by ID (cap
	// histCap, ring semantics), the raw telemetry the retrainer
	// harvests. Quarantined and dropped records never enter it: it
	// mirrors exactly the records that shaped monitor state. It stays
	// nil when histCap <= 0.
	history [][]smart.Record
	histCap int
}

// assign gives a new serial an ID, reusing a freed one first.
func (sh *shard) assign(serial string) int {
	var id int
	if n := len(sh.free); n > 0 {
		id = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.serials[id] = serial
	} else {
		id = len(sh.serials)
		sh.serials = append(sh.serials, serial)
		if sh.histCap > 0 {
			sh.history = append(sh.history, nil)
		}
	}
	sh.ids[serial] = id
	return id
}

// release frees a drive's ID and history; the caller has already made
// the monitor forget the drive, or never gave it state.
func (sh *shard) release(id int) {
	delete(sh.ids, sh.serials[id])
	sh.serials[id] = ""
	if sh.histCap > 0 {
		sh.history[id] = nil
	}
	sh.free = append(sh.free, id)
}

// recordHistory appends a kept record to a drive's history ring. A
// repeated hour replaces the tail (keep-latest, matching the monitor's
// smoothing-window semantics); a full ring slides in place.
func (sh *shard) recordHistory(id int, rec *smart.Record) {
	if sh.histCap <= 0 {
		return
	}
	h := sh.history[id]
	switch {
	case len(h) > 0 && h[len(h)-1].Hour == rec.Hour:
		h[len(h)-1] = *rec
	case len(h) < sh.histCap:
		h = append(h, *rec)
	default:
		copy(h, h[1:])
		h[len(h)-1] = *rec
	}
	sh.history[id] = h
}

// Store is the sharded fleet-state store.
type Store struct {
	cfg Config
	// swapMu is the model-swap barrier: Ingest/IngestBatch/ExportState
	// hold it shared, SwapModels holds it exclusively. No batch is ever
	// scored by two model versions, and no export straddles a swap.
	swapMu sync.RWMutex
	// set is the serving model set, retained (read-only) so ExportState
	// can emit a self-contained snapshot that restores without
	// retraining. Its version starts at 1 for a freshly trained store,
	// and every promoted swap must increase it. Guarded by swapMu once
	// the store is live.
	set    monitor.ModelSet
	shards []*shard
	mask   uint64
	// scratch pools the per-batch fan-out buffers of IngestBatch so the
	// steady-state ingest hot path allocates nothing per batch.
	scratch sync.Pool
}

// indexedAlert is an alert tagged with its submission index, so alerts
// collected per shard can be merged back into submission order.
type indexedAlert struct {
	idx   int
	alert Alert
}

// batchScratch is the reusable fan-out state of one IngestBatch call.
type batchScratch struct {
	perShard [][]int
	alerts   [][]indexedAlert
	quality  []qualityCounters
	merged   []indexedAlert
}

func (s *Store) getScratch() *batchScratch {
	if sc, ok := s.scratch.Get().(*batchScratch); ok {
		for i := range sc.perShard {
			sc.perShard[i] = sc.perShard[i][:0]
			sc.alerts[i] = sc.alerts[i][:0]
		}
		sc.merged = sc.merged[:0]
		return sc
	}
	return &batchScratch{
		perShard: make([][]int, len(s.shards)),
		alerts:   make([][]indexedAlert, len(s.shards)),
		quality:  make([]qualityCounters, len(s.shards)),
		merged:   nil,
	}
}

// FromSet builds a store whose shards each score drives with the model
// set (shared read-only across shards; predictors must be safe for
// concurrent Predict calls, which trees and forests are). Observations
// are scored only against models of their own class. The store serves
// the set's version, or version 1 when the set's is below 1.
func FromSet(set monitor.ModelSet, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if set.Version < 1 {
		set.Version = 1
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		mon, err := monitor.FromSet(set, cfg.Monitor)
		if err != nil {
			return nil, fmt.Errorf("fleet: building shard %d: %w", i, err)
		}
		shards[i] = &shard{mon: mon, ids: map[string]int{}, maxHour: math.MinInt,
			histCap: cfg.HistoryHours}
	}
	return &Store{cfg: cfg, set: set, shards: shards, mask: uint64(cfg.Shards - 1)}, nil
}

// New builds a store over HDD-class group models and the normalizer they
// were trained with: FromSet over a one-class set.
func New(models []monitor.GroupModel, norm *smart.Normalizer, cfg Config) (*Store, error) {
	return FromSet(monitor.ModelSet{Models: models, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: norm}}, cfg)
}

// fnv1a is the 64-bit FNV-1a hash of the serial, the shard-selection
// function.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func (s *Store) shardIndex(serial string) int { return int(fnv1a(serial) & s.mask) }

// Shards returns the shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// Ingest scores one observation, returning a non-nil alert when the
// drive's severity escalates. Defective telemetry is quarantined by the
// shard monitor and accounted in Quality.
func (s *Store) Ingest(serial string, rec smart.Record) *Alert {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	sh := s.shards[s.shardIndex(serial)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a := sh.ingestLocked(serial, smart.HDD, &rec)
	if a != nil {
		a.ModelVersion = s.set.Version
	}
	return a
}

// ingestLocked scores one record in place; the caller holds sh.mu.
func (sh *shard) ingestLocked(serial string, class smart.DeviceClass, rec *smart.Record) *Alert {
	id, ok := sh.ids[serial]
	if !ok {
		// The caller's serial may slice a whole decoded batch; a copy
		// lets that batch go.
		id = sh.assign(strings.Clone(serial))
	}
	if rec.Hour > sh.maxHour {
		sh.maxHour = rec.Hour
	}
	a, kept := sh.mon.IngestRecord(id, class, rec)
	if kept {
		sh.recordHistory(id, rec)
	}
	if a != nil {
		return &Alert{Serial: sh.serials[id], Alert: *a}
	}
	return nil
}

// IngestBatch scores a batch of observations concurrently, one worker
// per occupied shard (bounded by Config.Workers). Observations of the
// same drive are applied in submission order, and the returned alerts
// are in submission order, so the result is identical to calling Ingest
// sequentially — sharding and workers change only the wall clock.
func (s *Store) IngestBatch(obs []Observation) BatchResult {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	res := BatchResult{Ingested: len(obs), ModelVersion: s.set.Version}
	if len(obs) == 0 {
		return res
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	for i := range obs {
		si := s.shardIndex(obs[i].Serial)
		sc.perShard[si] = append(sc.perShard[si], i)
	}
	parallel.ForEach(s.cfg.Workers, len(s.shards), func(si int) {
		idxs := sc.perShard[si]
		if len(idxs) == 0 {
			sc.quality[si] = qualityCounters{}
			return
		}
		sh := s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		before := snapshotCounters(sh.mon.Quality())
		for _, i := range idxs {
			o := &obs[i]
			if a := sh.ingestLocked(o.Serial, o.Class, &o.Record); a != nil {
				sc.alerts[si] = append(sc.alerts[si], indexedAlert{idx: i, alert: *a})
			}
		}
		sc.quality[si] = deltaCounters(before, sh.mon.Quality())
	})
	for _, as := range sc.alerts {
		sc.merged = append(sc.merged, as...)
	}
	if len(sc.merged) > 1 {
		sort.Slice(sc.merged, func(i, j int) bool { return sc.merged[i].idx < sc.merged[j].idx })
	}
	res.Alerts = make([]Alert, len(sc.merged))
	for i, ia := range sc.merged {
		res.Alerts[i] = ia.alert
		res.Alerts[i].ModelVersion = s.set.Version
	}
	for si := range sc.quality {
		d := &sc.quality[si]
		res.Quality.RowsRead += d.rowsRead
		res.Quality.RowsQuarantined += d.rowsQuarantined
		for k, n := range d.byKind {
			res.Quality.ByKind[k] += n
		}
	}
	return res
}

// qualityCounters is the subtractable part of a quality.Report, used to
// compute per-batch ledger deltas from the shards' cumulative ledgers.
// ByKind mirrors quality.Report's fixed per-kind array, so snapshots and
// deltas are plain value copies with no per-batch map churn.
type qualityCounters struct {
	rowsRead, rowsQuarantined int
	byKind                    [len(quality.Report{}.ByKind)]int
}

func snapshotCounters(r *quality.Report) qualityCounters {
	return qualityCounters{
		rowsRead:        r.RowsRead,
		rowsQuarantined: r.RowsQuarantined,
		byKind:          r.ByKind,
	}
}

// deltaCounters subtracts a snapshot from a shard's cumulative ledger,
// yielding the batch's contribution.
func deltaCounters(before qualityCounters, after *quality.Report) qualityCounters {
	d := qualityCounters{
		rowsRead:        after.RowsRead - before.rowsRead,
		rowsQuarantined: after.RowsQuarantined - before.rowsQuarantined,
	}
	for k := range after.ByKind {
		d.byKind[k] = after.ByKind[k] - before.byKind[k]
	}
	return d
}

// Drive returns the current health of one drive.
func (s *Store) Drive(serial string) (DriveHealth, bool) {
	sh := s.shards[s.shardIndex(serial)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.ids[serial]
	if !ok {
		return DriveHealth{}, false
	}
	st, ok := sh.mon.Status(id)
	if !ok {
		return DriveHealth{}, false
	}
	return DriveHealth{Serial: serial, DriveStatus: st}, true
}

// Remove discards a decommissioned drive's state, reporting whether the
// drive was tracked.
func (s *Store) Remove(serial string) bool {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	sh := s.shards[s.shardIndex(serial)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.ids[serial]
	if !ok {
		return false
	}
	tracked := sh.mon.Forget(id)
	sh.release(id)
	return tracked
}

// Tracked returns the number of drives currently tracked across all
// shards.
func (s *Store) Tracked() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.mon.Tracked()
		sh.mu.Unlock()
	}
	return n
}

// MaxHour returns the newest sample hour seen fleet-wide, or false when
// nothing has been ingested.
func (s *Store) MaxHour() (int, bool) {
	max, any := math.MinInt, false
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.mon.Tracked() > 0 || sh.maxHour > math.MinInt {
			any = true
			if sh.maxHour > max {
				max = sh.maxHour
			}
		}
		sh.mu.Unlock()
	}
	return max, any
}

// EvictStale discards drives whose last sample is more than
// Config.TTLHours behind the fleet's newest sample, returning how many
// were evicted. With TTLHours <= 0 it is a no-op. Time is telemetry
// time, not wall clock, so replayed fleets age deterministically.
func (s *Store) EvictStale() int {
	if s.cfg.TTLHours <= 0 {
		return 0
	}
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	max, ok := s.MaxHour()
	if !ok {
		return 0
	}
	cutoff := max - s.cfg.TTLHours
	if cutoff > max {
		// max - TTLHours underflowed (the fleet's newest hour is near
		// math.MinInt): a wrapped cutoff would evict every drive,
		// including one whose only sample just arrived. No hour can be
		// older than MinInt, so clamp to "evict nothing".
		cutoff = math.MinInt
	}
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.mon.Each(func(v monitor.Verdict) {
			if v.LastHour < cutoff {
				sh.mon.Forget(v.DriveID)
				sh.release(v.DriveID)
				n++
			}
		})
		sh.mu.Unlock()
	}
	return n
}

// Quality returns the merged quarantine ledger of every shard monitor.
func (s *Store) Quality() quality.Report {
	var rep quality.Report
	for _, sh := range s.shards {
		sh.mu.Lock()
		rep.Merge(sh.mon.Quality())
		sh.mu.Unlock()
	}
	return rep
}
