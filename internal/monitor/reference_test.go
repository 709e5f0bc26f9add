package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"disksig/internal/core"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// referenceMonitor is the monitor's drive state as it was laid out
// before the slot table: one heap object per drive with a slice per
// model window, and a separate ledger map, both keyed by drive ID. It is
// kept as the reference the slot table must match step for step.
type referenceMonitor struct {
	cfg         Config
	models      []GroupModel
	norms       [smart.NumClasses]*smart.Normalizer
	classModels [smart.NumClasses]int
	drives      map[int]*referenceDrive
	ledgers     map[int]*DriveLedger
	quality     quality.Report
	normBuf     []float64
}

type referenceDrive struct {
	class    smart.DeviceClass
	lastHour int
	seen     bool
	severity Severity
	recent   [][]float64
}

// newReference builds a reference over a model set FromSet accepted.
func newReference(set ModelSet, cfg Config) *referenceMonitor {
	r := &referenceMonitor{
		cfg:     cfg.withDefaults(),
		models:  set.Models,
		norms:   set.Norms,
		drives:  map[int]*referenceDrive{},
		ledgers: map[int]*DriveLedger{},
		normBuf: make([]float64, smart.NumAttrs),
	}
	for _, m := range set.Models {
		r.classModels[m.Class]++
	}
	return r
}

func cloneLedger(l *DriveLedger) DriveLedger {
	c := DriveLedger{RowsRead: l.RowsRead, RowsQuarantined: l.RowsQuarantined}
	if len(l.ByKind) > 0 {
		c.ByKind = make(map[quality.Kind]int, len(l.ByKind))
		for k, n := range l.ByKind {
			c.ByKind[k] = n
		}
	}
	if len(l.ByField) > 0 {
		c.ByField = make(map[string]int, len(l.ByField))
		for f, n := range l.ByField {
			c.ByField[f] = n
		}
	}
	return c
}

func (r *referenceMonitor) IngestClass(driveID int, class smart.DeviceClass, rec smart.Record) (*Alert, bool) {
	if !class.Valid() || r.classModels[class] == 0 {
		r.note(driveID, quality.Issue{
			Kind: quality.BadField, Drive: strconv.Itoa(driveID),
			Field:  "device_class",
			Detail: fmt.Sprintf("no models for class %v", class),
		})
		r.addRows(driveID, 1, 1)
		return nil, false
	}
	if st, ok := r.drives[driveID]; ok && st.class != class {
		r.note(driveID, quality.Issue{
			Kind: quality.BadField, Drive: strconv.Itoa(driveID),
			Field:  "device_class",
			Detail: fmt.Sprintf("drive is %v, record claims %v", st.class, class),
		})
		r.addRows(driveID, 1, 1)
		return nil, false
	}
	bad := false
	for a := 0; a < int(smart.NumAttrs); a++ {
		if x := rec.Values[a]; math.IsNaN(x) || math.IsInf(x, 0) {
			bad = true
			r.note(driveID, quality.Issue{
				Kind: quality.NonFinite, Drive: strconv.Itoa(driveID),
				Field:  smart.Attr(a).String(),
				Detail: fmt.Sprintf("value %v", x),
			})
		}
	}
	if bad {
		r.addRows(driveID, 1, 1)
		return nil, false
	}
	st, ok := r.drives[driveID]
	if !ok {
		st = &referenceDrive{class: class, recent: make([][]float64, len(r.models))}
		for gi := range st.recent {
			st.recent[gi] = make([]float64, 0, r.cfg.Smoothing)
		}
		r.drives[driveID] = st
	}
	replace := false
	if st.seen {
		switch {
		case rec.Hour < st.lastHour:
			r.note(driveID, quality.Issue{
				Kind: quality.OutOfOrderTimestamp, Drive: strconv.Itoa(driveID),
				Detail: fmt.Sprintf("hour %d after hour %d", rec.Hour, st.lastHour),
			})
			r.addRows(driveID, 1, 1)
			return nil, false
		case rec.Hour == st.lastHour:
			r.note(driveID, quality.Issue{
				Kind: quality.DuplicateTimestamp, Drive: strconv.Itoa(driveID),
				Detail: fmt.Sprintf("hour %d repeated", rec.Hour),
			})
			r.addRows(driveID, 1, 0)
			replace = true
		default:
			r.addRows(driveID, 1, 0)
		}
	} else {
		r.addRows(driveID, 1, 0)
	}
	st.seen = true
	st.lastHour = rec.Hour
	normalized := r.norms[class].Normalize(rec.Values)
	copy(r.normBuf, normalized[:])
	for gi, gm := range r.models {
		if gm.Class != class {
			continue
		}
		score := gm.Predictor.Predict(r.normBuf)
		w := st.recent[gi]
		switch {
		case replace && len(w) > 0:
			w[len(w)-1] = score
		case len(w) < r.cfg.Smoothing:
			st.recent[gi] = append(w, score)
		default:
			copy(w, w[1:])
			w[len(w)-1] = score
		}
	}
	group, deg := r.worstGroup(st)
	severity := r.severityOf(deg)
	if severity > st.severity {
		st.severity = severity
		gm := r.models[group]
		return &Alert{
			DriveID: driveID, Class: class, Hour: rec.Hour, Severity: severity,
			Group: gm.Group, Type: gm.Type, Degradation: deg,
			HoursToFailure: hoursToFailure(gm, deg),
		}, true
	}
	st.severity = severity
	return nil, true
}

func (r *referenceMonitor) ledger(driveID int) *DriveLedger {
	led, ok := r.ledgers[driveID]
	if !ok {
		led = &DriveLedger{}
		r.ledgers[driveID] = led
	}
	return led
}

func (r *referenceMonitor) note(driveID int, iss quality.Issue) {
	r.quality.Note(iss, quality.Config{})
	led := r.ledger(driveID)
	if led.ByKind == nil {
		led.ByKind = map[quality.Kind]int{}
	}
	led.ByKind[iss.Kind]++
	if iss.Field != "" {
		if led.ByField == nil {
			led.ByField = map[string]int{}
		}
		led.ByField[iss.Field]++
	}
}

func (r *referenceMonitor) addRows(driveID, read, quarantined int) {
	r.quality.AddRows(read, quarantined, 0)
	led := r.ledger(driveID)
	led.RowsRead += read
	led.RowsQuarantined += quarantined
}

func (r *referenceMonitor) worstGroup(st *referenceDrive) (int, float64) {
	best, bestScore := 0, math.Inf(1)
	for gi := range r.models {
		if s := smoothedMedian(st.recent[gi]); s < bestScore {
			best, bestScore = gi, s
		}
	}
	return best, bestScore
}

func (r *referenceMonitor) severityOf(deg float64) Severity {
	switch {
	case deg < r.cfg.CriticalBelow:
		return Critical
	case deg < r.cfg.WarnBelow:
		return Warning
	case deg < r.cfg.WatchBelow:
		return Watch
	default:
		return Healthy
	}
}

func (r *referenceMonitor) Status(driveID int) (DriveStatus, bool) {
	st, ok := r.drives[driveID]
	if !ok {
		return DriveStatus{}, false
	}
	return r.status(driveID, st), true
}

func (r *referenceMonitor) Each(fn func(DriveStatus)) {
	for id, st := range r.drives {
		fn(r.status(id, st))
	}
}

func (r *referenceMonitor) status(driveID int, st *referenceDrive) DriveStatus {
	group, deg := r.worstGroup(st)
	gm := r.models[group]
	return DriveStatus{
		DriveID: driveID, Class: st.class, LastHour: st.lastHour, Severity: st.severity,
		Group: gm.Group, Type: gm.Type, Degradation: deg,
		HoursToFailure: hoursToFailure(gm, deg),
	}
}

func (r *referenceMonitor) Tracked() int { return len(r.drives) }

func (r *referenceMonitor) Forget(driveID int) bool {
	if led, ok := r.ledgers[driveID]; ok {
		r.quality.RowsRead -= led.RowsRead
		r.quality.RowsQuarantined -= led.RowsQuarantined
		for k, n := range led.ByKind {
			r.quality.ByKind[k] -= n
		}
		for f, n := range led.ByField {
			if r.quality.ByField[f] -= n; r.quality.ByField[f] == 0 {
				delete(r.quality.ByField, f)
			}
		}
		delete(r.ledgers, driveID)
	}
	if _, ok := r.drives[driveID]; !ok {
		return false
	}
	delete(r.drives, driveID)
	return true
}

func (r *referenceMonitor) Quality() *quality.Report { return &r.quality }

func (r *referenceMonitor) ExportDrives() map[int]DriveState {
	out := make(map[int]DriveState, len(r.ledgers))
	for id, led := range r.ledgers {
		out[id] = DriveState{Ledger: cloneLedger(led)}
	}
	for id, st := range r.drives {
		ds := out[id]
		ds.Tracked = true
		ds.Class = st.class
		ds.LastHour = st.lastHour
		ds.Seen = st.seen
		ds.Severity = st.severity
		ds.Recent = make([][]float64, len(st.recent))
		for gi, w := range st.recent {
			ds.Recent[gi] = append([]float64(nil), w...)
		}
		out[id] = ds
	}
	return out
}

// ImportDrive installs an exported state the way the monitor did before
// the slot table; the differential test only imports states ExportDrives
// produced, so it skips validation.
func (r *referenceMonitor) ImportDrive(driveID int, st DriveState) error {
	if _, ok := r.ledgers[driveID]; ok {
		return fmt.Errorf("reference: drive %d already has a ledger", driveID)
	}
	led := cloneLedger(&st.Ledger)
	r.ledgers[driveID] = &led
	r.quality.AddRows(led.RowsRead, led.RowsQuarantined, 0)
	for k, n := range led.ByKind {
		r.quality.ByKind[k] += n
	}
	for f, n := range led.ByField {
		if r.quality.ByField == nil {
			r.quality.ByField = map[string]int{}
		}
		r.quality.ByField[f] += n
	}
	if st.Tracked {
		recent := make([][]float64, len(st.Recent))
		for gi, w := range st.Recent {
			recent[gi] = append([]float64(nil), w...)
		}
		r.drives[driveID] = &referenceDrive{
			class: st.Class, lastHour: st.LastHour, seen: st.Seen,
			severity: st.Severity, recent: recent,
		}
	}
	return nil
}

// attrPredictor scores a record by one normalized attribute, so models
// of one class disagree and worstGroup has a real choice to make.
type attrPredictor struct{ attr smart.Attr }

func (p attrPredictor) Predict(x []float64) float64 { return 1 - 2*x[p.attr] }

// differentialModels returns two HDD models and, when mixed, one SSD
// model, each scoring a different attribute.
func differentialModels(mixed bool) ModelSet {
	hdd := testModels()[0]
	hdd2 := hdd
	hdd2.Group, hdd2.Type, hdd2.Predictor = 2, core.BadSector, attrPredictor{smart.Attr(1)}
	models := []GroupModel{hdd, hdd2}
	set := ModelSet{Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer()}}
	if mixed {
		ssd := hdd
		ssd.Class, ssd.Group, ssd.Type, ssd.Predictor = smart.SSD, 1, core.ReadWriteHead, attrPredictor{smart.Attr(2)}
		models = append(models, ssd)
		set.Norms[smart.SSD] = testNormalizer()
	}
	set.Models = models
	return set
}

// TestSlotTableMatchesReference drives the slot-table monitor and the
// map-based reference through the same seeded random streams — mixed
// classes, NaN/Inf, stale, duplicate and unserved-class records, Forget
// (also from inside Each) with new drives landing on the recycled slots,
// moves of exported states onto other IDs, and dense IDs on the slot
// path as well as sparse and negative ones through Sparse — and requires
// the same alerts, statuses, Each multiset, quality report and export
// after every step. The reference recomputes every verdict from the
// windows, so a record that leaves the windows alone (quarantined, stale
// or of the wrong class) must leave the cached verdict as it was, and one
// that changes them (a new hour, a duplicate hour's replacement, an
// import) must refresh it.
func TestSlotTableMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		mixed     bool
		smoothing int
		seed      int64
	}{
		{true, 3, 1}, {true, 1, 2}, {false, 3, 3}, {true, 5, 4},
	} {
		set := differentialModels(tc.mixed)
		cfg := Config{Smoothing: tc.smoothing}
		name := fmt.Sprintf("mixed=%v/smoothing=%d/seed=%d", tc.mixed, tc.smoothing, tc.seed)
		t.Run(name, func(t *testing.T) {
			m, err := FromSet(set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dense, sparse (the 1_000_000+DriveID of cmd/diskmon) and
			// negative IDs share one pool.
			var ids []int
			for i := 0; i < 24; i++ {
				ids = append(ids, i, 1_000_000+i)
			}
			ids = append(ids, -7, math.MaxInt32+5)
			differential(t, NewSparse(m), newReference(set, cfg), ids, tc.seed, 1500)
		})
		t.Run("slots/"+name, func(t *testing.T) {
			m, err := FromSet(set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The fleet's path: drive IDs are the monitor's slots.
			ids := make([]int, 48)
			for i := range ids {
				ids[i] = i
			}
			differential(t, m, newReference(set, cfg), ids, tc.seed, 1500)
		})
	}
}

// addressed is the drive-ID API that Monitor, addressed by slot, and
// Sparse, addressed by arbitrary ID, share.
type addressed interface {
	IngestClass(id int, class smart.DeviceClass, rec smart.Record) (*Alert, bool)
	Status(id int) (DriveStatus, bool)
	Forget(id int) bool
	ImportDrive(id int, st DriveState) error
	Each(fn func(Verdict))
	ExportDrives() map[int]DriveState
	Quality() *quality.Report
	Tracked() int
}

func differential(t *testing.T, m addressed, ref *referenceMonitor, ids []int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hour := map[int]int{}
	for step := 0; step < steps; step++ {
		id := ids[rng.Intn(len(ids))]
		var op string
		switch p := rng.Float64(); {
		case p < 0.80:
			op = "ingest"
			class := smart.DeviceClass(id & 1)
			switch q := rng.Float64(); {
			case q < 0.03:
				class = smart.DeviceClass(7)
			case q < 0.08:
				class = 1 - class
			}
			h := hour[id]
			switch q := rng.Float64(); {
			case q < 0.08:
				h -= 1 + rng.Intn(3)
			case q < 0.18:
			default:
				h += 1 + rng.Intn(3)
			}
			if h > hour[id] {
				hour[id] = h
			}
			var rec smart.Record
			rec.Hour = h
			for a := range rec.Values {
				rec.Values[a] = 2*rng.Float64() - 1
			}
			switch q := rng.Float64(); {
			case q < 0.04:
				rec.Values[rng.Intn(int(smart.NumAttrs))] = math.NaN()
			case q < 0.06:
				rec.Values[rng.Intn(int(smart.NumAttrs))] = math.Inf(-1)
			}
			a1, k1 := m.IngestClass(id, class, rec)
			a2, k2 := ref.IngestClass(id, class, rec)
			if k1 != k2 || !reflect.DeepEqual(a1, a2) {
				t.Fatalf("step %d: IngestClass(%d) = %v, %v; reference %v, %v", step, id, a1, k1, a2, k2)
			}
		case p < 0.88:
			op = "forget"
			if f1, f2 := m.Forget(id), ref.Forget(id); f1 != f2 {
				t.Fatalf("step %d: Forget(%d) = %v, reference %v", step, id, f1, f2)
			}
		case p < 0.91:
			// Evict during the walk, the way fleet.EvictStale does.
			op = "forget-in-each"
			mod := 2 + rng.Intn(3)
			m.Each(func(v Verdict) {
				if v.LastHour%mod == 0 {
					m.Forget(v.DriveID)
				}
			})
			ref.Each(func(st DriveStatus) {
				if st.LastHour%mod == 0 {
					ref.Forget(st.DriveID)
				}
			})
		default:
			// Move a drive's exported state to another ID (a handoff),
			// or fail to import onto a known one.
			op = "move"
			exported := m.ExportDrives()
			st, ok := exported[id]
			if !ok {
				break
			}
			to := ids[rng.Intn(len(ids))]
			if _, taken := exported[to]; taken && to != id {
				if m.ImportDrive(to, st) == nil {
					t.Fatalf("step %d: ImportDrive onto known drive %d accepted", step, to)
				}
				break
			}
			m.Forget(id)
			ref.Forget(id)
			if err := m.ImportDrive(to, st); err != nil {
				t.Fatalf("step %d: ImportDrive(%d): %v", step, to, err)
			}
			if err := ref.ImportDrive(to, st); err != nil {
				t.Fatal(err)
			}
			hour[to] = max(hour[to], hour[id])
		}
		compareToReference(t, m, ref, ids, fmt.Sprintf("step %d (%s %d)", step, op, id))
	}
}

func compareToReference(t *testing.T, m addressed, ref *referenceMonitor, ids []int, at string) {
	t.Helper()
	if m.Tracked() != ref.Tracked() {
		t.Fatalf("%s: Tracked = %d, reference %d", at, m.Tracked(), ref.Tracked())
	}
	for _, id := range ids {
		s1, ok1 := m.Status(id)
		s2, ok2 := ref.Status(id)
		if ok1 != ok2 || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: Status(%d) = %+v, %v; reference %+v, %v", at, id, s1, ok1, s2, ok2)
		}
	}
	// The walk hands out cached verdicts; the reference recomputes every
	// one from the drive's windows.
	walked := map[int]Verdict{}
	m.Each(func(v Verdict) {
		if _, dup := walked[v.DriveID]; dup {
			t.Fatalf("%s: Each visited drive %d twice", at, v.DriveID)
		}
		walked[v.DriveID] = v
	})
	recomputed := map[int]Verdict{}
	ref.Each(func(st DriveStatus) { recomputed[st.DriveID] = verdictOf(st) })
	if !reflect.DeepEqual(walked, recomputed) {
		t.Fatalf("%s: Each differs:\n%v\nreference\n%v", at, walked, recomputed)
	}
	if !reflect.DeepEqual(m.Quality(), ref.Quality()) {
		t.Fatalf("%s: Quality differs:\n%v\nreference\n%v", at, m.Quality(), ref.Quality())
	}
	if x1, x2 := m.ExportDrives(), ref.ExportDrives(); !reflect.DeepEqual(x1, x2) {
		t.Fatalf("%s: ExportDrives differs:\n%+v\nreference\n%+v", at, x1, x2)
	}
}

// verdictOf is the part of a status that Each hands out.
func verdictOf(st DriveStatus) Verdict {
	return Verdict{
		DriveID: st.DriveID, Class: st.Class, LastHour: st.LastHour,
		Severity: st.Severity, Type: st.Type, Degradation: st.Degradation,
	}
}

// TestImportDropsZeroCounts pins the one format decision of the compact
// ledger: a zero ByKind or ByField count carries nothing, so ImportDrive
// drops it and export → import → export is a fixpoint.
func TestImportDropsZeroCounts(t *testing.T) {
	in := DriveState{Ledger: DriveLedger{
		RowsRead: 3, RowsQuarantined: 1,
		ByKind:  map[quality.Kind]int{quality.NonFinite: 1, quality.DuplicateTimestamp: 0},
		ByField: map[string]int{smart.RRER.String(): 1, "device_class": 0},
	}}
	want := DriveLedger{
		RowsRead: 3, RowsQuarantined: 1,
		ByKind:  map[quality.Kind]int{quality.NonFinite: 1},
		ByField: map[string]int{smart.RRER.String(): 1},
	}
	m, err := New(testModels(), testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ImportDrive(4, in); err != nil {
		t.Fatal(err)
	}
	first := m.ExportDrives()
	if !reflect.DeepEqual(first[4].Ledger, want) {
		t.Fatalf("exported ledger %+v, want %+v", first[4].Ledger, want)
	}
	if _, ok := m.Quality().ByField["device_class"]; ok {
		t.Fatal("a zero field count reached the quality report")
	}
	again, err := New(testModels(), testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := again.ImportDrive(4, first[4]); err != nil {
		t.Fatal(err)
	}
	if second := again.ExportDrives(); !reflect.DeepEqual(second, first) {
		t.Fatalf("export → import → export is not a fixpoint:\n%+v\n%+v", second, first)
	}
	// An all-zero breakdown exports as no breakdown at all.
	zero := DriveState{Ledger: DriveLedger{RowsRead: 1, ByKind: map[quality.Kind]int{quality.BadField: 0}}}
	if err := again.ImportDrive(5, zero); err != nil {
		t.Fatal(err)
	}
	if led := again.ExportDrives()[5].Ledger; led.ByKind != nil || led.ByField != nil {
		t.Fatalf("all-zero breakdown exported as %+v", led)
	}
}
