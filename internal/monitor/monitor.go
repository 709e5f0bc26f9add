// Package monitor is the online application of the characterization
// results: a streaming drive-health monitor that scores every incoming
// SMART record against the per-group degradation predictors, estimates
// the remaining time to failure by inverting the group's degradation
// signature, and escalates alerts as a drive deteriorates. It implements
// the "middleware software that will enhance storage reliability" the
// paper describes as future work (Sec. VI).
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"disksig/internal/core"
	"disksig/internal/quality"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// Predictor scores a normalized attribute vector with a degradation value
// in [-1, 1] (1 = healthy, -1 = failure event). *tree.Tree and
// *tree.Forest satisfy it.
type Predictor interface {
	Predict(x []float64) float64
}

// GroupModel is one failure category's trained scoring model.
type GroupModel struct {
	// Class is the device class the model was trained on. Records are
	// scored only against models of their own class; the zero value
	// (HDD) keeps pre-class model sets and snapshots valid.
	Class smart.DeviceClass
	// Group is the paper group number, unique within its class.
	Group int
	// Type is the semantic failure category.
	Type core.FailureType
	// Form is the group's degradation signature.
	Form regression.SignatureForm
	// WindowD is the signature's window size used for time-to-failure
	// estimates.
	WindowD float64
	// Predictor scores normalized records.
	Predictor Predictor
	// Note records a training-quality caveat (e.g. a degenerate
	// signature window clamped to MinWindowHours). Informational only;
	// empty for a clean model.
	Note string
}

// MinWindowHours is the floor for a group's signature window. A tiny
// group can characterize with a degenerate MedianD of 0 (every member
// failed abruptly within one sample), which would make time-to-failure
// inversion divide by zero and FromSet reject the model set. Such windows
// are clamped here instead of failing fleet startup.
const MinWindowHours = 24.0

// Severity grades a monitored drive's state.
type Severity int

const (
	// Healthy drives score near 1.
	Healthy Severity = iota
	// Watch drives have drifted from the good population.
	Watch
	// Warning drives have entered a degradation window.
	Warning
	// Critical drives are deep in degradation; data rescue should start.
	Critical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Watch:
		return "watch"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Config parameterizes the monitor.
type Config struct {
	// WatchBelow, WarnBelow and CriticalBelow are the degradation
	// thresholds of the escalation ladder. A zero WatchBelow selects 0.5
	// and a zero CriticalBelow selects -0.5; WarnBelow's useful default
	// is exactly 0 (the degradation-window edge).
	WatchBelow    float64
	WarnBelow     float64
	CriticalBelow float64
	// Smoothing is the number of recent predictions median-filtered per
	// drive to suppress single-sample noise; 0 means 3.
	Smoothing int
}

func (c Config) withDefaults() Config {
	if c.WatchBelow == 0 {
		c.WatchBelow = 0.5
	}
	if c.CriticalBelow == 0 {
		c.CriticalBelow = -0.5
	}
	if c.Smoothing <= 0 {
		c.Smoothing = 3
	}
	return c
}

// Alert reports an escalation of a monitored drive.
type Alert struct {
	DriveID int
	// Class is the drive's device class.
	Class smart.DeviceClass
	Hour  int
	// Severity is the new severity level.
	Severity Severity
	// Group and Type identify the most pessimistic failure-mode model.
	Group int
	Type  core.FailureType
	// Degradation is the smoothed degradation score in [-1, 1].
	Degradation float64
	// HoursToFailure estimates the remaining time from the group
	// signature; +Inf when the drive has not entered a degradation
	// window.
	HoursToFailure float64
}

// String renders the alert for logs.
func (a Alert) String() string {
	ttf := "not in degradation window"
	if !math.IsInf(a.HoursToFailure, 1) {
		ttf = fmt.Sprintf("~%.0fh to failure", a.HoursToFailure)
	}
	return fmt.Sprintf("drive %d [hour %d] %s: %s failure signature, degradation %+.2f, %s",
		a.DriveID, a.Hour, a.Severity, a.Type, a.Degradation, ttf)
}

// DriveStatus is the monitor's current view of one drive.
type DriveStatus struct {
	DriveID        int
	Class          smart.DeviceClass
	LastHour       int
	Severity       Severity
	Group          int
	Type           core.FailureType
	Degradation    float64
	HoursToFailure float64
}

// Verdict is the part of a drive's status that a fleet-wide roll-up or
// eviction reads, which Each hands out: everything but the worst model's
// group and the time-to-failure estimate, which Status computes.
type Verdict struct {
	DriveID  int
	Class    smart.DeviceClass
	LastHour int
	Severity Severity
	// Type is the failure type of the most pessimistic model.
	Type core.FailureType
	// Degradation is that model's smoothed degradation score.
	Degradation float64
}

// driveSlot is one drive's entry in the monitor's dense slot table: its
// scoring state (class, last hour, severity, verdict) and its quality
// ledger's row counts, inline so a fleet-wide walk reads one contiguous
// array. Its smoothing windows live in the monitor's score arena at the
// same slot, and its issue counts in the monitor's issue arena. A slot
// holds no pointer, so the garbage collector never scans the table, and
// a free slot is all zero.
type driveSlot struct {
	lastHour int
	// rowsRead and rowsQuarantined are the drive's share of the quality
	// report's row counters.
	rowsRead        int
	rowsQuarantined int
	// deg and worst are a tracked drive's verdict: the lowest smoothed
	// score over its windows and the index of the model that scored it.
	// They change only with the windows, so refresh recomputes them
	// where the windows change (IngestRecord, ImportDrive) and reads
	// take them as they are.
	deg float64
	// issues is the first of the drive's issue counts in the issue
	// arena, as an index plus one: a clean drive has none and keeps 0.
	issues   int32
	worst    uint16
	severity int8
	class    smart.DeviceClass
	// live marks a slot that holds a drive; tracked marks a drive with
	// scoring state (windows, severity) rather than a quarantine-only
	// ledger; seen marks a drive whose lastHour is set.
	live, tracked, seen bool
}

// issueCount is one non-zero entry of a drive's share of the quality
// report's per-kind and per-field issue counts. A drive's entries are a
// list linked through the monitor's issue arena, and so are the free
// entries Forget releases.
type issueCount struct {
	n int
	// key is a quality.Kind below numKinds, or numKinds plus the index
	// of a field name in the monitor's interned fields.
	key int32
	// next is the index of the list's next entry plus one; 0 ends it.
	next int32
}

// numKinds is the number of issue kinds, the first field key.
const numKinds = int32(len(quality.Report{}.ByKind))

// Monitor scores streaming SMART records. A drive's ID is its slot in
// the monitor's table: the caller chooses IDs and keeps them dense, as a
// fleet shard does by handing out freed IDs first, since the table grows
// to the largest ID. Sparse puts a map from arbitrary IDs in front.
type Monitor struct {
	cfg    Config
	models []GroupModel
	norms  [smart.NumClasses]*smart.Normalizer
	// classModels counts models per device class; records of a class
	// with no models are quarantined rather than silently scored healthy.
	classModels [smart.NumClasses]int
	// slots is the drive table, indexed by drive ID. A drive has a slot
	// from its first record on, tracked or not: a drive whose every
	// record was quarantined still has a ledger to release on Forget.
	slots []driveSlot
	// ids holds each slot's caller ID when a Sparse map addresses the
	// monitor; it is nil when a drive's ID is its slot.
	ids []int
	// scores is the window arena: slot s keeps len(models) windows of
	// Smoothing scores each, model gi's at window s*len(models)+gi, and
	// lens holds each window's length. A window of a model whose class
	// differs from the drive's stays empty, and an empty window medians
	// to +Inf, so other-class models never lower a drive's verdict.
	scores []float64
	lens   []int32
	// issues is the arena of every drive's issue counts, and freeIssue
	// the first of its free entries as an index plus one. fields interns
	// the field names the counts are keyed by, once per monitor, and
	// fieldKeys maps each name to its index in fields.
	issues    []issueCount
	freeIssue int32
	fields    []string
	fieldKeys map[string]int32
	// tracked counts the slots whose drive is tracked.
	tracked int
	quality quality.Report
	// normBuf is the reusable normalized-vector scratch of Ingest; a
	// Monitor is single-goroutine (each fleet shard owns one behind its
	// mutex), so one buffer suffices.
	normBuf []float64
}

// DriveLedger is one drive's share of the monitor's quality accounting.
// It exists so that forgetting a drive releases exactly the counts the
// drive contributed, and so snapshots can restore per-drive accounting.
// Exported ledgers carry no zero counts: ImportDrive drops them.
type DriveLedger struct {
	RowsRead        int
	RowsQuarantined int
	ByKind          map[quality.Kind]int
	ByField         map[string]int
}

// FromSet builds a monitor serving a model set. Every model must carry
// a valid device class, a predictor and a positive window, and every
// class with models needs a fitted normalizer. A class is served iff it
// has at least one model; records of unserved classes are quarantined
// on ingest.
func FromSet(set ModelSet, cfg Config) (*Monitor, error) {
	if len(set.Models) == 0 {
		return nil, fmt.Errorf("monitor: no group models")
	}
	if len(set.Models) > maxModels {
		return nil, fmt.Errorf("monitor: %d group models, at most %d fit a drive's verdict", len(set.Models), maxModels)
	}
	var classModels [smart.NumClasses]int
	for _, m := range set.Models {
		if !m.Class.Valid() {
			return nil, fmt.Errorf("monitor: group %d has invalid device class %d", m.Group, m.Class)
		}
		if m.Predictor == nil {
			return nil, fmt.Errorf("monitor: %v group %d has no predictor", m.Class, m.Group)
		}
		if m.WindowD <= 0 {
			return nil, fmt.Errorf("monitor: %v group %d has invalid window %v", m.Class, m.Group, m.WindowD)
		}
		classModels[m.Class]++
	}
	for c := smart.DeviceClass(0); c < smart.NumClasses; c++ {
		if n := set.Norms[c]; classModels[c] > 0 && (n == nil || !n.Fitted()) {
			return nil, fmt.Errorf("monitor: %v models without a fitted %v normalizer", c, c)
		}
	}
	return &Monitor{
		cfg:         cfg.withDefaults(),
		models:      set.Models,
		norms:       set.Norms,
		classModels: classModels,
		normBuf:     make([]float64, smart.NumAttrs),
	}, nil
}

// New builds a monitor from HDD-class group models and the normalizer
// they were trained with: FromSet over a one-class set.
func New(models []GroupModel, norm *smart.Normalizer, cfg Config) (*Monitor, error) {
	return FromSet(ModelSet{Models: models, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: norm}}, cfg)
}

// maxModels is the largest model set a monitor serves: a slot keeps its
// worst model's index in 16 bits.
const maxModels = math.MaxUint16 + 1

// FromCharacterization builds a monitor directly from a pipeline run that
// included the prediction stage.
func FromCharacterization(ch *core.Characterization, cfg Config) (*Monitor, error) {
	set, err := SetOf(ch)
	if err != nil {
		return nil, err
	}
	return FromSet(set, cfg)
}

// Ingest scores one raw (vendor health-value) record of drive id. It
// returns a non-nil alert when the drive's severity escalates.
//
// Dirty telemetry never corrupts the smoothed-median window: a record
// with NaN/Inf or out-of-range values is quarantined, a record older
// than the drive's latest hour is dropped (keep-latest), and a repeated
// hour replaces the previous sample instead of widening the window.
// Every such event is counted in Quality.
func (m *Monitor) Ingest(id int, rec smart.Record) *Alert {
	a, _ := m.IngestRecord(id, smart.HDD, &rec)
	return a
}

// IngestClass is Ingest with an explicit device class: the record is
// normalized with its class's normalizer and scored only against models
// of that class. Records of a class the monitor has no models for, and
// records that contradict the class a drive first reported with, are
// quarantined (a serial cannot change hardware mid-stream; one of the
// two reports is corrupt). It also reports whether the record was kept
// — it entered (or, for a repeated hour, replaced the tail of) the
// smoothing window — as opposed to being quarantined or dropped, so a
// caller that retains raw telemetry for retraining mirrors exactly the
// records that shaped monitor state.
func (m *Monitor) IngestClass(id int, class smart.DeviceClass, rec smart.Record) (*Alert, bool) {
	return m.IngestRecord(id, class, &rec)
}

// IngestRecord is IngestClass with the record passed by pointer, the
// fleet's path: a record is read in place and never retained.
func (m *Monitor) IngestRecord(id int, class smart.DeviceClass, rec *smart.Record) (*Alert, bool) {
	si := m.at(id)
	s := &m.slots[si]
	if !class.Valid() || m.classModels[class] == 0 {
		m.note(si, quality.BadField, "device_class", func() string {
			return fmt.Sprintf("no models for class %v", class)
		})
		m.addRows(s, 1, 1)
		return nil, false
	}
	if s.tracked && s.class != class {
		m.note(si, quality.BadField, "device_class", func() string {
			return fmt.Sprintf("drive is %v, record claims %v", s.class, class)
		})
		m.addRows(s, 1, 1)
		return nil, false
	}
	// Only non-finite values poison the window: finite out-of-range
	// values are clamped by the normalizer and score fine. The scan is
	// inlined (rather than quality.CheckValues) so a clean record — the
	// steady state — formats no drive label and builds no issue list.
	bad := false
	for a := 0; a < int(smart.NumAttrs); a++ {
		if x := rec.Values[a]; math.IsNaN(x) || math.IsInf(x, 0) {
			bad = true
			m.note(si, quality.NonFinite, smart.Attr(a).String(), func() string {
				return fmt.Sprintf("value %v", x)
			})
		}
	}
	if bad {
		m.addRows(s, 1, 1)
		return nil, false
	}

	if !s.tracked {
		s.tracked, s.class = true, class
		m.tracked++
	}
	replace := false
	if s.seen {
		switch {
		case rec.Hour < s.lastHour:
			// Stale sample: the drive already reported a later state.
			m.note(si, quality.OutOfOrderTimestamp, "", func() string {
				return fmt.Sprintf("hour %d after hour %d", rec.Hour, s.lastHour)
			})
			m.addRows(s, 1, 1)
			return nil, false
		case rec.Hour == s.lastHour:
			// Keep-latest: the repeat supersedes the previous sample. It
			// is kept-with-issue, not quarantined — the record mutates
			// the smoothing window (it replaces the superseded score),
			// so counting it quarantined would hide a state change from
			// the kept count and break read = kept + quarantined as an
			// accounting of records that reached the scoring path.
			m.note(si, quality.DuplicateTimestamp, "", func() string {
				return fmt.Sprintf("hour %d repeated", rec.Hour)
			})
			m.addRows(s, 1, 0)
			replace = true
		default:
			m.addRows(s, 1, 0)
		}
	} else {
		m.addRows(s, 1, 0)
	}
	s.seen = true
	s.lastHour = rec.Hour

	norm := m.norms[class]
	for a := range m.normBuf {
		m.normBuf[a] = norm.NormalizeValue(smart.Attr(a), rec.Values[a])
	}
	smoothing := m.cfg.Smoothing
	base := int(si) * len(m.models)
	for gi := range m.models {
		gm := &m.models[gi]
		if gm.Class != class {
			continue
		}
		score := gm.Predictor.Predict(m.normBuf)
		wi := base + gi
		w := m.scores[wi*smoothing : (wi+1)*smoothing]
		switch n := int(m.lens[wi]); {
		case replace && n > 0:
			w[n-1] = score
		case n < smoothing:
			w[n] = score
			m.lens[wi]++
		default:
			// Window full: slide in place.
			copy(w, w[1:])
			w[n-1] = score
		}
	}

	m.refresh(si)
	severity := m.severityOf(s.deg)
	if severity > Severity(s.severity) {
		s.severity = int8(severity)
		gm := &m.models[s.worst]
		return &Alert{
			DriveID:        m.idOf(si),
			Class:          class,
			Hour:           rec.Hour,
			Severity:       severity,
			Group:          gm.Group,
			Type:           gm.Type,
			Degradation:    s.deg,
			HoursToFailure: hoursToFailure(*gm, s.deg),
		}, true
	}
	// De-escalate silently: transient dips recover without alert spam.
	s.severity = int8(severity)
	return nil, true
}

// at returns drive id's slot and marks it live, growing the table and
// the score arena to hold it when id is past their end.
func (m *Monitor) at(id int) int32 {
	if n := id + 1 - len(m.slots); n > 0 {
		m.slots = append(m.slots, make([]driveSlot, n)...)
		m.lens = append(m.lens, make([]int32, n*len(m.models))...)
		m.scores = append(m.scores, make([]float64, n*len(m.models)*m.cfg.Smoothing)...)
	}
	m.slots[id].live = true
	return int32(id)
}

// Reserve sizes the drive table and the score arena to hold drive IDs
// below n without growing again, with no spare capacity past them: a
// caller about to install a known number of drives (a restore, an
// import, a model swap) reserves first, where growing by append would
// leave up to half the tables as slack.
func (m *Monitor) Reserve(n int) {
	if n <= cap(m.slots) {
		return
	}
	m.slots = append(make([]driveSlot, 0, n), m.slots...)
	m.lens = append(make([]int32, 0, n*len(m.models)), m.lens...)
	m.scores = append(make([]float64, 0, n*len(m.models)*m.cfg.Smoothing), m.scores...)
}

// slot returns drive id's slot, or false when the monitor does not know
// the drive.
func (m *Monitor) slot(id int) (int32, bool) {
	if id < 0 || id >= len(m.slots) || !m.slots[id].live {
		return 0, false
	}
	return int32(id), true
}

// idOf returns the caller's ID of slot si.
func (m *Monitor) idOf(si int32) int {
	if m.ids != nil {
		return m.ids[si]
	}
	return int(si)
}

// window returns slot si's score window for model gi.
func (m *Monitor) window(si int32, gi int) []float64 {
	wi := int(si)*len(m.models) + gi
	start := wi * m.cfg.Smoothing
	return m.scores[start : start+int(m.lens[wi])]
}

// maxExamples is how many issues a monitor's report keeps verbatim.
var maxExamples = quality.Config{}.WithDefaults().MaxExamples

// note records an issue of slot si in both the monitor-wide report and
// the drive's ledger, so the contribution can later be released by
// Forget. The report keeps only its first maxExamples issues verbatim,
// so the drive label and detail are formatted only while it still takes
// them; its counters count every issue either way.
func (m *Monitor) note(si int32, kind quality.Kind, field string, detail func() string) {
	iss := quality.Issue{Kind: kind, Field: field}
	if len(m.quality.Examples) < maxExamples {
		iss.Drive, iss.Detail = strconv.Itoa(m.idOf(si)), detail()
	}
	m.quality.Note(iss, quality.Config{})
	m.count(si, int32(kind), 1)
	if field != "" {
		m.count(si, m.fieldKey(field), 1)
	}
}

// count adds n to slot si's issue count under key, adding an entry on
// the drive's first issue under that key.
func (m *Monitor) count(si int32, key int32, n int) {
	s := &m.slots[si]
	for e := s.issues; e != 0; e = m.issues[e-1].next {
		if c := &m.issues[e-1]; c.key == key {
			c.n += n
			return
		}
	}
	e := m.freeIssue
	if e != 0 {
		m.freeIssue = m.issues[e-1].next
	} else {
		m.issues = append(m.issues, issueCount{})
		e = int32(len(m.issues))
	}
	m.issues[e-1] = issueCount{n: n, key: key, next: s.issues}
	s.issues = e
}

// fieldKey returns the count key of a field name, interning the name on
// its first use.
func (m *Monitor) fieldKey(field string) int32 {
	f, ok := m.fieldKeys[field]
	if !ok {
		if m.fieldKeys == nil {
			m.fieldKeys = map[string]int32{}
		}
		f = int32(len(m.fields))
		m.fields = append(m.fields, field)
		m.fieldKeys[field] = f
	}
	return numKinds + f
}

// addRows accounts rows in both the monitor-wide report and the drive's
// ledger.
func (m *Monitor) addRows(s *driveSlot, read, quarantined int) {
	m.quality.AddRows(read, quarantined, 0)
	s.rowsRead += read
	s.rowsQuarantined += quarantined
}

// refresh recomputes slot si's verdict from its windows: the model with
// the lowest smoothed score, and that score. A slot whose windows are all
// empty gets model 0 and +Inf.
func (m *Monitor) refresh(si int32) {
	best, bestScore := 0, math.Inf(1)
	for gi := range m.models {
		s := smoothedMedian(m.window(si, gi))
		if s < bestScore {
			best, bestScore = gi, s
		}
	}
	m.slots[si].worst, m.slots[si].deg = uint16(best), bestScore
}

func smoothedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	// Smoothing windows are tiny (default 3), so sort a stack copy by
	// insertion — sort.Float64s would heap-allocate the copy on every
	// scored record.
	var buf [16]float64
	var cp []float64
	if len(xs) <= len(buf) {
		cp = buf[:len(xs)]
	} else {
		cp = make([]float64, len(xs))
	}
	copy(cp, xs)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func (m *Monitor) severityOf(deg float64) Severity {
	switch {
	case deg < m.cfg.CriticalBelow:
		return Critical
	case deg < m.cfg.WarnBelow:
		return Warning
	case deg < m.cfg.WatchBelow:
		return Watch
	default:
		return Healthy
	}
}

// hoursToFailure inverts the group signature: s(t) = (t/d)^k - 1 gives
// t = d * (s+1)^(1/k). The boundary behavior is pinned:
//
//   - NaN degradation (a predictor fed pathological input) or s >= 0
//     means the drive is not in a degradation window: +Inf. Propagating
//     NaN would otherwise surface as "~NaNh to failure" in alerts.
//   - s <= -1 is at or beyond the failure event itself: 0 hours. Values
//     below -1 (outside the signature's fitted range) clamp rather than
//     producing a negative or complex-root estimate.
//   - An unknown signature form (order 0) or a non-positive/NaN window
//     cannot be inverted: +Inf, never a division by zero.
func hoursToFailure(gm GroupModel, deg float64) float64 {
	if math.IsNaN(deg) || deg >= 0 {
		return math.Inf(1)
	}
	k := float64(gm.Form.Order())
	if k <= 0 || math.IsNaN(gm.WindowD) || gm.WindowD <= 0 {
		return math.Inf(1)
	}
	if deg <= -1 {
		return 0
	}
	return gm.WindowD * math.Pow(deg+1, 1/k)
}

// Status returns the monitor's current view of drive id.
func (m *Monitor) Status(id int) (DriveStatus, bool) {
	si, ok := m.slot(id)
	if !ok || !m.slots[si].tracked {
		return DriveStatus{}, false
	}
	return m.status(si), true
}

// Each calls fn with the verdict of every tracked drive, in slot order.
// A verdict is copied from the slot being walked, so a fleet-wide
// roll-up costs no lookup, median or time-to-failure estimate per drive;
// fn calls Status for the drives it needs in full. fn may Forget the
// drive it is handed, and must not otherwise change the monitor.
func (m *Monitor) Each(fn func(Verdict)) {
	for si := range m.slots {
		s := &m.slots[si]
		if s.tracked {
			fn(Verdict{
				DriveID:     m.idOf(int32(si)),
				Class:       s.class,
				LastHour:    s.lastHour,
				Severity:    Severity(s.severity),
				Type:        m.models[s.worst].Type,
				Degradation: s.deg,
			})
		}
	}
}

func (m *Monitor) status(si int32) DriveStatus {
	s := &m.slots[si]
	gm := &m.models[s.worst]
	return DriveStatus{
		DriveID:        m.idOf(si),
		Class:          s.class,
		LastHour:       s.lastHour,
		Severity:       Severity(s.severity),
		Group:          gm.Group,
		Type:           gm.Type,
		Degradation:    s.deg,
		HoursToFailure: hoursToFailure(*gm, s.deg),
	}
}

// Tracked returns the number of drives the monitor has seen.
func (m *Monitor) Tracked() int { return m.tracked }

// Forget discards a drive's state, reporting whether the drive was
// tracked. It is the eviction hook for decommissioned or long-silent
// drives; if the drive reports again it restarts with a fresh smoothing
// window. The drive's contribution to the quality ledger is released
// along with it, so Quality() only accounts for drives the monitor
// still knows — a fleet that forgets a drive and re-summarizes must not
// leak the forgotten drive's counts. The drive's slot is cleared and
// free for the caller to reuse, and its issue counts go back to the
// issue arena.
func (m *Monitor) Forget(id int) bool {
	si, ok := m.slot(id)
	if !ok {
		return false
	}
	s := &m.slots[si]
	m.quality.RowsRead -= s.rowsRead
	m.quality.RowsQuarantined -= s.rowsQuarantined
	for e := s.issues; e != 0; {
		c := &m.issues[e-1]
		if c.key < numKinds {
			m.quality.ByKind[c.key] -= c.n
		} else {
			f := m.fields[c.key-numKinds]
			if m.quality.ByField[f] -= c.n; m.quality.ByField[f] == 0 {
				delete(m.quality.ByField, f)
			}
		}
		if e = c.next; e == 0 {
			// Splice the drive's whole list onto the free entries.
			c.next, m.freeIssue = m.freeIssue, s.issues
		}
	}
	tracked := s.tracked
	if tracked {
		m.tracked--
	}
	*s = driveSlot{}
	clear(m.lens[int(si)*len(m.models) : int(si+1)*len(m.models)])
	return tracked
}

// Quality reports how many ingested records were clean, quarantined
// (non-finite values, stale hours) or superseded by a duplicate hour.
func (m *Monitor) Quality() *quality.Report { return &m.quality }

// Snapshot returns the current status of every tracked drive, ordered by
// ascending degradation (most at-risk first, ties by drive ID). It is the
// fleet dashboard view of the middleware.
func (m *Monitor) Snapshot() []DriveStatus {
	out := make([]DriveStatus, 0, m.tracked)
	for si := range m.slots {
		if m.slots[si].tracked {
			out = append(out, m.status(int32(si)))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degradation != out[j].Degradation {
			return out[i].Degradation < out[j].Degradation
		}
		return out[i].DriveID < out[j].DriveID
	})
	return out
}

// WriteSnapshotJSON writes the Snapshot as JSON, the integration format
// for external dashboards and ticketing systems. Severity and failure
// types are rendered as strings; +Inf hours-to-failure becomes null.
func (m *Monitor) WriteSnapshotJSON(w io.Writer) error {
	type jsonStatus struct {
		DriveID        int      `json:"drive_id"`
		LastHour       int      `json:"last_hour"`
		Severity       string   `json:"severity"`
		Group          int      `json:"group"`
		Type           string   `json:"type"`
		Degradation    float64  `json:"degradation"`
		HoursToFailure *float64 `json:"hours_to_failure"`
	}
	snapshot := m.Snapshot()
	out := make([]jsonStatus, len(snapshot))
	for i, st := range snapshot {
		js := jsonStatus{
			DriveID:     st.DriveID,
			LastHour:    st.LastHour,
			Severity:    st.Severity.String(),
			Group:       st.Group,
			Type:        st.Type.String(),
			Degradation: st.Degradation,
		}
		if !math.IsInf(st.HoursToFailure, 1) {
			ttf := st.HoursToFailure
			js.HoursToFailure = &ttf
		}
		out[i] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("monitor: encoding snapshot: %w", err)
	}
	return nil
}
