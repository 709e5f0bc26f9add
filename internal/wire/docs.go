package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"disksig/internal/fleet"
	"disksig/internal/quality"
)

// The API's answer documents. A node renders them, the router decodes
// and merges them, and loadgen decodes them, so each shape is stated
// once. The fields of the drive, summary, ledger, 400 and readiness
// documents are declared in sorted-key order, the order encoding/json
// gives a map, which is the order clients have always seen them in. A
// non-finite degradation or time to failure (+Inf for a drive whose
// windows a model swap emptied) renders as null, since JSON has no
// infinity.

// Ledger is the quarantine ledger: exact row counters plus per-kind
// issue counts, keyed by quality.Kind name.
type Ledger struct {
	ByKind          map[string]int `json:"by_kind"`
	RowsKept        int            `json:"rows_kept"`
	RowsQuarantined int            `json:"rows_quarantined"`
	RowsRead        int            `json:"rows_read"`
}

// LedgerOf renders a quality report as a ledger.
func LedgerOf(rep *quality.Report) Ledger {
	byKind := map[string]int{}
	for k, n := range rep.ByKind {
		if n != 0 {
			byKind[quality.Kind(k).String()] = n
		}
	}
	return Ledger{ByKind: byKind, RowsKept: rep.RowsKept(),
		RowsQuarantined: rep.RowsQuarantined, RowsRead: rep.RowsRead}
}

// Add folds o into l. l.ByKind is created if nil, so a merged ledger
// with no issues renders {} as a node's does.
func (l *Ledger) Add(o Ledger) {
	l.RowsRead += o.RowsRead
	l.RowsKept += o.RowsKept
	l.RowsQuarantined += o.RowsQuarantined
	l.ByKind = addCounts(l.ByKind, o.ByKind)
}

// Alert is one escalation in an ingest ack. An alert fires only when the
// degradation falls below a severity threshold, so it is never +Inf or
// NaN; only the time to failure can be null.
type Alert struct {
	Serial         string   `json:"serial"`
	Class          string   `json:"class"`
	Hour           int      `json:"hour"`
	Severity       string   `json:"severity"`
	Group          int      `json:"group"`
	Type           string   `json:"type"`
	Degradation    float64  `json:"degradation"`
	HoursToFailure *float64 `json:"hours_to_failure"`
	ModelVersion   int      `json:"model_version"`
}

// AlertsOf renders an ack's fleet alerts; their times to failure share
// one slab.
func AlertsOf(alerts []fleet.Alert) []Alert {
	out := make([]Alert, len(alerts))
	vals := make(slab, 0, len(alerts))
	for i, a := range alerts {
		out[i] = Alert{Serial: a.Serial, Class: a.Class.String(), Hour: a.Hour,
			Severity: a.Severity.String(), Group: a.Group, Type: a.Type.String(),
			Degradation: a.Degradation, HoursToFailure: vals.finite(a.HoursToFailure),
			ModelVersion: a.ModelVersion}
	}
	return out
}

// Ack is the POST /v1/ingest response: Ingested = Kept + Quarantined is
// the batch's record count. ModelVersion is the version that scored the
// batch; versions start at 1, so it is omitted only where a router's
// parts were scored by different versions.
type Ack struct {
	Ingested     int     `json:"ingested"`
	Kept         int     `json:"kept"`
	Quarantined  int     `json:"quarantined"`
	ModelVersion int     `json:"model_version,omitempty"`
	Alerts       []Alert `json:"alerts"`
	Quality      Ledger  `json:"quality"`
}

// SerialList names drives: the body of a node's export and drop
// requests and of its GET /v1/admin/serials answer.
type SerialList struct {
	Serials []string `json:"serials"`
}

// Drive is one drive's health: the GET /v1/drives/{serial} body and an
// at-risk entry of a summary.
type Drive struct {
	Class          string   `json:"class"`
	Degradation    *float64 `json:"degradation"`
	Group          int      `json:"group"`
	HoursToFailure *float64 `json:"hours_to_failure"`
	LastHour       int      `json:"last_hour"`
	Serial         string   `json:"serial"`
	Severity       string   `json:"severity"`
	Type           string   `json:"type"`
}

// DriveOf renders a drive health snapshot.
func DriveOf(dh fleet.DriveHealth) Drive {
	vals := make(slab, 0, 2)
	return driveOf(dh, &vals)
}

// driveOf renders a drive health snapshot, taking its finite values'
// storage from vals.
func driveOf(dh fleet.DriveHealth, vals *slab) Drive {
	return Drive{Class: dh.Class.String(), Degradation: vals.finite(dh.Degradation), Group: dh.Group,
		HoursToFailure: vals.finite(dh.HoursToFailure), LastHour: dh.LastHour, Serial: dh.Serial,
		Severity: dh.Severity.String(), Type: dh.Type.String()}
}

// degradation is the drive's ranking key: a null degradation ranks
// last, as the +Inf it stands for does on its node.
func (d *Drive) degradation() float64 {
	if d.Degradation == nil {
		return math.Inf(1)
	}
	return *d.Degradation
}

// ClassSummary is one device class's share of a summary.
type ClassSummary struct {
	AtRisk     []Drive        `json:"at_risk"`
	BySeverity map[string]int `json:"by_severity"`
	Drives     int            `json:"drives"`
}

// ShardCount is one shard's occupancy in a node's summary.
type ShardCount struct {
	Drives int `json:"drives"`
	Shard  int `json:"shard"`
}

// Summary is the GET /v1/fleet/summary body. Shards is a node's own
// layout, so a router's merged summary leaves it out.
type Summary struct {
	AlertingByType map[string]int           `json:"alerting_by_type"`
	AtRisk         []Drive                  `json:"at_risk"`
	ByClass        map[string]*ClassSummary `json:"by_class"`
	BySeverity     map[string]int           `json:"by_severity"`
	Drives         int                      `json:"drives"`
	EvictedNow     int                      `json:"evicted_now"`
	MaxHour        int                      `json:"max_hour"`
	Quality        Ledger                   `json:"quality"`
	Shards         []ShardCount             `json:"shards,omitempty"`
}

// SummaryOf renders a fleet roll-up with the number of drives this read
// evicted and the store's quarantine ledger. The finite values of every
// at-risk list share one slab.
func SummaryOf(sum fleet.Summary, evictedNow int, q *quality.Report) Summary {
	listed := len(sum.AtRisk)
	for _, cs := range sum.ByClass {
		listed += len(cs.AtRisk)
	}
	vals := make(slab, 0, 2*listed)
	doc := Summary{AlertingByType: sum.ByType, AtRisk: drivesOf(sum.AtRisk, &vals),
		ByClass: make(map[string]*ClassSummary, len(sum.ByClass)), BySeverity: sum.BySeverity,
		Drives: sum.Drives, EvictedNow: evictedNow, MaxHour: sum.MaxHour, Quality: LedgerOf(q),
		Shards: make([]ShardCount, len(sum.Shards))}
	for name, cs := range sum.ByClass {
		doc.ByClass[name] = &ClassSummary{AtRisk: drivesOf(cs.AtRisk, &vals), BySeverity: cs.BySeverity, Drives: cs.Drives}
	}
	for i, ss := range sum.Shards {
		doc.Shards[i] = ShardCount{Drives: ss.Drives, Shard: ss.Shard}
	}
	return doc
}

// drivesOf renders an at-risk list; an empty one renders as [].
func drivesOf(dhs []fleet.DriveHealth, vals *slab) []Drive {
	out := make([]Drive, len(dhs))
	for i, dh := range dhs {
		out[i] = driveOf(dh, vals)
	}
	return out
}

// Add folds another summary into s, concatenating the at-risk lists for
// Rank. s's maps are created as needed; s.MaxHour must start at -1 (the
// empty fleet's) for the maximum to be right.
func (s *Summary) Add(o *Summary) {
	s.Drives += o.Drives
	s.MaxHour = max(s.MaxHour, o.MaxHour)
	s.BySeverity = addCounts(s.BySeverity, o.BySeverity)
	s.AlertingByType = addCounts(s.AlertingByType, o.AlertingByType)
	if s.ByClass == nil {
		s.ByClass = map[string]*ClassSummary{}
	}
	for name, oc := range o.ByClass {
		c := s.ByClass[name]
		if c == nil {
			c = &ClassSummary{}
			s.ByClass[name] = c
		}
		c.Drives += oc.Drives
		c.BySeverity = addCounts(c.BySeverity, oc.BySeverity)
		c.AtRisk = append(c.AtRisk, oc.AtRisk...)
	}
	s.AtRisk = append(s.AtRisk, o.AtRisk...)
	s.EvictedNow += o.EvictedNow
	s.Quality.Add(o.Quality)
}

func addCounts(dst, src map[string]int) map[string]int {
	if dst == nil {
		dst = make(map[string]int, len(src))
	}
	for k, n := range src {
		dst[k] += n
	}
	return dst
}

// Rank re-ranks the fleet-wide and per-class at-risk lists in the
// fleet's at-risk order (fleet.RanksBefore: degradation ascending, worst
// first, ties by serial) and keeps the first topN of each. Every drive
// of a merged top N is in its own node's top N, so ranking the
// concatenated node lists gives the top N of the whole cluster.
func (s *Summary) Rank(topN int) {
	s.AtRisk = rank(s.AtRisk, topN)
	for _, c := range s.ByClass {
		c.AtRisk = rank(c.AtRisk, topN)
	}
}

// rank sorts ds into the at-risk order and keeps the first topN. The
// result is never nil, so an empty list renders as [].
func rank(ds []Drive, topN int) []Drive {
	sort.Slice(ds, func(i, j int) bool {
		return fleet.RanksBefore(ds[i].degradation(), ds[i].Serial, ds[j].degradation(), ds[j].Serial)
	})
	if len(ds) > topN {
		ds = ds[:topN]
	}
	if ds == nil {
		ds = []Drive{}
	}
	return ds
}

// Rejection is the 400 body of an ingest batch rejected whole: nothing
// was ingested, and the ledger names the defect.
type Rejection struct {
	Error   string `json:"error"`
	Quality Ledger `json:"quality"`
}

// Reject renders a decode or split error as a Rejection: a frame-level
// error keeps its own quality kind, any other error is a malformed row.
func Reject(err error) Rejection {
	var rep quality.Report
	if fe, ok := IsFrameError(err); ok {
		rep.Note(fe.Issue(), quality.Config{})
	} else {
		rep.Note(quality.Issue{Kind: quality.MalformedRow, Detail: err.Error()}, quality.Config{})
	}
	return Rejection{Error: fmt.Sprintf("malformed request body: %v", err), Quality: LedgerOf(&rep)}
}

// Ready is a node's GET /healthz/ready body. A follower also reports
// how long ago it last heard from its primary and the lag it is held
// to; the router's prober reads Role to pick a writable URL.
type Ready struct {
	LagMs      float64 `json:"lag_ms,omitempty"`
	ReadyLagMs float64 `json:"ready_lag_ms,omitempty"`
	Role       string  `json:"role"`
	Status     string  `json:"status"`
}

// DefaultTop is the at-risk list length of GET /v1/fleet/summary when
// the request passes no ?top=.
const DefaultTop = 10

// ParseTop parses the ?top= value of GET /v1/fleet/summary, a decimal
// n >= 0; an empty value means DefaultTop.
func ParseTop(v string) (int, error) {
	if v == "" {
		return DefaultTop, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad top parameter %q", v)
	}
	return n, nil
}

// slab backs the *float64 fields of one rendered document, so the
// document allocates one array for them rather than one box per value.
// It is made with room for every value the document can hold.
type slab []float64

// finite stores v in the slab and returns its address, or nil (rendered
// null) for a non-finite v.
func (s *slab) finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	*s = append(*s, v)
	return &(*s)[len(*s)-1]
}

// jsonScratch is a pooled response-encoding buffer with its encoder
// permanently bound, so WriteJSON allocates neither per response.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	sc := &jsonScratch{}
	sc.enc = json.NewEncoder(&sc.buf)
	return sc
}}

// WriteJSON answers with v as one line of compact JSON. Node and
// router write every JSON document through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	sc := jsonPool.Get().(*jsonScratch)
	defer jsonPool.Put(sc)
	sc.buf.Reset()
	if err := sc.enc.Encode(v); err != nil {
		// An unencodable response value is a programming error; surface
		// it instead of a silent empty body.
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(sc.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(sc.buf.Bytes())
}
