package wire

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/quality"
)

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSummaryAddRank merges two node summaries the way the router does:
// counters and ledgers add, the maximum hour wins, and each at-risk list
// is re-ranked worst first with ties by serial and a null degradation
// last, then cut to the top N.
func TestSummaryAddRank(t *testing.T) {
	nodes := []string{
		`{"alerting_by_type":{"logical":1},"at_risk":[{"serial":"b","degradation":-0.5},{"serial":"n","degradation":null}],
		  "by_class":{"hdd":{"at_risk":[{"serial":"b","degradation":-0.5}],"by_severity":{"critical":1},"drives":1}},
		  "by_severity":{"critical":1,"healthy":1},"drives":2,"evicted_now":1,"max_hour":7,
		  "quality":{"by_kind":{},"rows_kept":4,"rows_quarantined":0,"rows_read":4},"shards":[{"drives":2,"shard":0}]}`,
		`{"alerting_by_type":{"logical":2},"at_risk":[{"serial":"a","degradation":-0.5},{"serial":"c","degradation":0.2}],
		  "by_class":{"ssd":{"at_risk":[{"serial":"a","degradation":-0.5}],"by_severity":{"warning":2},"drives":2}},
		  "by_severity":{"warning":2},"drives":2,"evicted_now":0,"max_hour":-1,
		  "quality":{"by_kind":{"non-finite":1},"rows_kept":2,"rows_quarantined":1,"rows_read":3},"shards":[{"drives":2,"shard":0}]}`,
	}
	merged := Summary{MaxHour: -1}
	for _, n := range nodes {
		var s Summary
		if err := json.Unmarshal([]byte(n), &s); err != nil {
			t.Fatal(err)
		}
		merged.Add(&s)
	}
	merged.Rank(3)
	drive := func(serial, deg string) string {
		return `{"class":"","degradation":` + deg + `,"group":0,"hours_to_failure":null,"last_hour":0,"serial":"` +
			serial + `","severity":"","type":""}`
	}
	want := `{"alerting_by_type":{"logical":3},"at_risk":[` + drive("a", "-0.5") + `,` + drive("b", "-0.5") + `,` +
		drive("c", "0.2") + `],"by_class":{"hdd":{"at_risk":[` + drive("b", "-0.5") + `],"by_severity":{"critical":1},"drives":1},` +
		`"ssd":{"at_risk":[` + drive("a", "-0.5") + `],"by_severity":{"warning":2},"drives":2}},` +
		`"by_severity":{"critical":1,"healthy":1,"warning":2},"drives":4,"evicted_now":1,"max_hour":7,` +
		`"quality":{"by_kind":{"non-finite":1},"rows_kept":6,"rows_quarantined":1,"rows_read":7}}`
	if got := marshal(t, &merged); got != want {
		t.Fatalf("merged summary\n%s\nwant\n%s", got, want)
	}
	merged.Rank(0)
	if got := marshal(t, merged.AtRisk); got != "[]" {
		t.Fatalf("at_risk at top 0 renders %s, want []", got)
	}
}

// TestDocumentsRenderLikeANode: empty collections render as [] and {},
// and a non-finite degradation or time to failure as null.
func TestDocumentsRenderLikeANode(t *testing.T) {
	sum := fleet.Summary{MaxHour: -1, BySeverity: map[string]int{}, ByType: map[string]int{},
		ByClass: map[string]*fleet.ClassSummary{}, Shards: []fleet.ShardStats{{Shard: 0}}}
	want := `{"alerting_by_type":{},"at_risk":[],"by_class":{},"by_severity":{},"drives":0,"evicted_now":0,"max_hour":-1,` +
		`"quality":{"by_kind":{},"rows_kept":0,"rows_quarantined":0,"rows_read":0},"shards":[{"drives":0,"shard":0}]}`
	if got := marshal(t, SummaryOf(sum, 0, &quality.Report{})); got != want {
		t.Errorf("empty summary\n%s\nwant\n%s", got, want)
	}

	dh := fleet.DriveHealth{Serial: "s", DriveStatus: monitor.DriveStatus{Degradation: math.Inf(1),
		HoursToFailure: math.NaN(), Severity: monitor.Healthy}}
	want = `{"class":"hdd","degradation":null,"group":0,"hours_to_failure":null,"last_hour":0,"serial":"s",` +
		`"severity":"healthy","type":"logical"}`
	if got := marshal(t, DriveOf(dh)); got != want {
		t.Errorf("swapped drive\n%s\nwant\n%s", got, want)
	}

	var merged Ledger
	merged.Add(Ledger{RowsRead: 2, RowsKept: 2})
	if got := marshal(t, merged); got != `{"by_kind":{},"rows_kept":2,"rows_quarantined":0,"rows_read":2}` {
		t.Errorf("merged clean ledger renders %s, want an empty by_kind object", got)
	}
}

// TestReject: a frame-level error keeps its quality kind, anything else
// is a malformed row, and no row is counted either way.
func TestReject(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{truncated("record 1 torn"), `{"error":"malformed request body: wire: record 1 torn",` +
			`"quality":{"by_kind":{"truncated-input":1},"rows_kept":0,"rows_quarantined":0,"rows_read":0}}`},
		{errors.New("boom"), `{"error":"malformed request body: boom",` +
			`"quality":{"by_kind":{"malformed-row":1},"rows_kept":0,"rows_quarantined":0,"rows_read":0}}`},
	} {
		if got := marshal(t, Reject(tc.err)); got != tc.want {
			t.Errorf("Reject(%v)\n%s\nwant\n%s", tc.err, got, tc.want)
		}
	}
}

func TestParseTop(t *testing.T) {
	for v, want := range map[string]int{"": 10, "0": 0, "7": 7, "+3": 3} {
		if got, err := ParseTop(v); err != nil || got != want {
			t.Errorf("ParseTop(%q) = %d, %v; want %d", v, got, err, want)
		}
	}
	for _, v := range []string{"5abc", "5.9", "0x10", "1e3", "-1", "x", " 5", "99999999999999999999"} {
		if got, err := ParseTop(v); err == nil {
			t.Errorf("ParseTop(%q) = %d, want an error", v, got)
		}
	}
}

func TestMediaType(t *testing.T) {
	for ct, want := range map[string]string{
		"":                                "",
		"application/json":                "application/json",
		"Application/JSON; charset=utf-8": "application/json",
		" " + ContentType + " ;v=1":       ContentType,
	} {
		if got := MediaType(ct); got != want {
			t.Errorf("MediaType(%q) = %q, want %q", ct, got, want)
		}
	}
}
