package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// refRecord and refRequest are the JSON ingest schema as encoding/json
// structs. referenceDecodeJSON decodes through them and applies the
// record checks; it is the reference DecodeJSON is held to.
type refRecord struct {
	Serial string         `json:"serial"`
	Hour   int            `json:"hour"`
	Class  string         `json:"class,omitempty"`
	Values []*json.Number `json:"values"`
}

type refRequest struct {
	Records []refRecord `json:"records"`
}

func referenceDecodeJSON(body []byte, rep *quality.Report) ([]fleet.Observation, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req refRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	obs := make([]fleet.Observation, 0, len(req.Records))
	for i, rec := range req.Records {
		class, classErr := smart.ParseClass(rec.Class)
		switch {
		case len(rec.Serial) > MaxSerialLen:
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "serial",
				Detail: fmt.Sprintf("record %d serial length %d outside [1, %d]", i, len(rec.Serial), MaxSerialLen),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
		case rec.Serial == "":
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "serial",
				Detail: fmt.Sprintf("record %d has no serial", i),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
		case classErr != nil:
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "device_class", Drive: rec.Serial,
				Detail: fmt.Sprintf("record %d: %v", i, classErr),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
		case len(rec.Values) != int(smart.NumAttrs):
			rep.Note(quality.Issue{
				Kind: quality.ShortRow, Drive: rec.Serial,
				Detail: fmt.Sprintf("record %d has %d values, want %d", i, len(rec.Values), smart.NumAttrs),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
		default:
			var v smart.Values
			bad := false
			for a, p := range rec.Values {
				if p == nil {
					v[a] = math.NaN()
					continue
				}
				x, err := strconv.ParseFloat(p.String(), 64)
				if err != nil || math.IsInf(x, 0) {
					rep.Note(quality.Issue{
						Kind: quality.NonFinite, Drive: rec.Serial, Field: smart.Attr(a).String(),
						Detail: fmt.Sprintf("record %d value %q is not a finite float64", i, p.String()),
					}, quality.Config{})
					bad = true
					continue
				}
				v[a] = x
			}
			if bad {
				rep.AddRows(1, 1, 0)
				continue
			}
			obs = append(obs, fleet.Observation{
				Serial: rec.Serial,
				Class:  class,
				Record: smart.Record{Hour: rec.Hour, Values: v},
			})
		}
	}
	return obs, nil
}

// trailingOrRepeated walks body's first JSON value with json.Decoder's
// Token and reports whether anything but whitespace follows it, or a
// field repeats (after case folding) in one of its objects: the two
// things DecodeJSON rejects that encoding/json lets through. Numbers
// stay text, so a value past float64's range does not end the walk.
func trailingOrRepeated(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	repeated, err := walkValue(dec)
	if err != nil || repeated {
		return repeated
	}
	_, err = dec.Token()
	return err != io.EOF
}

func walkValue(dec *json.Decoder) (repeated bool, err error) {
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	switch tok {
	case json.Delim('{'):
		var keys []string
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return false, err
			}
			for _, seen := range keys {
				repeated = repeated || strings.EqualFold(seen, k.(string))
			}
			keys = append(keys, k.(string))
			r, err := walkValue(dec)
			if err != nil {
				return false, err
			}
			repeated = repeated || r
		}
		_, err = dec.Token()
	case json.Delim('['):
		for dec.More() {
			r, err := walkValue(dec)
			if err != nil {
				return false, err
			}
			repeated = repeated || r
		}
		_, err = dec.Token()
	}
	return repeated, err
}

// sameObservations compares observations bit for bit, NaN payloads and
// the sign of zero included.
func sameObservations(a, b []fleet.Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Serial != b[i].Serial || a[i].Class != b[i].Class || a[i].Record.Hour != b[i].Record.Hour {
			return false
		}
		for k := range a[i].Record.Values {
			if math.Float64bits(a[i].Record.Values[k]) != math.Float64bits(b[i].Record.Values[k]) {
				return false
			}
		}
	}
	return true
}

// jsonBody wraps record texts in an ingest body.
func jsonBody(recs ...string) string {
	return `{"records":[` + strings.Join(recs, ",") + `]}`
}

// jsonRec builds a record text from a serial literal and a values
// array text.
func jsonRec(serial, values string) string {
	return `{"serial":` + serial + `,"hour":7,"values":` + values + `}`
}

const vals12 = `[0.5,1,2,3,4,5,6,7,8,9,10,11]`

// jsonSeeds are the bodies FuzzDecodeJSON starts from; go test runs
// each as a regular test case.
var jsonSeeds = append([]string{
	// The plain schema, with and without a class, and its empty forms.
	jsonBody(jsonRec(`"A"`, vals12), `{"serial":"B","hour":8,"class":"ssd","values":`+vals12+`}`),
	`{"records":[]}`, `{}`, `{"records":null}`, `null`,
	// Unknown fields, at the top and in a record, and repeated keys.
	`{"records":[],"extre":1}`,
	jsonBody(`{"serial":"A","hour":0,"values":` + vals12 + `,"huor":3}`),
	jsonBody(`{"serial":"A","serial":"B","hour":0,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","SERIAL":"B","hour":0,"values":` + vals12 + `}`),
	jsonBody(jsonRec(`"A"`, vals12)) + `x`,
	`{"records":[` + jsonRec(`"A"`, vals12) + `],"records":[{"hour":9}]}`,
	// Keys matched by case folding: U+017F folds to s.
	jsonBody(`{"SERIAL":"A","Hour":1,"VALUES":` + vals12 + `}`),
	jsonBody(`{"ſerial":"A","hour":1,"valueſ":` + vals12 + `,"claſſ":"ssd"}`),
	`{"recordſ":[` + jsonRec(`"A"`, vals12) + `]}`,
	jsonBody(`{"s\u0065rial":"A","hour":1,"values":` + vals12 + `}`),
	// Escaped serials, lone surrogates, surrogate pairs and invalid UTF-8.
	jsonBody(jsonRec(`"A\"\\\/\b\f\n\r\t\u0041\u00e9"`, vals12)),
	jsonBody(jsonRec(`"\ud800"`, vals12), jsonRec(`"\udc00x\ud800\u0041"`, vals12)),
	jsonBody(jsonRec(`"\ud83d\ude00"`, vals12)),
	jsonBody(jsonRec("\"bad\xff\xfeutf8\xed\xa0\x80\"", vals12)),
	jsonBody(jsonRec(`"\u0000"`, vals12)),
	jsonBody(jsonRec(`"\x"`, vals12)),
	jsonBody(jsonRec(`"\u12"`, vals12)),
	jsonBody(jsonRec("\"tab\there\"", vals12)),
	// Quoted values: a valid number, and one that is not.
	jsonBody(jsonRec(`"A"`, `["0.5",1,2,3,4,5,6,7,8,9,10,"1e999"]`)),
	jsonBody(jsonRec(`"A"`, `["abc",1,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `["",1,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `["\u0030.5",1,2,3,4,5,6,7,8,9,10,11]`)),
	// Out-of-range and signed-zero values.
	jsonBody(jsonRec(`"A"`, `[1e999,-1e999,-0,1e-400,5e-324,1.7976931348623157e308,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `[1E+2,1e-2,0.0,-0.0,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `[01,1,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `[1.,1,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `[-,1,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(jsonRec(`"A"`, `[true,1,2,3,4,5,6,7,8,9,10,11]`)),
	// A null record, and null values, hour, class and serial.
	jsonBody(`null`, jsonRec(`"A"`, vals12)),
	jsonBody(`{"serial":"A","hour":null,"class":null,"values":null}`),
	jsonBody(`{"serial":null,"hour":3,"values":` + vals12 + `}`),
	jsonBody(jsonRec(`"A"`, `[null,null,2,3,4,5,6,7,8,9,10,11]`)),
	jsonBody(`{}`),
	// Unknown classes.
	jsonBody(`{"serial":"A","hour":1,"class":"tape","values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":1,"class":"Ssd","values":` + vals12 + `}`),
	// The hour as a fraction, an exponent, past the int range, signed.
	jsonBody(`{"serial":"A","hour":1.0,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":1e2,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":9223372036854775808,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":-9223372036854775808,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":-0,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":"5","values":` + vals12 + `}`),
	// 11 and 13 values, and a quoted non-number past the 12th.
	jsonBody(jsonRec(`"A"`, `[0,1,2,3,4,5,6,7,8,9,10]`)),
	jsonBody(jsonRec(`"A"`, `[0,1,2,3,4,5,6,7,8,9,10,11,12]`)),
	jsonBody(jsonRec(`"A"`, `[0,1,2,3,4,5,6,7,8,9,10,11,"x"]`)),
	// Serials at and past MaxSerialLen, counted after unescaping.
	jsonBody(jsonRec(`"`+strings.Repeat("s", MaxSerialLen)+`"`, vals12)),
	jsonBody(jsonRec(`"`+strings.Repeat("s", MaxSerialLen+1)+`"`, vals12), jsonRec(`"A"`, vals12)),
	jsonBody(jsonRec(`"`+strings.Repeat(`\u00e9`, MaxSerialLen/2+1)+`"`, vals12)),
	jsonBody(jsonRec(`"`+strings.Repeat(`\u0041`, MaxSerialLen/4)+`"`, vals12)),
	// Wrong shapes.
	`{"records":42}`, `{"records":{}}`, `{"records":[[]]}`, `{"records":[1]}`,
	jsonBody(`{"serial":5,"hour":1,"values":` + vals12 + `}`),
	jsonBody(`{"serial":"A","hour":1,"values":{}}`),
	jsonBody(`{"serial":"A","hour":1,"values":[{}]}`),
	// Whitespace everywhere, trailing data, other top-level values.
	" \t\n\r{ \"records\" : [ { \"serial\" : \"A\" , \"hour\" : 1 , \"values\" : [ 0 , 1 , 2 , 3 , 4 , 5 , 6 , 7 , 8 , 9 , 10 , null ] } ] } \n",
	jsonBody(jsonRec(`"A"`, vals12)) + jsonBody(jsonRec(`"B"`, vals12)),
	`null x`, `nullx`, `[]`, `[{"records":[]}]`, `"records"`, `42`, ``, `   `,
	`{"records": [`, `{not json`, `{"records":[],}`, "\ufeff{}",
}, numberSeeds()...)

// numberSeeds puts each of numberBoundaries in a body twice: as a value,
// bare in one record and quoted in the next, and as an hour.
func numberSeeds() []string {
	var seeds []string
	for _, n := range numberBoundaries {
		vals := `,1,2,3,4,5,6,7,8,9,10,11]`
		seeds = append(seeds,
			jsonBody(jsonRec(`"A"`, `[`+n+vals), jsonRec(`"B"`, `["`+n+`"`+vals)),
			jsonBody(`{"serial":"A","hour":`+n+`,"values":`+vals12+`}`))
	}
	return seeds
}

// FuzzDecodeJSON holds DecodeJSON to the encoding/json reference: the
// same accept or reject decision on every input, and on accept
// bit-identical observations and an identical quality report. The one
// allowed divergence is a body the reference accepts and DecodeJSON
// rejects, and only when the body has trailing data or a repeated
// field. A rejection must be a MalformedRow *FrameError that leaves the
// report untouched. Accepted bodies must also split losslessly.
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range jsonSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(randomJSONBody(rand.New(rand.NewSource(1)), 8)))
	f.Fuzz(func(t *testing.T, body []byte) {
		var refRep quality.Report
		want, refErr := referenceDecodeJSON(body, &refRep)
		var d Decoder
		var rep quality.Report
		got, err := d.DecodeJSON(body, &rep)
		if err != nil {
			if fe, ok := IsFrameError(err); !ok || fe.Kind != quality.MalformedRow {
				t.Fatalf("rejection is not a malformed-row frame error: %v", err)
			}
			if !reflect.DeepEqual(rep, quality.Report{}) {
				t.Fatalf("rejection touched the report: %+v", rep)
			}
			if refErr == nil && !trailingOrRepeated(body) {
				t.Fatalf("rejected (%v) a body encoding/json accepts, with no trailing data or repeated field", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("accepted a body encoding/json rejects: %v", refErr)
		}
		if !sameObservations(got, want) {
			t.Fatalf("observations differ:\n got %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("reports differ:\n got %+v\nwant %+v", rep, refRep)
		}
		checkSplitJSON(t, body)
	})
}

// splitAssign places serials in three parts by hash.
func splitAssign(serial []byte) int {
	h := fnv.New32a()
	h.Write(serial)
	return int(h.Sum32() % 3)
}

// checkSplitJSON splits an accepted body three ways and checks that the
// parts decode to exactly the whole body's observations, each part in
// the whole body's order, and that the split's and the parts' ledgers
// add up to the whole body's.
func checkSplitJSON(t *testing.T, body []byte) {
	t.Helper()
	var d Decoder
	var wholeRep quality.Report
	whole, err := d.DecodeJSON(body, &wholeRep)
	if err != nil {
		t.Fatalf("whole body: %v", err)
	}
	whole = append([]fleet.Observation(nil), whole...)
	var sumRep quality.Report
	parts, err := SplitJSON(body, 3, splitAssign, &sumRep)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	kept := 0
	for p, part := range parts {
		var want []fleet.Observation
		for _, o := range whole {
			if splitAssign([]byte(o.Serial)) == p {
				want = append(want, o)
			}
		}
		if part == nil {
			if len(want) != 0 {
				t.Fatalf("part %d is empty, want %d observations", p, len(want))
			}
			continue
		}
		var partRep quality.Report
		got, err := d.DecodeJSON(part, &partRep)
		if err != nil {
			t.Fatalf("part %d does not decode: %v\n%s", p, err, part)
		}
		if !sameObservations(got, want) {
			t.Fatalf("part %d:\n got %+v\nwant %+v", p, got, want)
		}
		kept += len(got)
		sumRep.Merge(&partRep)
	}
	if kept != len(whole) || sumRep.RowsRead != wholeRep.RowsRead ||
		sumRep.RowsQuarantined != wholeRep.RowsQuarantined || sumRep.ByKind != wholeRep.ByKind {
		t.Fatalf("split ledger %+v (kept %d), whole body %+v (kept %d)", sumRep, kept, wholeRep, len(whole))
	}
}

// randomJSONBody writes an ingest body of up to n records that mixes
// valid records with every per-record defect, escaped and non-ASCII
// serials, case-folded keys, shuffled field order and whitespace.
func randomJSONBody(rng *rand.Rand, n int) string {
	serials := []string{`"A"`, `"B"`, `"dr-1"`, `"\u0041"`, `"é"`, `"\ud800"`, `""`, `"drive \"7\""`, `"ſ"`}
	ws := func() string { return []string{"", "", "", " ", "\n\t"}[rng.Intn(5)] }
	var recs []string
	for i := rng.Intn(n + 1); i > 0; i-- {
		if rng.Intn(20) == 0 {
			recs = append(recs, "null")
			continue
		}
		var fields []string
		if rng.Intn(15) != 0 {
			key := []string{`"serial"`, `"Serial"`, `"ſerial"`}[rng.Intn(3)]
			fields = append(fields, key+":"+ws()+serials[rng.Intn(len(serials))])
		}
		fields = append(fields, `"hour":`+strconv.Itoa(rng.Intn(2000)-10))
		if rng.Intn(4) == 0 {
			fields = append(fields, `"class":`+[]string{`"ssd"`, `"hdd"`, `"HDD"`, `"tape"`, `null`}[rng.Intn(5)])
		}
		count := int(smart.NumAttrs)
		if rng.Intn(10) == 0 {
			count += rng.Intn(3) - 1
		}
		vals := make([]string, count)
		for a := range vals {
			switch rng.Intn(30) {
			case 0:
				vals[a] = "null"
			case 1:
				vals[a] = `"0.25"`
			case 2:
				vals[a] = "1e999"
			case 3:
				vals[a] = "-0"
			default:
				vals[a] = strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)
			}
		}
		fields = append(fields, `"values":[`+strings.Join(vals, ","+ws())+`]`)
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		recs = append(recs, "{"+ws()+strings.Join(fields, ","+ws())+ws()+"}")
	}
	return ws() + `{"records":[` + strings.Join(recs, ","+ws()) + "]}" + ws()
}

// TestSplitJSONPreservesRecords is the router-split property on random
// bodies: the per-part bodies together decode to the whole body's
// observations, with each serial's records in their original order.
func TestSplitJSONPreservesRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		body := []byte(randomJSONBody(rng, 40))
		var refRep quality.Report
		if _, err := referenceDecodeJSON(body, &refRep); err != nil {
			t.Fatalf("generator wrote a body the reference rejects: %v\n%s", err, body)
		}
		checkSplitJSON(t, body)
	}
}

// TestSplitJSONRejectsLikeDecode: a body DecodeJSON rejects is rejected
// by the split with the same error, and the split's ledger stays
// untouched even when records without a serial came first.
func TestSplitJSONRejectsLikeDecode(t *testing.T) {
	for _, body := range []string{
		jsonBody(`{"hour":1}`, jsonRec(`"A"`, vals12)) + ` x`,
		jsonBody(`{"hour":1}`, `{"serial":"A","huor":3}`),
		`{"records":[` + jsonRec(`"A"`, vals12) + `],"records":[]}`,
		``,
	} {
		var d Decoder
		var rep quality.Report
		_, decErr := d.DecodeJSON([]byte(body), &rep)
		_, splitErr := SplitJSON([]byte(body), 2, func([]byte) int { return 0 }, &rep)
		if decErr == nil || splitErr == nil || decErr.Error() != splitErr.Error() {
			t.Fatalf("%q: decode error %v, split error %v", body, decErr, splitErr)
		}
		if !reflect.DeepEqual(rep, quality.Report{}) {
			t.Fatalf("%q: rejection touched the ledger: %+v", body, rep)
		}
	}
	if _, err := SplitJSON([]byte(`{}`), 0, func([]byte) int { return 0 }, nil); err == nil {
		t.Fatal("zero parts accepted")
	}
	for _, idx := range []int{-1, 5} {
		if _, err := SplitJSON([]byte(jsonBody(jsonRec(`"A"`, vals12))), 1, func([]byte) int { return idx }, nil); err == nil {
			t.Fatalf("out-of-range assignment %d accepted", idx)
		}
	}
}

// TestDecodeJSONSteadyStateAllocs pins the JSON decoder to the binary
// one's contract: a warm decoder allocates once per body, the string its
// observations' serials slice, at 10 records as at 2,000, with a class
// named on every third record. Skipped under the race detector.
func TestDecodeJSONSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{10, 2000} {
		body := jsonFixture(testMixedObs(n))
		var d Decoder
		var rep quality.Report
		if _, err := d.DecodeJSON(body, &rep); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			got, err := d.DecodeJSON(body, &rep)
			if err != nil || len(got) != n {
				t.Fatalf("decode: %d records, err %v", len(got), err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%d records: steady-state JSON decode allocates %.2f times per call, want 1", n, allocs)
		}
	}
}

// jsonFixture renders observations the way agents send them: every
// field, non-finite values as null, the class only for non-HDD drives.
func jsonFixture(obs []fleet.Observation) []byte {
	recs := make([]string, len(obs))
	for i, o := range obs {
		vals := make([]string, len(o.Record.Values))
		for a, v := range o.Record.Values {
			vals[a] = "null"
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals[a] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		class := ""
		if o.Class != smart.HDD {
			class = `,"class":"` + o.Class.String() + `"`
		}
		recs[i] = fmt.Sprintf(`{"serial":%q,"hour":%d%s,"values":[%s]}`, o.Serial, o.Record.Hour, class, strings.Join(vals, ","))
	}
	return []byte(jsonBody(recs...))
}
