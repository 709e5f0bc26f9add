package server

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"

	"bytes"
	"encoding/json"
	"net/http"

	"disksig/internal/fleet"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// nullResponseWriter swallows responses so the benchmarks measure the
// server, not httptest.ResponseRecorder's buffer growth.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchObs builds one steady-state batch: every drive reports the same
// healthy score at the same hour.
func benchObs(drives, hour int) []fleet.Observation {
	obs := make([]fleet.Observation, drives)
	for d := range obs {
		var v smart.Values
		v[smart.RRER] = 0.9
		obs[d] = fleet.Observation{
			Serial: fmt.Sprintf("SER-%04d", d),
			Record: smart.Record{Hour: hour, Values: v},
		}
	}
	return obs
}

// reusableBody is a resettable request body so the benchmark loop does
// not allocate a fresh reader per request.
type reusableBody struct{ bytes.Reader }

func (reusableBody) Close() error { return nil }

// serveBatch drives one POST /v1/ingest through the full handler chain.
func serveBatch(h http.Handler, req *http.Request, body *reusableBody, frame []byte, w *nullResponseWriter) {
	body.Reset(frame)
	req.Body = body
	h.ServeHTTP(w, req)
}

// BenchmarkIngestBinary measures the binary ingest hot path end to end
// (handler chain, wire decode, fleet scoring, ack encoding) in
// steady state: all drives known, hours advancing. The acceptance budget
// is < 1 alloc per record.
func BenchmarkIngestBinary(b *testing.B) {
	const drives = 512
	srv := testServer(b, fleet.Config{Shards: 16, Workers: 8}, Config{})
	h := srv.Handler()
	obs := benchObs(drives, 0)
	frame := wire.EncodeBatch(obs)

	req := httptest.NewRequest("POST", "/v1/ingest", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	var body reusableBody
	w := &nullResponseWriter{}
	serveBatch(h, req, &body, frame, w) // warm-up: creates all drive state

	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obs {
			obs[j].Record.Hour = i + 1
		}
		var err error
		frame, err = wire.AppendBatch(frame[:0], obs)
		if err != nil {
			b.Fatal(err)
		}
		serveBatch(h, req, &body, frame, w)
	}
	b.ReportMetric(float64(b.N*drives)/b.Elapsed().Seconds(), "records/s")
}

// jsonBatch is a JSON ingest body of benchObs records whose hours are
// written in a fixed width, so a steady-state loop can renumber them in
// place and client-side encoding does not pollute the server-side
// allocation count.
type jsonBatch struct {
	body     []byte
	hourOffs []int
}

// jsonHourBase is the first hour of a jsonBatch: 7 digits, never a
// leading zero.
const jsonHourBase = 1000000

func newJSONBatch(tb testing.TB, drives int) *jsonBatch {
	tb.Helper()
	type rec struct {
		Serial string     `json:"serial"`
		Hour   int        `json:"hour"`
		Values []*float64 `json:"values"`
	}
	rs := make([]rec, drives)
	for d := range rs {
		vals := make([]*float64, int(smart.NumAttrs))
		for a := range vals {
			z := 0.0
			vals[a] = &z
		}
		score := 0.9
		vals[smart.RRER] = &score
		rs[d] = rec{Serial: fmt.Sprintf("SER-%04d", d), Hour: jsonHourBase, Values: vals}
	}
	body, err := json.Marshal(map[string]any{"records": rs})
	if err != nil {
		tb.Fatal(err)
	}
	// Locate every fixed-width hour so iterations can renumber in place.
	jb := &jsonBatch{body: body}
	marker := []byte(`"hour":` + strconv.Itoa(jsonHourBase))
	for off := 0; ; {
		i := bytes.Index(body[off:], marker)
		if i < 0 {
			break
		}
		jb.hourOffs = append(jb.hourOffs, off+i+len(`"hour":`))
		off += i + len(marker)
	}
	if len(jb.hourOffs) != drives {
		tb.Fatalf("found %d hour fields, want %d", len(jb.hourOffs), drives)
	}
	return jb
}

// setHour renumbers every record to jsonHourBase+h.
func (jb *jsonBatch) setHour(tb testing.TB, h int) {
	var digits [8]byte
	hs := strconv.AppendInt(digits[:0], int64(jsonHourBase+h), 10)
	if len(hs) != 7 {
		tb.Fatalf("hour %d is not 7 digits", jsonHourBase+h)
	}
	for _, off := range jb.hourOffs {
		copy(jb.body[off:], hs)
	}
}

// BenchmarkIngestJSON is the same workload through the JSON path, the
// baseline the binary format is judged against.
func BenchmarkIngestJSON(b *testing.B) {
	const drives = 512
	srv := testServer(b, fleet.Config{Shards: 16, Workers: 8}, Config{})
	h := srv.Handler()
	jb := newJSONBatch(b, drives)

	req := httptest.NewRequest("POST", "/v1/ingest", nil)
	req.Header.Set("Content-Type", "application/json")
	var body reusableBody
	w := &nullResponseWriter{}
	serveBatch(h, req, &body, jb.body, w) // warm-up

	b.SetBytes(int64(len(jb.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb.setHour(b, i+1)
		serveBatch(h, req, &body, jb.body, w)
	}
	b.ReportMetric(float64(b.N*drives)/b.Elapsed().Seconds(), "records/s")
}

// TestIngestJSONAllocsMatchBinary pins the JSON ingest path to the
// binary one's allocation budget: a warm JSON request through Handler()
// makes at most 4 more allocations than the same batch as a frame, and
// as many at 64 records as at 512, so none per record. Skipped under
// the race detector, whose sync.Pool drops items at random.
func TestIngestJSONAllocsMatchBinary(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(drives int, binary bool) float64 {
		srv := testServer(t, fleet.Config{Shards: 16, Workers: 8}, Config{})
		h := srv.Handler()
		req := httptest.NewRequest("POST", "/v1/ingest", nil)
		var body reusableBody
		w := &nullResponseWriter{}
		var next func() []byte
		hour := 0
		if binary {
			req.Header.Set("Content-Type", wire.ContentType)
			obs := benchObs(drives, 0)
			frame := wire.EncodeBatch(obs)
			next = func() []byte {
				hour++
				for j := range obs {
					obs[j].Record.Hour = hour
				}
				frame, _ = wire.AppendBatch(frame[:0], obs)
				return frame
			}
		} else {
			req.Header.Set("Content-Type", "application/json")
			jb := newJSONBatch(t, drives)
			next = func() []byte {
				hour++
				jb.setHour(t, hour)
				return jb.body
			}
		}
		serveBatch(h, req, &body, next(), w) // warm-up: creates all drive state
		return testing.AllocsPerRun(50, func() { serveBatch(h, req, &body, next(), w) })
	}
	for _, drives := range []int{64, 512} {
		bin, js := allocs(drives, true), allocs(drives, false)
		t.Logf("%d records: binary %.0f, JSON %.0f allocs per request", drives, bin, js)
		if js > bin+4 {
			t.Errorf("%d records: JSON ingest makes %.0f allocs, binary %.0f; want at most 4 more", drives, js, bin)
		}
	}
	if small, large := allocs(64, false), allocs(512, false); small != large {
		t.Errorf("JSON ingest makes %.0f allocs at 64 records and %.0f at 512; want the same", small, large)
	}
}

// readFleet returns the handler of a server over drives drives with
// three hours of scores spread over every severity, the fleet of
// internal/fleet's BenchmarkSummary.
func readFleet(tb testing.TB, drives int) http.Handler {
	srv := testServer(tb, fleet.Config{Shards: 16}, Config{})
	obs := make([]fleet.Observation, 0, 3*drives)
	for h := 0; h < 3; h++ {
		for d := 0; d < drives; d++ {
			var v smart.Values
			v[smart.RRER] = 1 - 2*math.Mod(float64(d)*0.6180339887, 1)
			obs = append(obs, fleet.Observation{Serial: fmt.Sprintf("SER-%05d", d), Record: smart.Record{Hour: h, Values: v}})
		}
	}
	srv.store.IngestBatch(obs)
	return srv.Handler()
}

// readPaths are the two read handlers the allocation pins and
// BenchmarkReadHandlers drive.
var readPaths = []struct{ name, path string }{
	{"drive", "/v1/drives/SER-00001"},
	{"summary", "/v1/fleet/summary?top=10"},
}

// BenchmarkReadHandlers measures GET /v1/drives/{serial} and GET
// /v1/fleet/summary?top=10 through Handler() at the paper's 23,395
// drives: the handler chain, the store read and the JSON rendering.
func BenchmarkReadHandlers(b *testing.B) {
	h := readFleet(b, 23395)
	for _, rp := range readPaths {
		b.Run(rp.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", rp.path, nil)
			w := &nullResponseWriter{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}

// TestReadAllocsPinned pins the allocations of a warm GET
// /v1/drives/{serial} and GET /v1/fleet/summary?top=10 through
// Handler() at the figures measured with go1.24, and requires them
// equal at 3,000 drives and at the paper's 23,395: a read renders a
// bounded document, whatever the fleet size. Skipped under the race
// detector, whose sync.Pool drops items at random.
func TestReadAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pins := map[string]float64{"drive": 12, "summary": 64}
	first := map[string]float64{}
	for _, drives := range []int{3000, 23395} {
		h := readFleet(t, drives)
		for _, rp := range readPaths {
			req := httptest.NewRequest("GET", rp.path, nil)
			w := &nullResponseWriter{}
			h.ServeHTTP(w, req) // warm-up: fills the response pools
			got := testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
			if got > pins[rp.name] {
				t.Errorf("%d drives: GET %s makes %.0f allocs, want at most %.0f", drives, rp.path, got, pins[rp.name])
			}
			if n, ok := first[rp.name]; ok && got != n {
				t.Errorf("GET %s makes %.0f allocs at %d drives and %.0f at 3,000; want the same", rp.path, got, drives, n)
			}
			first[rp.name] = got
		}
	}
}

var _ io.ReadCloser = (*reusableBody)(nil)
