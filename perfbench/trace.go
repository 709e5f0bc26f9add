package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one request as a layer's HTTP handler served it, recorded by
// the benchmark's wrapper around that handler.
type span struct {
	layer      string // "router", "node", "follower"
	kind       string // "ingest", "summary", "drive", "ship", "other"
	start, end time.Duration
	id         int64 // client request number, when the client sent one
	reqBytes   int64
	parent     int // index of the span that caused it; -1 for none
}

func (s span) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// tracer keeps spans in memory while on; they are analysed when the
// run ends.
type tracer struct {
	rec *recorder // clock origin and the traced-window switch
	on  bool      // wrappers are installed at all

	mu    sync.Mutex
	spans []span
}

// wrap serves h behind a span-recording wrapper. With tracing off the
// handler is served as is.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if !t.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.rec.traced.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := span{layer: layer, kind: kindOf(r.URL.Path), reqBytes: r.ContentLength, parent: -1}
		sp.id, _ = strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		sp.start = t.rec.now()
		h.ServeHTTP(w, r)
		sp.end = t.rec.now()
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	})
}

func kindOf(path string) string {
	switch {
	case path == "/v1/ingest":
		return "ingest"
	case path == "/v1/fleet/summary":
		return "summary"
	case strings.HasPrefix(path, "/v1/drives/"):
		return "drive"
	case path == "/v1/replication/ship":
		return "ship"
	}
	return "other"
}

// take returns the recorded spans with parents linked: a router span
// is the parent of each node span of the same kind it contains, and a
// primary ingest span is the parent of the follower ship requests that
// start inside it (the earliest-starting one when two overlap). No
// request id crosses the router or the WAL shipper, so path and time
// containment are the only links.
func (t *tracer) take() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var routers, primaries []int
	for i, s := range spans {
		switch {
		case s.layer == "router":
			routers = append(routers, i)
		case s.layer == "node" && s.kind == "ingest":
			primaries = append(primaries, i)
		}
	}
	link := func(child int, cands []int, want func(p, c span) bool) {
		c := spans[child]
		// Candidates are start-sorted; the first that contains the child
		// wins.
		for _, p := range cands {
			ps := spans[p]
			if ps.start > c.start {
				return
			}
			if ps.end >= c.end && want(ps, c) {
				spans[child].parent = p
				return
			}
		}
	}
	for i, s := range spans {
		switch {
		case s.layer == "node" && len(routers) > 0:
			link(i, routers, func(p, c span) bool { return p.kind == c.kind })
		case s.layer == "follower" && s.kind == "ship":
			c := spans[i]
			for _, p := range primaries {
				ps := spans[p]
				if ps.start > c.start {
					break
				}
				if ps.end >= c.start {
					spans[i].parent = p
					break
				}
			}
		}
	}
	return spans
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(spans []span, children map[int][]int, i int) time.Duration {
	var iv [][2]time.Duration
	for _, c := range children[i] {
		iv = append(iv, [2]time.Duration{max(spans[c].start, spans[i].start), min(spans[c].end, spans[i].end)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered := time.Duration(0)
	var cur [2]time.Duration
	for k, v := range iv {
		if k == 0 || v[0] > cur[1] {
			if k > 0 {
				covered += cur[1] - cur[0]
			}
			cur = v
		} else if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	if len(iv) > 0 {
		covered += cur[1] - cur[0]
	}
	return spans[i].end - spans[i].start - covered
}
