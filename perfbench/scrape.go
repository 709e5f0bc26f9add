package main

import (
	"fmt"
	"net/http"
	"strings"
)

// metricsDoc is one /metrics document, decoded generically: the
// benchmark reads counters by path and reports before/after deltas.
type metricsDoc map[string]any

func scrape(client *http.Client, base string) (metricsDoc, error) {
	var doc metricsDoc
	if err := getJSON(client, base+"/metrics", &doc); err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	return doc, nil
}

// num returns the number at a dotted path, 0 when absent.
func (d metricsDoc) num(path string) float64 {
	var cur any = map[string]any(d)
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}

// delta returns after − before at path.
func delta(before, after metricsDoc, path string) float64 {
	return after.num(path) - before.num(path)
}

// shardDrives returns the per-shard drive counts of a node document.
func (d metricsDoc) shardDrives() []float64 {
	fl, _ := d["fleet"].(map[string]any)
	shards, _ := fl["shards"].([]any)
	var out []float64
	for _, s := range shards {
		if m, ok := s.(map[string]any); ok {
			f, _ := m["drives"].(float64)
			out = append(out, f)
		}
	}
	return out
}

// skew is max/mean of xs: 1 for a perfectly even spread.
func skew(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, hi := 0.0, xs[0]
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(xs)))
}
