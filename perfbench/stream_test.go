package main

import (
	"bytes"
	"testing"

	"disksig/internal/loadgen"
)

func TestFixedFleetSameSeedSameBytes(t *testing.T) {
	for _, format := range []loadgen.Format{loadgen.FormatBinary, loadgen.FormatJSON} {
		a, err := newFixedFleet(7, 500, 2, format)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newFixedFleet(7, 500, 2, format)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newFixedFleet(8, 500, 2, format)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			qa, qb, qc := a.window(w, 5, true), b.window(w, 5, true), c.window(w, 5, true)
			if loadgen.Fingerprint(qa) != loadgen.Fingerprint(qb) {
				t.Fatalf("%s window %d: same seed, different bytes", format, w)
			}
			if loadgen.Fingerprint(qa) == loadgen.Fingerprint(qc) {
				t.Fatalf("%s window %d: seeds 7 and 8 give the same bytes", format, w)
			}
		}
		if loadgen.Fingerprint(a.warmup(true)) != loadgen.Fingerprint(b.warmup(true)) {
			t.Fatalf("%s warm-up: same seed, different bytes", format)
		}
	}
}

// TestFixedFleetShape checks the stream's contract: the warm-up holds
// exactly one record of every drive, measured batches are full, and a
// drive's hours never go back across the passes over its profile.
func TestFixedFleetShape(t *testing.T) {
	const drives, streams = 450, 2
	f, err := newFixedFleet(3, drives, streams, loadgen.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, q := range f.warmup(false) {
		for _, b := range q {
			for _, o := range b.Obs {
				seen[o.Serial]++
			}
		}
	}
	if len(seen) != drives {
		t.Fatalf("warm-up covers %d drives, want %d", len(seen), drives)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("warm-up sends %d records of %s", n, s)
		}
	}
	// Walk drive 0 of stream 0 through more steps than its profile has.
	nd := f.streamDrives(0)
	recs := f.records[0]
	lapEnd := map[int]int{} // lap -> highest hour seen in it
	for step := 0; step < 3*len(recs); step++ {
		o := f.obs(0, step*nd)
		if o.Serial != f.serials[0] {
			t.Fatalf("step %d of stream 0 starts with %s", step, o.Serial)
		}
		lap := (f.offset[0] + step) / len(recs)
		if prev, ok := lapEnd[lap-1]; ok && o.Record.Hour <= prev {
			t.Fatalf("step %d (pass %d) reports hour %d after hour %d of the previous pass", step, lap, o.Record.Hour, prev)
		}
		lapEnd[lap] = max(lapEnd[lap], o.Record.Hour)
	}
	for _, q := range f.window(0, 4, true) {
		for _, b := range q {
			if len(b.Obs) != batchSize || len(b.Body) == 0 {
				t.Fatalf("measured batch %d/%d has %d records, %d body bytes", b.Stream, b.Index, len(b.Obs), len(b.Body))
			}
			if !bytes.Equal(b.Body, f.batch(b.Stream, b.Index, true).Body) {
				t.Fatalf("batch %d/%d is not a pure function of its position", b.Stream, b.Index)
			}
		}
	}
}
