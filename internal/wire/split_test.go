package wire

import (
	"hash/crc32"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// TestSplitFrameRoundTrip checks the router contract: splitting a frame
// into parts and decoding each part yields exactly the original records,
// in original order within each part.
func TestSplitFrameRoundTrip(t *testing.T) {
	checkSplitRoundTrip(t, testObs(50))
}

// TestSplitFrameRoundTripV2 is the same contract for a mixed-class batch:
// a version-2 frame splits into version-2 parts that keep every class.
func TestSplitFrameRoundTripV2(t *testing.T) {
	checkSplitRoundTrip(t, testMixedObs(50))
}

func checkSplitRoundTrip(t *testing.T, obs []fleet.Observation) {
	t.Helper()
	frame := EncodeBatch(obs)
	const parts = 3
	assign := func(serial []byte) int {
		return int(serial[len(serial)-1]) % parts
	}
	var rep quality.Report
	bodies, err := SplitFrame(frame, parts, assign, &rep)
	if err != nil {
		t.Fatalf("SplitFrame: %v", err)
	}
	if rep.RowsRead != 0 {
		t.Fatalf("well-formed frame touched the ledger: %+v", rep)
	}

	var d Decoder
	got := 0
	next := make([]int, parts) // per-part cursor into the expected order
	for p, body := range bodies {
		if body == nil {
			continue
		}
		if body[0] != frame[0] {
			t.Fatalf("part %d framed as version %d, input as %d", p, body[0], frame[0])
		}
		var partRep quality.Report
		decoded, err := d.Decode(body, &partRep)
		if err != nil {
			t.Fatalf("part %d: decode: %v", p, err)
		}
		if partRep.RowsRead != 0 {
			t.Fatalf("part %d quarantined: %+v", p, partRep)
		}
		for _, o := range decoded {
			// Find the next original record assigned to this part.
			for next[p] < len(obs) && assign([]byte(obs[next[p]].Serial)) != p {
				next[p]++
			}
			if next[p] >= len(obs) {
				t.Fatalf("part %d has extra record %q", p, o.Serial)
			}
			want := obs[next[p]]
			if o.Serial != want.Serial || o.Class != want.Class || o.Record.Hour != want.Record.Hour || !nanEqual(o.Record.Values, want.Record.Values) {
				t.Fatalf("part %d: got %q %v h%d, want %q %v h%d", p, o.Serial, o.Class, o.Record.Hour, want.Serial, want.Class, want.Record.Hour)
			}
			next[p]++
			got++
		}
	}
	if got != len(obs) {
		t.Fatalf("parts carry %d records, frame had %d", got, len(obs))
	}
}

// An unknown version-2 class byte is the owner's to judge, even on a
// record whose triple count the split would otherwise quarantine: the
// split forwards the record untouched and the owner's Decode writes the
// same device-class quarantine a direct ingest would.
func TestSplitFrameV2PassesUnknownClass(t *testing.T) {
	for _, triples := range []int{3, int(smart.NumAttrs) + 1} {
		// Hand-build: an unknown-class record, then a good SSD record.
		body := []byte{Version2}
		body = appendU32(body, 2)
		body = appendU16(body, 1)
		body = appendU32(body, 5)
		body = append(body, 0x7f)
		body = appendU16(body, uint16(triples))
		body = append(body, 'x')
		for k := 0; k < triples; k++ {
			body = append(body, byte(k%int(smart.NumAttrs)), 0)
			body = appendU64(body, 0)
		}
		body = appendU16(body, 3)
		body = appendU32(body, 7)
		body = append(body, byte(smart.SSD))
		body = appendU16(body, 0)
		body = append(body, "abc"...)
		frame := appendU32(body, crc32.Checksum(body, castagnoli))

		var d Decoder
		var direct quality.Report
		if _, err := d.Decode(frame, &direct); err != nil {
			t.Fatalf("%d triples: direct decode: %v", triples, err)
		}
		var splitRep quality.Report
		bodies, err := SplitFrame(frame, 1, func([]byte) int { return 0 }, &splitRep)
		if err != nil {
			t.Fatalf("%d triples: SplitFrame: %v", triples, err)
		}
		if splitRep.RowsRead != 0 {
			t.Fatalf("%d triples: split quarantined the record itself: %+v", triples, splitRep)
		}
		var routed quality.Report
		kept, err := d.Decode(bodies[0], &routed)
		if err != nil {
			t.Fatalf("%d triples: decoding the part: %v", triples, err)
		}
		if len(kept) != 1 || kept[0].Class != smart.SSD || routed.RowsQuarantined != 1 ||
			routed.Count(quality.BadField) != 1 || routed.ByKind != direct.ByKind {
			t.Fatalf("%d triples: routed ledger %+v (kept %d), direct %+v", triples, routed, len(kept), direct)
		}
	}
}

// Structurally defective record headers (the ones Decode quarantines
// before reading triples) must quarantine at the split, and well-formed
// neighbors must still forward.
func TestSplitFrameQuarantinesDefectiveHeaders(t *testing.T) {
	// Hand-build: one zero-length-serial record, then one good record.
	body := []byte{Version}
	body = appendU32(body, 2)
	body = appendU16(body, 0) // slen 0 → BadField serial
	body = appendU32(body, 5)
	body = appendU16(body, 0)
	body = appendU16(body, 3) // good record "abc", no triples
	body = appendU32(body, 7)
	body = appendU16(body, 0)
	body = append(body, "abc"...)
	frame := appendU32(body, crc32.Checksum(body, castagnoli))

	var rep quality.Report
	bodies, err := SplitFrame(frame, 1, func([]byte) int { return 0 }, &rep)
	if err != nil {
		t.Fatalf("SplitFrame: %v", err)
	}
	if rep.RowsRead != 1 || rep.RowsQuarantined != 1 {
		t.Fatalf("ledger: %+v", rep)
	}
	var d Decoder
	var decRep quality.Report
	decoded, err := d.Decode(bodies[0], &decRep)
	if err != nil || len(decoded) != 1 || decoded[0].Serial != "abc" {
		t.Fatalf("forwarded part: %v, %d records", err, len(decoded))
	}

	// A nil report must not panic when assign never sees the record.
	if _, err := SplitFrame(frame, 1, func([]byte) int { return 0 }, nil); err != nil {
		t.Fatalf("nil-report split: %v", err)
	}
}

// Frame-level failures must match Decode's judgment exactly: same error
// class for the same bytes.
func TestSplitFrameErrorsMatchDecode(t *testing.T) {
	good := EncodeBatch(testObs(5))
	good2 := EncodeBatch(testMixedObs(5))
	cases := map[string][]byte{
		"short":       good[:minFrameSize-1],
		"version":     append([]byte{99}, good[1:]...),
		"crc":         append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^1),
		"count":       corruptCount(good),
		"torn":        tornTail(good),
		"trailing":    trailingBytes(good),
		"v2 crc":      append(append([]byte{}, good2[:len(good2)-1]...), good2[len(good2)-1]^1),
		"v2 count":    corruptCount(good2),
		"v2 torn":     tornTail(good2),
		"v2 trailing": trailingBytes(good2),
	}
	for name, frame := range cases {
		var d Decoder
		var decRep, splitRep quality.Report
		_, decErr := d.Decode(frame, &decRep)
		_, splitErr := SplitFrame(frame, 2, func([]byte) int { return 0 }, &splitRep)
		if decErr == nil || splitErr == nil {
			t.Fatalf("%s: decode err %v, split err %v; both must fail", name, decErr, splitErr)
		}
		fe1, ok1 := IsFrameError(decErr)
		fe2, ok2 := IsFrameError(splitErr)
		if !ok1 || !ok2 || fe1.Kind != fe2.Kind {
			t.Fatalf("%s: decode %v (frame=%v), split %v (frame=%v)", name, decErr, ok1, splitErr, ok2)
		}
		if splitRep.RowsRead != 0 {
			t.Fatalf("%s: frame-level failure touched the ledger: %+v", name, splitRep)
		}
	}

	if _, err := SplitFrame(good, 0, func([]byte) int { return 0 }, nil); err == nil {
		t.Fatal("zero parts accepted")
	}
	for _, idx := range []int{-1, 5} {
		if _, err := SplitFrame(good, 1, func([]byte) int { return idx }, nil); err == nil {
			t.Fatalf("out-of-range assignment %d accepted", idx)
		}
	}
}

// corruptCount rewrites the record count to exceed what the body holds
// and re-seals the CRC so only the count check can object.
func corruptCount(frame []byte) []byte {
	f := append([]byte{}, frame[:len(frame)-trailerSize]...)
	huge := appendU32(f[:1], 1<<30)
	huge = append(huge, f[headerSize:]...)
	return appendU32(huge, crc32.Checksum(huge, castagnoli))
}

// tornTail drops the last record's final byte and re-seals the CRC.
func tornTail(frame []byte) []byte {
	f := append([]byte{}, frame[:len(frame)-trailerSize-1]...)
	return appendU32(f, crc32.Checksum(f, castagnoli))
}

// trailingBytes appends garbage after the last record and re-seals.
func trailingBytes(frame []byte) []byte {
	f := append([]byte{}, frame[:len(frame)-trailerSize]...)
	f = append(f, 0xde, 0xad)
	return appendU32(f, crc32.Checksum(f, castagnoli))
}

// splitFunc is the shape of SplitFrameInto and SplitJSONInto.
type splitFunc func(dst [][]byte, body []byte, parts int, assign func(serial []byte) int, rep *quality.Report) ([][]byte, error)

// lastByteOwner assigns a serial by its last byte.
func lastByteOwner(parts int) func([]byte) int {
	return func(serial []byte) int { return int(serial[len(serial)-1]) % parts }
}

// TestSplitIntoWarmBuffersAllocatesNothing: once its parts have grown
// to the batches it splits, a reused split allocates nothing, in either
// format. Skipped under the race detector.
func TestSplitIntoWarmBuffersAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	obs := testMixedObs(200)
	assign := lastByteOwner(2)
	for _, tc := range []struct {
		name  string
		body  []byte
		split splitFunc
	}{
		{"binary", EncodeBatch(obs), SplitFrameInto},
		{"json", jsonFixture(obs), SplitJSONInto},
	} {
		var parts [][]byte
		var rep quality.Report
		var err error
		split := func() {
			if parts, err = tc.split(parts, tc.body, 2, assign, &rep); err != nil || len(parts[0]) == 0 || len(parts[1]) == 0 {
				t.Fatalf("%s: split into %d parts, err %v", tc.name, len(parts), err)
			}
		}
		split()
		if allocs := testing.AllocsPerRun(100, split); allocs != 0 {
			t.Fatalf("%s: a split into warm buffers allocates %.2f times, want 0", tc.name, allocs)
		}
	}
}
