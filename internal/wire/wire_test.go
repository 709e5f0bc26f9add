package wire

import (
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// testObs builds a batch of well-formed observations: serial-per-drive,
// ascending hours, a deterministic spread of finite values with a few
// NaN holes.
func testObs(records int) []fleet.Observation {
	obs := make([]fleet.Observation, records)
	for i := range obs {
		var v smart.Values
		for a := range v {
			v[a] = float64(i*31+a) / 7
		}
		if i%5 == 0 {
			v[2] = math.NaN() // a missing value must round-trip as missing
		}
		obs[i] = fleet.Observation{
			Serial: "wt-" + strings.Repeat("x", i%3) + string(rune('a'+i%26)),
			Record: smart.Record{Hour: i - 3, Values: v},
		}
	}
	return obs
}

// testMixedObs is testObs with every third observation marked SSD, so
// the batch must frame as version 2.
func testMixedObs(records int) []fleet.Observation {
	obs := testObs(records)
	for i := range obs {
		if i%3 == 0 {
			obs[i].Class = smart.SSD
		}
	}
	return obs
}

// nanEqual compares values treating NaN as equal to NaN.
func nanEqual(a, b smart.Values) bool {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 200} {
		obs := testObs(n)
		frame := EncodeBatch(obs)
		if len(frame) != EncodedSize(obs) {
			t.Fatalf("n=%d: frame is %d bytes, EncodedSize says %d", n, len(frame), EncodedSize(obs))
		}
		var d Decoder
		var rep quality.Report
		got, err := d.Decode(frame, &rep)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(got) != n || rep.RowsQuarantined != 0 || rep.RowsRead != 0 {
			t.Fatalf("n=%d: %d kept, ledger %+v", n, len(got), rep)
		}
		for i := range got {
			if got[i].Serial != obs[i].Serial || got[i].Record.Hour != obs[i].Record.Hour {
				t.Fatalf("n=%d record %d: got %q h%d, want %q h%d",
					n, i, got[i].Serial, got[i].Record.Hour, obs[i].Serial, obs[i].Record.Hour)
			}
			if !nanEqual(got[i].Record.Values, obs[i].Record.Values) {
				t.Fatalf("n=%d record %d: values differ: %v vs %v", n, i, got[i].Record.Values, obs[i].Record.Values)
			}
		}
	}
}

// TestDecodeSteadyStateAllocs pins a warm decoder to one allocation per
// frame, the string its observations' serials slice, at 10 records as
// at 2,000, in both frame versions. Skipped under the race detector,
// which instruments allocations.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{10, 2000} {
		for _, obs := range [][]fleet.Observation{testObs(n), testMixedObs(n)} {
			frame := EncodeBatch(obs)
			var d Decoder
			var rep quality.Report
			if _, err := d.Decode(frame, &rep); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				got, err := d.Decode(frame, &rep)
				if err != nil || len(got) != len(obs) {
					t.Fatalf("decode: %d records, err %v", len(got), err)
				}
			})
			if allocs != 1 {
				t.Fatalf("%d records, version %d: steady-state decode allocates %.2f times per call, want 1", n, frame[0], allocs)
			}
		}
	}
}

// TestRoundTripV2 pins the mixed-fleet framing: a batch with any SSD
// observation frames as version 2 and round-trips every class, while a
// pure-HDD batch keeps the version-1 framing bit for bit — old readers
// must keep decoding new writers' HDD traffic.
func TestRoundTripV2(t *testing.T) {
	for _, n := range []int{1, 7, 200} {
		obs := testMixedObs(n)
		frame := EncodeBatch(obs)
		if frame[0] != Version2 {
			t.Fatalf("n=%d: mixed batch framed as version %d, want %d", n, frame[0], Version2)
		}
		if len(frame) != EncodedSize(obs) {
			t.Fatalf("n=%d: frame is %d bytes, EncodedSize says %d", n, len(frame), EncodedSize(obs))
		}
		var d Decoder
		var rep quality.Report
		got, err := d.Decode(frame, &rep)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(got) != n || rep.RowsQuarantined != 0 {
			t.Fatalf("n=%d: %d kept, ledger %+v", n, len(got), rep)
		}
		for i := range got {
			if got[i].Class != obs[i].Class || got[i].Serial != obs[i].Serial {
				t.Fatalf("n=%d record %d: got class %v serial %q, want %v %q",
					n, i, got[i].Class, got[i].Serial, obs[i].Class, obs[i].Serial)
			}
			if !nanEqual(got[i].Record.Values, obs[i].Record.Values) {
				t.Fatalf("n=%d record %d: values differ", n, i)
			}
		}
	}

	// An all-HDD batch built through the class-aware encoder must be
	// bit-identical to the version-1 frame: class is a zero-cost upgrade
	// for fleets that never send an SSD.
	hdd := testObs(5)
	frame := EncodeBatch(hdd)
	if frame[0] != Version {
		t.Fatalf("all-HDD batch framed as version %d, want %d", frame[0], Version)
	}
}

// TestV2InvalidClassQuarantine pins that an unknown class byte
// quarantines just its record — the frame still delimits it — while the
// rest of the batch survives with exact accounting.
func TestV2InvalidClassQuarantine(t *testing.T) {
	obs := testMixedObs(3)
	frame := EncodeBatch(obs)
	// Record 1 starts after record 0: recHeaderSize2 + serial + triples.
	present := 0
	for a := range obs[0].Record.Values {
		if !math.IsNaN(obs[0].Record.Values[a]) {
			present++
		}
	}
	off := headerSize + recHeaderSize2 + len(obs[0].Serial) + present*tripleSize
	frame[off+6] = 0xee // record 1's class byte
	refit(frame)
	var d Decoder
	var rep quality.Report
	got, err := d.Decode(frame, &rep)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 || rep.RowsQuarantined != 1 || rep.Count(quality.BadField) != 1 {
		t.Fatalf("kept %d, ledger %+v", len(got), rep)
	}
	if got[0].Serial != obs[0].Serial || got[1].Serial != obs[2].Serial {
		t.Fatalf("kept %q and %q, want %q and %q", got[0].Serial, got[1].Serial, obs[0].Serial, obs[2].Serial)
	}
}

func TestEncodeRejections(t *testing.T) {
	long := strings.Repeat("s", MaxSerialLen+1)
	cases := []struct {
		name string
		obs  fleet.Observation
	}{
		{"empty serial", fleet.Observation{Serial: ""}},
		{"long serial", fleet.Observation{Serial: long}},
		{"hour overflow", fleet.Observation{Serial: "s", Record: smart.Record{Hour: math.MaxInt32 + 1}}},
		{"invalid class", fleet.Observation{Serial: "s", Class: smart.DeviceClass(9)}},
	}
	for _, tc := range cases {
		if _, err := AppendBatch(nil, []fleet.Observation{tc.obs}); err == nil {
			t.Errorf("%s: encode succeeded, want error", tc.name)
		}
	}
}

// corrupt returns a copy of frame with one mutation applied.
func corrupt(frame []byte, mutate func([]byte)) []byte {
	c := append([]byte(nil), frame...)
	mutate(c)
	return c
}

// refit recomputes the CRC trailer so structural mutations are tested on
// their own, not masked by the checksum.
func refit(frame []byte) []byte {
	body := frame[:len(frame)-4]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	frame[len(frame)-4] = byte(sum)
	frame[len(frame)-3] = byte(sum >> 8)
	frame[len(frame)-2] = byte(sum >> 16)
	frame[len(frame)-1] = byte(sum >> 24)
	return frame
}

func TestFrameErrors(t *testing.T) {
	obs := testObs(3)
	frame := EncodeBatch(obs)
	cases := []struct {
		name string
		in   []byte
		kind quality.Kind
	}{
		{"empty", nil, quality.TruncatedInput},
		{"under minimum", frame[:minFrameSize-1], quality.TruncatedInput},
		{"bad version", corrupt(frame, func(b []byte) { b[0] = 9 }), quality.MalformedRow},
		{"flipped payload bit", corrupt(frame, func(b []byte) { b[10] ^= 0x40 }), quality.MalformedRow},
		{"flipped trailer bit", corrupt(frame, func(b []byte) { b[len(b)-1] ^= 1 }), quality.MalformedRow},
		{"torn tail", refit(append([]byte(nil), frame[:len(frame)-20]...)), quality.TruncatedInput},
		{"count beyond body", refit(corrupt(frame, func(b []byte) { b[1], b[2] = 0xff, 0xff })), quality.MalformedRow},
		{"count too low leaves trailing bytes", refit(corrupt(frame, func(b []byte) { b[1] = 1 })), quality.MalformedRow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			var rep quality.Report
			_, err := d.Decode(tc.in, &rep)
			fe, ok := IsFrameError(err)
			if !ok {
				t.Fatalf("err = %v, want *FrameError", err)
			}
			if fe.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v (%v)", fe.Kind, tc.kind, err)
			}
			if rep.RowsRead != 0 || rep.RowsQuarantined != 0 {
				t.Fatalf("frame error touched the ledger: %+v", rep)
			}
		})
	}
}

// TestRecordQuarantine pins the per-record judgments: structurally
// delimitable but defective records are quarantined with exact
// accounting while the rest of the batch survives.
func TestRecordQuarantine(t *testing.T) {
	mkFrame := func(mutate func(b []byte) []byte) []byte {
		// Three single-triple records so offsets are easy to name.
		obs := make([]fleet.Observation, 3)
		for i := range obs {
			var v smart.Values
			for a := range v {
				v[a] = math.NaN()
			}
			v[0] = float64(i)
			obs[i] = fleet.Observation{Serial: "q" + string(rune('0'+i)), Record: smart.Record{Hour: i, Values: v}}
		}
		return refit(mutate(EncodeBatch(obs)))
	}
	// Record i starts at headerSize + i*(recHeaderSize + 2 + tripleSize):
	// each record has a 2-byte serial and one triple.
	recOff := func(i int) int { return headerSize + i*(recHeaderSize+2+tripleSize) }

	cases := []struct {
		name string
		in   []byte
		kind quality.Kind
	}{
		{"attr out of range", mkFrame(func(b []byte) []byte {
			b[recOff(1)+recHeaderSize+2] = byte(smart.NumAttrs) // triple's attr byte
			return b
		}), quality.BadField},
		{"nonzero flags", mkFrame(func(b []byte) []byte {
			b[recOff(1)+recHeaderSize+2+1] = 0x80
			return b
		}), quality.BadField},
		{"infinite value", mkFrame(func(b []byte) []byte {
			bits := math.Float64bits(math.Inf(1))
			off := recOff(1) + recHeaderSize + 2 + 2
			for k := 0; k < 8; k++ {
				b[off+k] = byte(bits >> (8 * k))
			}
			return b
		}), quality.NonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			var rep quality.Report
			obs, err := d.Decode(tc.in, &rep)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(obs) != 2 {
				t.Fatalf("kept %d records, want 2", len(obs))
			}
			if rep.RowsRead != 1 || rep.RowsQuarantined != 1 || rep.Count(tc.kind) == 0 {
				t.Fatalf("ledger = read %d quarantined %d byKind[%v]=%d, want 1/1/>0",
					rep.RowsRead, rep.RowsQuarantined, tc.kind, rep.Count(tc.kind))
			}
			if obs[0].Serial != "q0" || obs[1].Serial != "q2" {
				t.Fatalf("kept %q and %q, want q0 and q2", obs[0].Serial, obs[1].Serial)
			}
		})
	}
}

// TestNaNTripleIsMissing pins that a triple explicitly carrying NaN bits
// decodes as a missing value (the store-side quarantine's judgment call),
// mirroring the JSON format's null.
func TestNaNTripleIsMissing(t *testing.T) {
	var v smart.Values
	for a := range v {
		v[a] = 1
	}
	obs := []fleet.Observation{{Serial: "nan", Record: smart.Record{Hour: 0, Values: v}}}
	frame := EncodeBatch(obs)
	// Rewrite the first triple's value bits to NaN and refit the CRC.
	bits := math.Float64bits(math.NaN())
	off := headerSize + recHeaderSize + 3 + 2
	for k := 0; k < 8; k++ {
		frame[off+k] = byte(bits >> (8 * k))
	}
	refit(frame)
	var d Decoder
	var rep quality.Report
	got, err := d.Decode(frame, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !math.IsNaN(got[0].Record.Values[0]) || got[0].Record.Values[1] != 1 {
		t.Fatalf("got %d records, values %v", len(got), got[0].Record.Values)
	}
	if rep.RowsQuarantined != 0 {
		t.Fatalf("NaN triple was quarantined at the wire layer: %+v", rep)
	}
}
