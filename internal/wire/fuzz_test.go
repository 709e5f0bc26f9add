package wire

import (
	"bytes"
	"reflect"
	"testing"

	"disksig/internal/quality"
)

// FuzzDecodeBatch hammers the decoder with arbitrary bytes. The
// contract under fuzzing:
//
//   - Decode never panics, whatever the input.
//   - A frame-level error leaves the quarantine ledger untouched and is
//     classified as TruncatedInput or MalformedRow.
//   - A successful decode accounts exactly: kept + quarantined equals
//     the frame's declared record count, and the ledger reads precisely
//     the quarantined rows (kept rows are the store's to count).
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(testObs(1)))
	f.Add(EncodeBatch(testObs(9)))
	// Version-2 frames: a mixed batch, and a mixed batch with its first
	// class byte rewritten to an unknown class (a per-record quarantine,
	// not a frame error — the CRC is refitted so the judgment is reached).
	f.Add(EncodeBatch(testMixedObs(9)))
	f.Add(refit(corrupt(EncodeBatch(testMixedObs(3)), func(b []byte) { b[headerSize+6] = 0x7f })))
	// A frame with a quarantined middle record (out-of-range attribute).
	seedBad := EncodeBatch(testObs(3))
	seedBad[headerSize+recHeaderSize] ^= 0xff
	f.Add(seedBad)
	// Structural corruption seeds: version, count, trailer. Version 2 is
	// valid now, so the bad-version seed uses the first unassigned one.
	f.Add(corrupt(EncodeBatch(testObs(2)), func(b []byte) { b[0] = 3 }))
	f.Add(corrupt(EncodeBatch(testObs(2)), func(b []byte) { b[1] = 200 }))
	f.Add(corrupt(EncodeBatch(testObs(2)), func(b []byte) { b[len(b)-2] ^= 1 }))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		var rep quality.Report
		obs, err := d.Decode(data, &rep)
		if err != nil {
			if fe, ok := IsFrameError(err); !ok {
				t.Fatalf("non-frame error from decode: %v", err)
			} else if fe.Kind != quality.TruncatedInput && fe.Kind != quality.MalformedRow {
				t.Fatalf("frame error with kind %v", fe.Kind)
			}
			if rep.RowsRead != 0 || rep.RowsQuarantined != 0 || !rep.Clean() {
				t.Fatalf("frame error touched the ledger: %+v", rep)
			}
			return
		}
		count := int(u32(data[1:]))
		if len(obs)+rep.RowsQuarantined != count {
			t.Fatalf("kept %d + quarantined %d != declared count %d",
				len(obs), rep.RowsQuarantined, count)
		}
		if rep.RowsRead != rep.RowsQuarantined {
			t.Fatalf("ledger reads %d rows but quarantined %d; the wire layer accounts only quarantined rows",
				rep.RowsRead, rep.RowsQuarantined)
		}
		for i := range obs {
			if obs[i].Serial == "" {
				t.Fatalf("record %d kept with an empty serial", i)
			}
		}
	})
}

// FuzzSplitReuse holds the splits that reuse their buffers to the fresh
// ones. Two arbitrary bodies, split in turn into the same buffers (the
// first into three parts, the second into two, then the first again),
// must each give exactly what a fresh SplitFrame or SplitJSON of that
// body gives, in both formats: the same parts byte for byte, so the
// same record counts and CRCs, the same number of records assigned and
// the same ledger, or the same error.
func FuzzSplitReuse(f *testing.F) {
	frames := [][]byte{EncodeBatch(testObs(9)), EncodeBatch(testMixedObs(40)), EncodeBatch(nil)}
	bodies := [][]byte{jsonFixture(testObs(9)), jsonFixture(testMixedObs(40)), []byte(jsonBody(`{"hour":1}`, jsonRec(`"Aé"`, vals12)))}
	f.Add(frames[0], frames[1])
	f.Add(frames[1], frames[2])
	f.Add(bodies[0], bodies[1])
	f.Add(bodies[1], bodies[2])
	f.Add(frames[1], bodies[1])
	f.Add(corrupt(frames[1], func(b []byte) { b[len(b)-2] ^= 1 }), frames[0])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, format := range []struct {
			name  string
			fresh func([]byte, int, func([]byte) int, *quality.Report) ([][]byte, error)
			into  splitFunc
		}{
			{"frame", SplitFrame, SplitFrameInto},
			{"json", SplitJSON, SplitJSONInto},
		} {
			var dst [][]byte
			for i, step := range []struct {
				body  []byte
				parts int
			}{{a, 3}, {b, 2}, {a, 3}} {
				var wantRep, gotRep quality.Report
				wantN, gotN := 0, 0
				owner := lastByteOwner(step.parts)
				want, wantErr := format.fresh(step.body, step.parts, func(s []byte) int { wantN++; return owner(s) }, &wantRep)
				got, gotErr := format.into(dst, step.body, step.parts, func(s []byte) int { gotN++; return owner(s) }, &gotRep)
				if gotErr == nil {
					dst = got
				}
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s split %d: fresh error %v, reused %v", format.name, i, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if len(got) != len(want) || wantN != gotN || !reflect.DeepEqual(wantRep, gotRep) {
					t.Fatalf("%s split %d: %d parts from %d records, ledger %+v; fresh %d parts from %d, ledger %+v",
						format.name, i, len(got), gotN, gotRep, len(want), wantN, wantRep)
				}
				for p := range want {
					if !bytes.Equal(got[p], want[p]) {
						t.Fatalf("%s split %d: part %d is %x, fresh %x", format.name, i, p, got[p], want[p])
					}
				}
			}
		}
	})
}
