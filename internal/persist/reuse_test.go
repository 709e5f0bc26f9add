package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/smart"
)

// referenceWALRecord is the WAL encoder before frames were written into
// pooled buffers, kept verbatim as the reference the encoder is held to.
func referenceWALRecord(obs []fleet.Observation) ([]byte, error) {
	payload := make([]byte, 0, 64+len(obs)*(17+8*int(smart.NumAttrs)))
	payload = binary.AppendUvarint(payload, uint64(len(obs)))
	mixed := false
	for _, o := range obs {
		if len(o.Serial) > maxSerialLen {
			return nil, fmt.Errorf("persist: serial %q exceeds %d bytes", o.Serial[:32]+"...", maxSerialLen)
		}
		if !o.Class.Valid() {
			return nil, fmt.Errorf("persist: observation %q has invalid device class %d", o.Serial, o.Class)
		}
		if o.Class != smart.HDD {
			mixed = true
		}
		payload = binary.AppendUvarint(payload, uint64(len(o.Serial)))
		payload = append(payload, o.Serial...)
		payload = binary.AppendVarint(payload, int64(o.Record.Hour))
		for a := 0; a < int(smart.NumAttrs); a++ {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(o.Record.Values[a]))
		}
	}
	if mixed {
		for _, o := range obs {
			payload = append(payload, byte(o.Class))
		}
	}
	if len(payload) > maxWALRecord {
		return nil, fmt.Errorf("persist: batch of %d observations exceeds the %d-byte record cap", len(obs), maxWALRecord)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// referenceShipRequest is the ship request encoder before ship bodies
// were read into pooled buffers, kept verbatim as the reference.
func referenceShipRequest(term uint64, from Position, frames []byte) []byte {
	buf := make([]byte, shipHeaderSize, shipHeaderSize+len(frames))
	copy(buf[:8], shipMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], term)
	binary.LittleEndian.PutUint64(buf[16:24], from.Epoch)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(from.Offset))
	return append(buf, frames...)
}

// reuseBatches are dirtyBatches plus the shapes the encoders treat
// apart: an empty batch, a mixed HDD+SSD batch with its class tail,
// serials of every length up to the cap, and a batch whose frame
// exceeds the 8 KiB chunk target the reference test ships at.
func reuseBatches() [][]fleet.Observation {
	batches := dirtyBatches(12, 8, 37)
	batches = append(batches, dirtyBatches(100, 1, 100)[0], nil, []fleet.Observation{
		{Serial: "SSD-1", Class: smart.SSD, Record: record(3, 0.25)},
		{Serial: "SN0001", Record: record(9, -0.5)},
	})
	var long []fleet.Observation
	for _, n := range []int{1, 127, 128, 300, maxSerialLen} {
		long = append(long, fleet.Observation{Serial: strings.Repeat("s", n), Record: record(-n, 0.5)})
	}
	return append(batches, long)
}

// TestFramesAndShipRequestsMatchReference logs batches through LogBatch
// while a shipper sends them to a follower that records every body: the
// WAL holds exactly the reference encoder's frames, and every ship body
// is the reference encoding of its header and the WAL bytes it carries.
// A small chunk target makes the shipper chunk, and one frame exceeds
// it.
func TestFramesAndShipRequestsMatchReference(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, from, frames, err := DecodeShipRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		json.NewEncoder(w).Encode(ShipAck{Epoch: from.Epoch, Offset: from.Offset + int64(len(frames)), Term: 1})
	}))
	defer ts.Close()

	start := m.Position()
	sh := m.AttachShipper(ShipperConfig{FollowerURL: ts.URL, Term: 1, MaxChunk: 8192, Heartbeat: time.Hour}, start)
	defer m.DetachShipper()
	var want []byte
	var last Position
	for _, b := range reuseBatches() {
		frame, err := referenceWALRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
		if _, last, err = m.LogBatch(b, func() fleet.BatchResult { return fleet.BatchResult{} }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, last); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal[walHeaderSize:], want) {
		t.Fatalf("WAL holds %d frame bytes that differ from the reference encoder's %d", len(wal)-walHeaderSize, len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	next := start
	for i, body := range bodies {
		term, from, frames, err := DecodeShipRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if from != next {
			t.Fatalf("ship body %d starts at %s, want %s", i, from, next)
		}
		ref := referenceShipRequest(term, from, wal[from.Offset:from.Offset+int64(len(frames))])
		if !bytes.Equal(body, ref) {
			t.Fatalf("ship body %d (%d bytes from %s) differs from the reference encoding", i, len(body), from)
		}
		next.Offset += int64(len(frames))
	}
	if next != last || len(bodies) < 2 {
		t.Fatalf("%d ship bodies reach %s, want several reaching %s", len(bodies), next, last)
	}
}

// TestLogBatchSteadyStateAllocs pins LogBatch's frame to a pooled
// buffer: appending a batch allocates nothing, whatever its size.
// Skipped under the race detector.
func TestLogBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batch := dirtyBatches(64, 1, 64)[0]
	apply := func() fleet.BatchResult { return fleet.BatchResult{} }
	if _, _, err := m.LogBatch(batch, apply); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := m.LogBatch(batch, apply); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state LogBatch of %d records allocates %.2f times per call, want 0", len(batch), allocs)
	}
}

// TestFrameIterSteadyStateAllocs pins the follower's decode of a ship
// body to one allocation per WAL frame, the string the frame's serials
// slice, whether a frame holds 10 records or 2,000. Skipped under the
// race detector.
func TestFrameIterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, size := range []int{10, 2000} {
		var frames []byte
		rows, nframes := 0, 0
		for _, b := range dirtyBatches(size, 4, size) {
			var err error
			if frames, err = appendWALRecord(frames, b); err != nil {
				t.Fatal(err)
			}
			rows += len(b)
			nframes++
		}
		body := EncodeShipRequest(1, StartPosition(0), frames)
		var it FrameIter
		decode := func() {
			_, _, payload, err := DecodeShipRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			it.Reset(payload)
			n := 0
			for {
				obs, _, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n += len(obs)
			}
			if n != rows {
				t.Fatalf("decoded %d observations, want %d", n, rows)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(50, decode); allocs != float64(nframes) {
			t.Fatalf("%d-record frames: decoding a ship body of %d frames allocates %.2f times, want one per frame", size, nframes, allocs)
		}
	}
}
