package persist

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disksig/internal/fleet"
)

func TestPositionOrdering(t *testing.T) {
	cases := []struct {
		p, q   Position
		before bool
	}{
		{Position{1, 16}, Position{1, 64}, true},
		{Position{1, 64}, Position{1, 16}, false},
		{Position{1, 16}, Position{1, 16}, false},
		{Position{1, 9999}, Position{2, 16}, true}, // epoch dominates offset
		{Position{2, 16}, Position{1, 9999}, false},
	}
	for _, c := range cases {
		if got := c.p.Before(c.q); got != c.before {
			t.Errorf("%s.Before(%s) = %v, want %v", c.p, c.q, got, c.before)
		}
	}
	if got := StartPosition(3); got != (Position{Epoch: 3, Offset: walHeaderSize}) {
		t.Errorf("StartPosition(3) = %s", got)
	}
}

func TestShipRequestRoundTrip(t *testing.T) {
	frames := []byte{0xde, 0xad, 0xbe, 0xef}
	body := EncodeShipRequest(7, Position{Epoch: 3, Offset: 99}, frames)
	term, from, got, err := DecodeShipRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if term != 7 || from != (Position{Epoch: 3, Offset: 99}) || !reflect.DeepEqual(got, frames) {
		t.Fatalf("round trip = term %d, from %s, frames %x", term, from, got)
	}

	// A heartbeat carries no frames at all.
	_, _, hb, err := DecodeShipRequest(EncodeShipRequest(1, StartPosition(0), nil))
	if err != nil || len(hb) != 0 {
		t.Fatalf("heartbeat round trip: frames %x, err %v", hb, err)
	}

	if _, _, _, err := DecodeShipRequest(body[:10]); err == nil {
		t.Fatal("truncated ship request decoded")
	}
	bad := append([]byte(nil), body...)
	bad[0] ^= 0xff
	if _, _, _, err := DecodeShipRequest(bad); err == nil {
		t.Fatal("bad magic decoded")
	}
	// An offset inside the WAL header can never be a frame boundary.
	if _, _, _, err := DecodeShipRequest(EncodeShipRequest(1, Position{Epoch: 1, Offset: 3}, nil)); err == nil {
		t.Fatal("header-interior offset decoded")
	}
}

func TestBootstrapImageRoundTripAtDifferentLayout(t *testing.T) {
	store := testStore(t, fleet.Config{Shards: 2})
	for _, b := range dirtyBatches(12, 5, 40) {
		store.IngestBatch(b)
	}
	img, err := EncodeBootstrap(store.ExportState(), 5, Position{Epoch: 2, Offset: 123})
	if err != nil {
		t.Fatal(err)
	}
	st, term, pos, err := DecodeBootstrap(img)
	if err != nil {
		t.Fatal(err)
	}
	if term != 5 || pos != (Position{Epoch: 2, Offset: 123}) {
		t.Fatalf("decoded term %d pos %s, want 5 and 2:123", term, pos)
	}
	// The image restores at a different shard count bit-identically: the
	// export format is layout-independent.
	restored, err := fleet.Restore(st, fleet.Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != 16 {
		t.Fatalf("restored at %d shards, want 16", restored.Shards())
	}
	if got, want := canonical(restored.ExportState()), canonical(store.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatal("bootstrapped state differs from the source state")
	}

	corrupt := append([]byte(nil), img...)
	corrupt[len(corrupt)-6] ^= 0xff
	if _, _, _, err := DecodeBootstrap(corrupt); err == nil {
		t.Fatal("corrupt bootstrap image decoded")
	}
	if _, _, _, err := DecodeBootstrap(img[:12]); err == nil {
		t.Fatal("truncated bootstrap image decoded")
	}
}

func TestReadWALFramesChunksOnFrameBoundaries(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	start := m.Position()
	rows := 0
	for _, b := range dirtyBatches(8, 4, 25) {
		b := b
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
		rows += len(b)
	}
	end := m.Position()

	full, fullEnd, err := m.ReadWALFrames(start.Epoch, start.Offset, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if fullEnd != end.Offset {
		t.Fatalf("full read ends at %d, want %d", fullEnd, end.Offset)
	}

	// Chunked reads must cover exactly the same bytes, never splitting a
	// frame, and always make progress.
	var joined []byte
	for off := start.Offset; off < end.Offset; {
		chunk, next, err := m.ReadWALFrames(start.Epoch, off, 64)
		if err != nil {
			t.Fatal(err)
		}
		if next <= off {
			t.Fatalf("chunked read stalled at offset %d", off)
		}
		joined = append(joined, chunk...)
		off = next
	}
	if !reflect.DeepEqual(joined, full) {
		t.Fatalf("chunked reads reassemble %d bytes, full read has %d", len(joined), len(full))
	}

	// A first frame larger than maxBytes ships whole anyway.
	one, next, err := m.ReadWALFrames(start.Epoch, start.Offset, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) <= 1 || next <= start.Offset {
		t.Fatalf("oversized-frame read returned %d bytes ending at %d", len(one), next)
	}

	// Every frame decodes and the decoded rows cover the whole workload.
	var it FrameIter
	it.Reset(full)
	decoded := 0
	for {
		obs, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		decoded += len(obs)
	}
	if decoded != rows {
		t.Fatalf("frames decode to %d rows, logged %d", decoded, rows)
	}

	if _, _, err := m.ReadWALFrames(start.Epoch+7, start.Offset, 0); !errors.Is(err, errEpochGone) {
		t.Fatalf("stale epoch read err = %v, want errEpochGone", err)
	}
	if _, _, err := m.ReadWALFrames(start.Epoch, end.Offset+999, 0); err == nil {
		t.Fatal("read past the durable end succeeded")
	}
}

// fakeFollower is a minimal in-test follower for the ship protocol: it
// fences lower terms, insists on position continuity, dedups frames at
// or below its high-water mark, and acks its position — without any of
// the server package (importing it here would be a cycle).
type fakeFollower struct {
	mu   sync.Mutex
	term uint64
	exp  Position
	rows int
	hb   int
}

func (f *fakeFollower) serve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	term, from, frames, err := DecodeShipRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ack := func(status int) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]any{"term": f.term, "epoch": f.exp.Epoch, "offset": f.exp.Offset})
	}
	if term < f.term {
		ack(http.StatusForbidden)
		return
	}
	switch {
	case from.Epoch > f.exp.Epoch:
		if from != StartPosition(from.Epoch) {
			ack(http.StatusConflict)
			return
		}
		f.exp = from
	case from.Epoch < f.exp.Epoch:
		ack(http.StatusOK)
		return
	case from.Offset > f.exp.Offset:
		ack(http.StatusConflict)
		return
	}
	if len(frames) == 0 {
		f.hb++
	}
	pos := from.Offset
	var it FrameIter
	it.Reset(frames)
	for {
		obs, size, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			ack(http.StatusConflict)
			return
		}
		end := pos + size
		if end <= f.exp.Offset {
			pos = end
			continue
		}
		f.rows += len(obs)
		pos = end
		f.exp.Offset = end
	}
	ack(http.StatusOK)
}

func (f *fakeFollower) snapshot() (rows, hb int, exp Position) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rows, f.hb, f.exp
}

func TestShipperReplicatesEverythingAndAcks(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	f := &fakeFollower{term: 1, exp: m.Position()}
	ts := httptest.NewServer(http.HandlerFunc(f.serve))
	defer ts.Close()

	sh := m.AttachShipper(ShipperConfig{FollowerURL: ts.URL, Term: 1, Heartbeat: 10 * time.Millisecond}, m.Position())
	defer m.DetachShipper()
	want := 0
	var last Position
	for _, b := range dirtyBatches(10, 6, 50) {
		b := b
		_, pos, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) })
		if err != nil {
			t.Fatal(err)
		}
		want += len(b)
		last = pos
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, last); err != nil {
		t.Fatal(err)
	}
	rows, _, exp := f.snapshot()
	if rows != want {
		t.Fatalf("follower applied %d rows, primary logged %d", rows, want)
	}
	if exp != last {
		t.Fatalf("follower high-water mark %s, want %s", exp, last)
	}
	st := sh.Stats()
	if st.FramesShipped == 0 || st.BytesShipped == 0 || st.Acked != last {
		t.Fatalf("shipper stats after full ack: %+v", st)
	}
}

// A shipper attached ahead of the follower's position gets a 409 with
// the follower's actual high-water mark and resyncs from there — the
// heartbeat is what exposes the gap when nothing is pending.
func TestShipperHeartbeatExposesGapAndConflictResyncs(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	start := m.Position()
	want := 0
	for _, b := range dirtyBatches(6, 3, 30) {
		b := b
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
		want += len(b)
	}
	f := &fakeFollower{term: 1, exp: start}
	ts := httptest.NewServer(http.HandlerFunc(f.serve))
	defer ts.Close()

	sh := m.AttachShipper(ShipperConfig{FollowerURL: ts.URL, Term: 1, Heartbeat: 5 * time.Millisecond}, m.Position())
	defer m.DetachShipper()
	// The shipper believes it is caught up (it attached at the end), so
	// only the heartbeat can surface the follower's 409. Poll the
	// follower until the resynced frames land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rows, _, _ := f.snapshot()
		if rows == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower applied %d rows after resync, want %d", rows, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sh.Stats(); st.Conflicts == 0 {
		t.Fatalf("resync recorded no conflicts: %+v", st)
	}
}

func TestShipperFencedByHigherTerm(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	f := &fakeFollower{term: 9, exp: m.Position()}
	ts := httptest.NewServer(http.HandlerFunc(f.serve))
	defer ts.Close()

	var fencedBy atomic.Uint64
	sh := m.AttachShipper(ShipperConfig{
		FollowerURL: ts.URL,
		Term:        2,
		Heartbeat:   5 * time.Millisecond,
		OnFenced:    func(peer uint64) { fencedBy.Store(peer) },
	}, m.Position())
	defer m.DetachShipper()
	obs := dirtyBatches(2, 1, 10)[0]
	_, pos, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, pos); !errors.Is(err, ErrFenced) {
		t.Fatalf("WaitAcked err = %v, want ErrFenced", err)
	}
	if fenced, peer := sh.Fenced(); !fenced || peer != 9 {
		t.Fatalf("Fenced() = %v, %d; want true, 9", fenced, peer)
	}
	if fencedBy.Load() != 9 {
		t.Fatalf("OnFenced got term %d, want 9", fencedBy.Load())
	}
	if rows, _, _ := f.snapshot(); rows != 0 {
		t.Fatalf("fenced shipper still applied %d rows", rows)
	}
}

// Snapshot must drain the shipper before resetting the WAL (no shipped
// frame may be destroyed unacked) and advance it to the new epoch after.
func TestSnapshotDrainsShipperThenAdvancesEpoch(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	f := &fakeFollower{term: 1, exp: m.Position()}
	ts := httptest.NewServer(http.HandlerFunc(f.serve))
	defer ts.Close()
	sh := m.AttachShipper(ShipperConfig{FollowerURL: ts.URL, Term: 1, Heartbeat: 10 * time.Millisecond}, m.Position())
	defer m.DetachShipper()

	before := 0
	for _, b := range dirtyBatches(6, 4, 40) {
		b := b
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
		before += len(b)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	// The drain barrier ran inside Snapshot: by the time it returns the
	// follower holds every pre-snapshot row, the shipper survives, and
	// both stand at the start of the new epoch.
	rows, _, _ := f.snapshot()
	if rows != before {
		t.Fatalf("follower has %d rows right after snapshot, want %d (drain barrier broken)", rows, before)
	}
	if m.AttachedShipper() != sh {
		t.Fatal("healthy shipper detached by snapshot")
	}
	newStart := StartPosition(m.Position().Epoch)
	if got := sh.Acked(); got != newStart {
		t.Fatalf("shipper acked %s after epoch advance, want %s", got, newStart)
	}
	if st := m.Stats(); st.FollowerLost != 0 {
		t.Fatalf("FollowerLost = %d after clean drain, want 0", st.FollowerLost)
	}

	// The stream keeps flowing in the new epoch.
	obs := dirtyBatches(3, 1, 20)[0]
	_, pos, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, pos); err != nil {
		t.Fatal(err)
	}
	rows, _, exp := f.snapshot()
	if rows != before+len(obs) {
		t.Fatalf("follower has %d rows after epoch hop, want %d", rows, before+len(obs))
	}
	if exp.Epoch != pos.Epoch {
		t.Fatalf("follower epoch %d, want %d", exp.Epoch, pos.Epoch)
	}
}

// A follower that cannot confirm the drain loses its stream — Snapshot
// detaches the shipper and proceeds rather than blocking on a dead peer
// or silently destroying unshipped frames.
func TestSnapshotDetachesUndrainableShipper(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "follower on fire", http.StatusInternalServerError)
	}))
	defer ts.Close()
	sh := m.AttachShipper(ShipperConfig{
		FollowerURL:  ts.URL,
		Term:         1,
		RetryWait:    2 * time.Millisecond,
		DrainTimeout: 50 * time.Millisecond,
	}, m.Position())
	obs := dirtyBatches(2, 1, 10)[0]
	if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatalf("snapshot must survive a dead follower, got %v", err)
	}
	if m.AttachedShipper() != nil {
		t.Fatal("undrainable shipper still attached after snapshot")
	}
	if st := m.Stats(); st.FollowerLost != 1 {
		t.Fatalf("FollowerLost = %d, want 1", st.FollowerLost)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, m.Position()); !errors.Is(err, ErrShipperStopped) {
		t.Fatalf("WaitAcked on detached shipper = %v, want ErrShipperStopped", err)
	}
}

// The state directory itself is fsynced when the WAL is created and when
// a snapshot renames into place — otherwise a power cut can forget the
// files' directory entries even though their contents were synced.
func TestStateDirectoryFsyncPinned(t *testing.T) {
	base := dirSyncs.Load()
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	afterOpen := dirSyncs.Load()
	if afterOpen == base {
		t.Fatal("creating the WAL did not fsync the state directory")
	}
	store := testStore(t, fleet.Config{Shards: 2})
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	if dirSyncs.Load() == afterOpen {
		t.Fatal("committing a snapshot did not fsync the state directory")
	}
}
