package route

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/wire"
)

// partNode is a stub ingest node that checks every part it reads: each
// must decode, CRC and all, and carry only serials the map gives this
// node, each at the hour of its batch. When early is set it answers the
// next part 413 before reading it, as a node whose body cap the part
// exceeds may, and holds that request, unread, until release lets it go.
type partNode struct {
	idx     int
	m       *Map
	early   atomic.Bool
	release chan struct{}
	mu      sync.Mutex
	recs    int
	bad     []string
}

func (n *partNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/ingest" {
		wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "role": "primary"})
		return
	}
	if n.early.CompareAndSwap(true, false) {
		// Full duplex: net/http would otherwise read the part, or close
		// the connection, before sending the answer.
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			n.note(fmt.Sprintf("full duplex: %v", err))
		}
		const msg = `{"error":"part too large"}`
		w.Header().Set("Content-Length", strconv.Itoa(len(msg)))
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		io.WriteString(w, msg)
		rc.Flush()
		<-n.release
		io.Copy(io.Discard, r.Body)
		return
	}
	kept := n.check(r.Body)
	wire.WriteJSON(w, http.StatusOK, &wire.Ack{Ingested: kept, Kept: kept, Alerts: []wire.Alert{}})
}

func (n *partNode) note(bad string) {
	n.mu.Lock()
	n.bad = append(n.bad, bad)
	n.mu.Unlock()
}

// check reads one part, notes what is wrong with it, and counts and
// returns its records.
func (n *partNode) check(body io.Reader) int {
	b, err := io.ReadAll(body)
	var d wire.Decoder
	var rep quality.Report
	obs, derr := d.Decode(b, &rep)
	switch {
	case err != nil || derr != nil:
		n.note(fmt.Sprintf("read %v, decode %v", err, derr))
		return 0
	case len(obs) == 0 || rep.RowsQuarantined != 0:
		n.note(fmt.Sprintf("%d records, %d quarantined", len(obs), rep.RowsQuarantined))
	}
	for _, o := range obs {
		if owner := n.m.OwnerIndex([]byte(o.Serial)); owner != n.idx || o.Record.Hour != obs[0].Record.Hour {
			n.note(fmt.Sprintf("%s at hour %d (part hour %d) owned by node %d", o.Serial, o.Record.Hour, obs[0].Record.Hour, owner))
			break
		}
	}
	n.mu.Lock()
	n.recs += len(obs)
	n.mu.Unlock()
	return len(obs)
}

// TestRouterPartOutlivesEarlyAnswer pins the close rule of the router's
// pooled parts. The first node answers a part 413 before reading it, and
// the router's connections have small send buffers, so the router
// relays the 413 while its transport is still sending that part. The
// next batch goes through the router before the node lets the part go,
// so if the part's buffers went back to the pool when the handler
// returned, that batch's split would refill them under the transport:
// a reported race under -race. Then more batches, sent by four clients
// at once, must reach both nodes intact.
func TestRouterPartOutlivesEarlyAnswer(t *testing.T) {
	nodes := make([]*partNode, 2)
	mapNodes := make([]Node, len(nodes))
	for i := range nodes {
		nodes[i] = &partNode{idx: i, release: make(chan struct{})}
		ts := httptest.NewServer(nodes[i])
		t.Cleanup(ts.Close)
		mapNodes[i] = Node{ID: fmt.Sprintf("node-%d", i), URL: ts.URL}
	}
	m, err := NewMap(1, mapNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.m = m
	}
	// No probe runs after NewRouter returns, so the transport can be
	// swapped before the router serves.
	rt, err := NewRouter(Config{Map: m, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = c.(*net.TCPConn).SetWriteBuffer(4096)
		}
		return c, err
	}}
	t.Cleanup(tr.CloseIdleConnections)
	rt.client.Transport = tr
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	const records, rounds, later = 16000, 4, 12
	post := func(hour int) (int, error) {
		obs := make([]fleet.Observation, records)
		for i := range obs {
			obs[i] = testObs(fmt.Sprintf("part-%05d", i), hour, 0.5)
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", wire.ContentType, bytes.NewReader(wire.EncodeBatch(obs)))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	hour := 0
	for round := 0; round < rounds; round++ {
		nodes[0].early.Store(true)
		if code, err := post(hour); err != nil || code != http.StatusRequestEntityTooLarge {
			t.Fatalf("round %d: early batch status %d, err %v; want the node's 413", round, code, err)
		}
		if code, err := post(hour + 1); err != nil || code != http.StatusOK {
			t.Fatalf("round %d: batch after the 413: status %d, err %v", round, code, err)
		}
		nodes[0].release <- struct{}{}
		hour += 2
	}
	var wg sync.WaitGroup
	hours := make(chan int)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range hours {
				if code, err := post(h); err != nil || code != http.StatusOK {
					t.Errorf("batch at hour %d: status %d, err %v", h, code, err)
				}
			}
		}()
	}
	for h := hour; h < hour+later; h++ {
		hours <- h
	}
	close(hours)
	wg.Wait()
	total := 0
	for i, n := range nodes {
		n.mu.Lock()
		for _, b := range n.bad {
			t.Errorf("node %d: %s", i, b)
		}
		total += n.recs
		n.mu.Unlock()
	}
	if want := (rounds + later) * records; total != want {
		t.Fatalf("nodes read %d records, want %d", total, want)
	}
}
