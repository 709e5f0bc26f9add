package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/route"
	"disksig/internal/server"
)

// RouterHarness serves a cluster router on a loopback port, the
// routing-tier sibling of Harness.
type RouterHarness struct {
	Router *route.Router
	URL    string

	srv   *http.Server
	serve chan error
}

// StartRouterHarness builds a router from rcfg and serves it on a
// loopback port.
func StartRouterHarness(rcfg route.Config) (*RouterHarness, error) {
	rt, err := route.NewRouter(rcfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("loadgen: router listen: %w", err)
	}
	h := &RouterHarness{
		Router: rt,
		URL:    "http://" + l.Addr().String(),
		srv:    &http.Server{Handler: rt.Handler()},
		serve:  make(chan error, 1),
	}
	go func() { h.serve <- h.srv.Serve(l) }()
	return h, nil
}

// Stop drains in-flight requests and shuts the router down.
func (h *RouterHarness) Stop(ctx context.Context) error {
	err := h.srv.Shutdown(ctx)
	h.Router.Close()
	select {
	case <-h.serve:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// RunRebalance is the cluster-routing chaos schedule: three nodes (at
// three different shard counts) behind a router absorb the workload,
// then a fourth node joins and the router live-migrates its share of
// the keyspace mid-stream, then the first node drains out the same way.
// Both handoffs run concurrently with ingest — filler traffic keeps
// flowing until each migration's epoch flip lands, so the copy gate and
// dual-write window are genuinely exercised — while a poller reads
// known serials through the router and must never see a failure. The
// scenario passes only if the merged post-drain cluster state matches
// an in-process shadow record-for-record (MergeStates proves the nodes
// partition the fleet: a serial on two nodes is a split-brain failure),
// the alert multiset matches, the drained node is empty, and the map
// epoch ends at 3 with the router idle.
func RunRebalance(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "rebalance", dep, cfg, func(r *run) error {
		wl, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		// Four candidate nodes at four different shard counts: the handoff
		// plane is layout-independent, and the scenario proves it.
		ids := []string{"node-a", "node-b", "node-c", "node-d"}
		var nodes []*Harness
		startNode := func() error {
			store, err := r.store(len(nodes) + 1)
			if err != nil {
				return err
			}
			h, err := r.serve(store, server.Config{MaxInFlight: 256})
			if err != nil {
				return err
			}
			nodes = append(nodes, h)
			return nil
		}
		for i := 0; i < 3; i++ {
			if err := startNode(); err != nil {
				return err
			}
		}
		mapNodes := func(idxs ...int) []route.Node {
			out := make([]route.Node, 0, len(idxs))
			for _, i := range idxs {
				out = append(out, route.Node{ID: ids[i], URL: nodes[i].URL})
			}
			return out
		}
		m1, err := route.NewMap(1, mapNodes(0, 1, 2))
		if err != nil {
			return err
		}
		rh, err := StartRouterHarness(route.Config{
			Map:        m1,
			ProbeEvery: 50 * time.Millisecond,
			GateWait:   30 * time.Second,
			// The dwell needs at least 20 dual-written records before the
			// epoch flips; the filler loop below guarantees they arrive.
			DualWriteMin: 20,
			DualWriteMax: 2 * time.Second,
			Log:          dep.Log,
		})
		if err != nil {
			return err
		}
		r.atExit(func() { shutdown(rh.Stop) })
		r.drv.SetBaseURL(rh.URL)
		// Five chunks: steady cluster baseline, the join handoff, post-join
		// steady state, the drain handoff, and post-drain steady state.
		chunks := ChunkQueues(r.split(wl), 5)

		mergeNodes := func(hs ...*Harness) (*fleet.State, error) {
			states := make([]*fleet.State, 0, len(hs))
			for _, h := range hs {
				states = append(states, CanonicalState(h.Store))
			}
			return MergeStates(states...)
		}
		checkMerged := func(hs ...*Harness) error {
			m, err := mergeNodes(hs...)
			if err != nil {
				return err
			}
			return CompareStates("shadow", "cluster", r.shadow.State(), m)
		}

		if _, err := r.phase("cluster-steady", chunks[0]); err != nil {
			return err
		}
		// Before any migration: the routed cluster must already partition
		// the fleet and mirror the shadow exactly.
		r.rep.addCheck("cluster-mirrors-shadow", checkMerged(nodes...))

		// Availability poller: serials confirmed ingested are read through
		// the router for the rest of the run — including both handoffs — and
		// every read must answer 200. Reads route to the current owner in
		// every stage, so a single failure means a request was answered from
		// the wrong side of a cutover.
		poll := &readPoller{url: rh.URL, client: &http.Client{Timeout: 10 * time.Second}}
		for _, d := range wl.Drives {
			if poll.read(d.Serial) == nil {
				poll.serials = append(poll.serials, d.Serial)
			}
			if len(poll.serials) >= 16 {
				break
			}
		}
		poll.start()
		r.atExit(func() { poll.stop() })

		// runMigration kicks off the handoff over HTTP and drives traffic at
		// the router until it completes: first the scheduled chunk, then —
		// if the migration is still running — filler workloads with fresh
		// serials (also applied to the shadow, so every comparison still
		// holds). The filler is what guarantees the handoff overlaps live
		// ingest instead of racing an idle router, and it feeds the
		// dual-write dwell its minimum record count.
		runMigration := func(tag string, m *route.Map, chunk [][]*Batch) (*route.RebalanceStats, error) {
			done := make(chan struct{})
			var stats *route.RebalanceStats
			var rbErr error
			go func() {
				defer close(done)
				stats, rbErr = rebalanceHTTP(ctx, rh.URL, m)
			}()
			if _, err := r.phase(tag, chunk); err != nil {
				<-done
				return nil, err
			}
			for i := 0; ; i++ {
				fq := wl.WithSuffix(fmt.Sprintf("-%s-f%d", tag, i)).Split(r.clients)
				for ci, fc := range ChunkQueues(fq, 4) {
					select {
					case <-done:
						return stats, rbErr
					default:
					}
					if _, err := r.phase(fmt.Sprintf("%s-filler%d.%d", tag, i, ci), fc); err != nil {
						<-done
						return nil, err
					}
				}
			}
		}

		// Join: node-d comes up empty, the map advances to epoch 2 with four
		// owners, and roughly a quarter of the keyspace streams over live.
		if err := startNode(); err != nil {
			return fail("join-node-start", err)
		}
		m2, err := route.NewMap(2, mapNodes(0, 1, 2, 3))
		if err != nil {
			return fail("join-map", err)
		}
		joinStats, err := runMigration("join-handoff", m2, chunks[1])
		if err != nil {
			return fail("join-handoff", err)
		}
		r.rep.addCheck("join-handoff", nil)
		var joinMoveErr error
		if joinStats.Moved == 0 {
			joinMoveErr = fmt.Errorf("join moved no serials — the handoff was a no-op")
		}
		r.rep.addCheck("join-moved-serials", joinMoveErr)
		if _, err := r.phase("post-join", chunks[2]); err != nil {
			return err
		}
		// Zero acked-record loss through the join: the four nodes must
		// partition the fleet and still mirror the shadow exactly.
		r.rep.addCheck("post-join-mirrors-shadow", checkMerged(nodes...))

		// Drain: node-a leaves the map at epoch 3; everything it owns must
		// stream off before the flip, leaving it empty.
		m3, err := route.NewMap(3, mapNodes(1, 2, 3))
		if err != nil {
			return fail("drain-map", err)
		}
		drainStats, err := runMigration("drain-handoff", m3, chunks[3])
		if err != nil {
			return fail("drain-handoff", err)
		}
		r.rep.addCheck("drain-handoff", nil)
		var drainMoveErr error
		if drainStats.Moved == 0 {
			drainMoveErr = fmt.Errorf("drain moved no serials — node-a was not migrated")
		}
		r.rep.addCheck("drain-moved-serials", drainMoveErr)
		if _, err := r.phase("post-drain", chunks[4]); err != nil {
			return err
		}

		// The drained node must hold nothing: its serials moved, and the
		// post-flip retire pass dropped every remnant.
		var drainedErr error
		if st := CanonicalState(nodes[0].Store); len(st.Drives) != 0 {
			drainedErr = fmt.Errorf("drained node-a still holds %d drives", len(st.Drives))
		}
		r.rep.addCheck("drained-node-empty", drainedErr)

		// The record-for-record verdict: the three surviving nodes merge
		// into exactly the shadow's fleet.
		merged, err := mergeNodes(nodes[1:]...)
		if err != nil {
			return fail("merged-state-matches-shadow", err)
		}
		r.match("merged-state-matches-shadow", merged)

		// The cutover must have landed: epoch 3, router idle, no migration
		// state left behind.
		var statusDoc struct {
			Epoch uint64 `json:"epoch"`
			Stage string `json:"stage"`
		}
		epochErr := fetchJSON(rh.URL+"/v1/cluster/status", &statusDoc)
		if epochErr == nil && (statusDoc.Epoch != 3 || statusDoc.Stage != "idle") {
			epochErr = fmt.Errorf("cluster status epoch %d stage %q, want epoch 3 stage idle", statusDoc.Epoch, statusDoc.Stage)
		}
		r.rep.addCheck("epoch-cutover", epochErr)

		probes, failures, firstFail := poll.stop()
		var availErr error
		switch {
		case probes == 0:
			availErr = fmt.Errorf("availability poller issued no reads")
		case failures > 0:
			availErr = fmt.Errorf("%d of %d reads failed during the handoffs (first: %s)", failures, probes, firstFail)
		}
		r.rep.addCheck("no-read-unavailability", availErr)

		rr := &RebalanceReport{
			JoinMs:          joinStats.DurationMs,
			JoinMoved:       joinStats.Moved,
			JoinTransfers:   joinStats.Transfers,
			JoinDualWrites:  joinStats.DualWrites,
			DrainMs:         drainStats.DurationMs,
			DrainMoved:      drainStats.Moved,
			DrainTransfers:  drainStats.Transfers,
			DrainDualWrites: drainStats.DualWrites,
			ReadProbes:      probes,
			ReadFailures:    failures,
		}
		var metricsDoc struct {
			Router struct {
				GatedRequests int64 `json:"gated_requests"`
			} `json:"router"`
		}
		if err := fetchJSON(rh.URL+"/metrics", &metricsDoc); err == nil {
			rr.GatedRequests = metricsDoc.Router.GatedRequests
		}
		r.rep.Rebalance = rr

		// Proxy-overhead measurement on fresh stores: the same workload
		// direct to one node vs through a single-node router, per wire
		// format. Informational (no pass/fail — CI replays under -race on
		// shared runners); the committed BENCH_loadgen.json carries the
		// real margin.
		measure := func(f Format, viaRouter bool) (float64, error) {
			h, err := r.serve(nil, server.Config{MaxInFlight: 256})
			if err != nil {
				return 0, err
			}
			defer shutdown(h.Stop)
			base, leg := h.URL, "direct"
			if viaRouter {
				bm, err := route.NewMap(1, []route.Node{{ID: "bench", URL: h.URL}})
				if err != nil {
					return 0, err
				}
				brh, err := StartRouterHarness(route.Config{Map: bm, ProbeEvery: 50 * time.Millisecond, Log: dep.Log})
				if err != nil {
					return 0, err
				}
				defer shutdown(brh.Stop)
				base, leg = brh.URL, "routed"
			}
			bdrv := &Driver{BaseURL: base, Log: dep.Log}
			var records int
			var seconds float64
			for pass := 0; pass < 2; pass++ {
				bwl := wl.WithFormat(f).WithSuffix(fmt.Sprintf("-b-%s-%s-%d", leg, f, pass))
				stats, err := r.send(bdrv, fmt.Sprintf("bench-%s-%s-pass%d", leg, f, pass), bwl.Split(r.clients))
				if err != nil {
					return 0, err
				}
				records += stats.RecordsSent
				seconds += stats.Duration / 1000
			}
			if seconds <= 0 {
				return 0, fmt.Errorf("bench measured no elapsed time")
			}
			return float64(records) / seconds, nil
		}
		var benchErr error
		if rr.DirectJSONRate, err = measure(FormatJSON, false); err != nil {
			benchErr = err
		} else if rr.RoutedJSONRate, err = measure(FormatJSON, true); err != nil {
			benchErr = err
		} else if rr.DirectBinaryRate, err = measure(FormatBinary, false); err != nil {
			benchErr = err
		} else if rr.RoutedBinaryRate, err = measure(FormatBinary, true); err != nil {
			benchErr = err
		}
		r.rep.addCheck("router-overhead-measured", benchErr)
		return nil
	})
}

// rebalanceHTTP asks the router at base to live-migrate to m and waits
// for the migration's stats.
func rebalanceHTTP(ctx context.Context, base string, m *route.Map) (*route.RebalanceStats, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/cluster/rebalance", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{Timeout: 5 * time.Minute}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rebalance to epoch %d: status %d: %s", m.Epoch, resp.StatusCode, bytes.TrimSpace(data))
	}
	var stats route.RebalanceStats
	if err := json.Unmarshal(data, &stats); err != nil {
		return nil, fmt.Errorf("decoding rebalance stats: %w", err)
	}
	return &stats, nil
}

// readPoller reads a set of serials through the router in a loop until
// stopped, counting reads and failures: the rebalance scenario's
// availability probe.
type readPoller struct {
	url     string
	client  *http.Client
	serials []string

	quit     chan struct{}
	done     chan struct{}
	once     sync.Once
	probes   int
	failures int
	first    string
}

// read GETs one drive through the router; anything but a 200 fails.
func (p *readPoller) read(serial string) error {
	resp, err := p.client.Get(p.url + "/v1/drives/" + url.PathEscape(serial))
	if err != nil {
		return fmt.Errorf("GET %s: %v", serial, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", serial, resp.StatusCode)
	}
	return nil
}

// start launches the polling goroutine.
func (p *readPoller) start() {
	p.quit, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		for {
			for _, s := range p.serials {
				select {
				case <-p.quit:
					return
				default:
				}
				err := p.read(s)
				p.probes++
				if err != nil {
					if p.failures == 0 {
						p.first = err.Error()
					}
					p.failures++
				}
			}
			select {
			case <-p.quit:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
}

// stop ends the polling goroutine, waits for it, and returns its tally.
// Repeated calls return the same tally.
func (p *readPoller) stop() (probes, failures int, first string) {
	p.once.Do(func() { close(p.quit) })
	<-p.done
	return p.probes, p.failures, p.first
}
