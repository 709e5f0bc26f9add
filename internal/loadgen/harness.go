package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/learn"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// Harness is an in-process diskserve: a fleet store wrapped in the real
// internal/server HTTP layer on a loopback listener. The scenarios use
// it so a load run (and CI) needs no external process — the HTTP path
// exercised is exactly the production one.
type Harness struct {
	Store *fleet.Store
	Srv   *server.Server
	URL   string

	l       net.Listener
	serve   chan error
	stop    sync.Once
	stopErr error
}

// StartHarness builds a store from models and serves it on a loopback
// port. When scfg.Persist is set, the caller owns the manager's
// lifecycle (the chaos scenario abandons it to simulate a crash).
func StartHarness(models []monitor.GroupModel, norm *smart.Normalizer, fcfg fleet.Config, scfg server.Config) (*Harness, error) {
	store, err := fleet.New(models, norm, fcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building harness store: %w", err)
	}
	return StartHarnessStore(store, scfg)
}

// StartHarnessStore serves an existing store (the chaos scenario's
// restored store) on a loopback port.
func StartHarnessStore(store *fleet.Store, scfg server.Config) (*Harness, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: harness listener: %w", err)
	}
	url := "http://" + l.Addr().String()
	if scfg.Replication != nil && scfg.Replication.SelfURL == "" {
		// The advertised URL is only known once the port is; fill it so a
		// promoted harness hands out a working leader hint.
		scfg.Replication.SelfURL = url
	}
	h := &Harness{
		Store: store,
		Srv:   server.New(store, scfg),
		URL:   url,
		l:     l,
		serve: make(chan error, 1),
	}
	go func() { h.serve <- h.Srv.Serve(l) }()
	return h, nil
}

// StartFollowerHarness bootstraps a warm follower from a running
// primary and serves it: the listener opens first (so the follower
// knows the URL it advertises), the primary streams its state image and
// attaches its WAL shipper, and the restored store — at whatever layout
// fcfg picks — starts serving in follower role. scfg.Persist, when set,
// makes the follower durable (its own WAL logs every applied frame).
// ropts carries only the timing knobs (AckTimeout, ReadyLag,
// Heartbeat); role, term, and stream position come from the bootstrap.
func StartFollowerHarness(primaryURL string, fcfg fleet.Config, scfg server.Config, ropts server.ReplicationOptions) (*Harness, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: follower listener: %w", err)
	}
	selfURL := "http://" + l.Addr().String()
	store, bopts, err := server.BootstrapFollower(primaryURL, selfURL, fcfg, scfg.Persist)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("loadgen: bootstrapping follower: %w", err)
	}
	bopts.AckTimeout = ropts.AckTimeout
	bopts.ReadyLag = ropts.ReadyLag
	bopts.Heartbeat = ropts.Heartbeat
	scfg.Replication = &bopts
	h := &Harness{
		Store: store,
		Srv:   server.New(store, scfg),
		URL:   selfURL,
		l:     l,
		serve: make(chan error, 1),
	}
	go func() { h.serve <- h.Srv.Serve(l) }()
	return h, nil
}

// ReadyStatus GETs /healthz/ready and returns the HTTP status code.
func ReadyStatus(baseURL string) (int, error) {
	resp, err := http.Get(baseURL + "/healthz/ready")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// Stop drains in-flight requests and stops serving — the SIGTERM path.
// It returns promptly whether or not Serve has started yet, and a
// repeated Stop returns the first call's result. The persist manager
// (if any) is untouched: a chaos kill wants the state directory to look
// like a crash, and a clean shutdown's final snapshot is the scenario's
// decision, not the harness's.
func (h *Harness) Stop(ctx context.Context) error {
	h.stop.Do(func() {
		err := h.Srv.Shutdown(ctx)
		// Shutdown is a no-op until Serve has built its http.Server;
		// closing the listener makes a Serve that starts late return at
		// once instead of serving forever.
		h.l.Close()
		serr := <-h.serve
		switch {
		case err != nil:
			h.stopErr = fmt.Errorf("loadgen: harness shutdown: %w", err)
		case serr != nil && !errors.Is(serr, http.ErrServerClosed) && !errors.Is(serr, net.ErrClosed):
			h.stopErr = fmt.Errorf("loadgen: harness serve: %w", serr)
		}
	})
	return h.stopErr
}

// metricsDoc is the part of GET /metrics the scenarios check.
type metricsDoc struct {
	Ingest struct {
		Ingested    int64 `json:"rows_ingested"`
		Kept        int64 `json:"rows_kept"`
		Quarantined int64 `json:"rows_quarantined"`
		HDD         int64 `json:"rows_hdd"`
		SSD         int64 `json:"rows_ssd"`
	} `json:"ingest"`
	Fleet struct {
		Drives int `json:"drives"`
	} `json:"fleet"`
}

// MetricsInvariant fetches /metrics and checks the serving-path ledger:
// rows_ingested = rows_kept + rows_quarantined, and rows_ingested
// matches the expected record count (a negative count skips that
// check). It returns the ingest counters.
func MetricsInvariant(baseURL string, wantIngested int64) (ingested, kept, quarantined int64, err error) {
	m, err := metricsLedger(baseURL, wantIngested)
	return m.Ingest.Ingested, m.Ingest.Kept, m.Ingest.Quarantined, err
}

// metricsLedger is MetricsInvariant returning the whole document.
func metricsLedger(baseURL string, wantIngested int64) (*metricsDoc, error) {
	m := &metricsDoc{}
	if err := fetchJSON(baseURL+"/metrics", m); err != nil {
		return m, err
	}
	in := m.Ingest
	if in.Ingested != in.Kept+in.Quarantined {
		return m, fmt.Errorf("/metrics invariant violated: %d != %d kept + %d quarantined", in.Ingested, in.Kept, in.Quarantined)
	}
	if wantIngested >= 0 && in.Ingested != wantIngested {
		return m, fmt.Errorf("/metrics rows_ingested = %d, want %d", in.Ingested, wantIngested)
	}
	return m, nil
}

// AdminRetrain triggers POST /v1/admin/retrain and returns the cycle's
// result. The call is synchronous: it returns once the cycle (and any
// promotion) has completed server-side.
func AdminRetrain(baseURL string) (*learn.Result, error) {
	resp, err := http.Post(baseURL+"/v1/admin/retrain", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admin retrain: status %d", resp.StatusCode)
	}
	res := &learn.Result{}
	if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
		return nil, fmt.Errorf("decoding retrain result: %w", err)
	}
	return res, nil
}

// ActiveModelVersion GETs /v1/models/status and returns the serving
// model version.
func ActiveModelVersion(baseURL string) (int, error) {
	var st struct {
		ActiveVersion int `json:"active_version"`
	}
	if err := fetchJSON(baseURL+"/v1/models/status", &st); err != nil {
		return 0, err
	}
	return st.ActiveVersion, nil
}

// AdminSnapshot triggers POST /v1/admin/snapshot on a persisted server.
func AdminSnapshot(baseURL string) error {
	resp, err := http.Post(baseURL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin snapshot: status %d", resp.StatusCode)
	}
	return nil
}

// fetchJSON GETs a URL and decodes its JSON body.
func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// RestoreStore reopens a state directory and rebuilds the fleet store,
// timing the warm restart. The shard count is free to differ from the
// killed process's.
func RestoreStore(dir string, fcfg fleet.Config) (*fleet.Store, *persist.Manager, *persist.Recovery, time.Duration, error) {
	start := time.Now()
	mgr, err := persist.Open(dir)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("loadgen: reopening state dir: %w", err)
	}
	store, rec, err := mgr.Restore(fcfg)
	if err != nil {
		mgr.Close()
		return nil, nil, nil, 0, fmt.Errorf("loadgen: restoring: %w", err)
	}
	return store, mgr, rec, time.Since(start), nil
}
