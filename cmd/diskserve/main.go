// Command diskserve is the fleet health service: it trains the
// characterization pipeline at startup (on a synthetic fleet or a saved
// dataset), then serves SMART telemetry ingestion and fleet health
// queries over a JSON HTTP API backed by the sharded fleet store.
//
// With -state-dir the store is durable: every ingested batch is
// write-ahead logged before it is applied, snapshots are taken
// periodically (and on drain), and a restart restores the fleet from
// snapshot + WAL instead of retraining — a warm restart.
//
// Usage:
//
//	diskserve -scale small -addr :8080 -shards 16
//	diskserve -data fleet.gob -addr :8080
//	diskserve -scale small -state-dir /var/lib/diskserve
//	diskserve -state-dir /var/lib/ds2 -addr :8081 -follow http://primary:8080
//	diskserve -promote http://follower:8081
//	diskserve -route -cluster cluster.json -addr :8079
//
// With -follow the node skips training entirely: it bootstraps a warm
// copy of the primary's fleet state over HTTP, applies the primary's
// shipped WAL frames as they land, and — unless -promote-after is 0 —
// promotes itself to primary when the primary stays unreachable past
// the window. -promote asks a running follower to promote immediately.
//
// With -route the process is a routing tier instead of a node: it
// trains nothing and stores nothing, loads a versioned cluster map from
// -cluster, splits every ingest batch across the owning nodes by
// rendezvous hash, merges fleet-wide reads, and serves
// POST /v1/cluster/rebalance to live-migrate shards to a new map.
//
// API:
//
//	POST /v1/ingest                   batch SMART records (primary only)
//	GET  /v1/drives/{serial}          one drive's health
//	GET  /v1/fleet/summary            fleet-wide roll-up
//	POST /v1/admin/snapshot           force a snapshot (with -state-dir)
//	POST /v1/replication/bootstrap    follower bootstrap image
//	POST /v1/replication/ship         WAL frames from the primary
//	POST /v1/replication/promote      promote this node
//	GET  /v1/replication/status       role, term, stream positions
//	GET  /healthz                     liveness (alias of /healthz/live)
//	GET  /healthz/live                liveness
//	GET  /healthz/ready               readiness (role + replication lag)
//	GET  /metrics                     expvar-style counters
//	GET  /v1/cluster/status           router: map epoch, stage, node health
//	POST /v1/cluster/rebalance        router: live-migrate to a new map
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"disksig/internal/core"
	"disksig/internal/dataset"
	"disksig/internal/fleet"
	"disksig/internal/learn"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/quality"
	"disksig/internal/server"
	"disksig/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diskserve: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		scaleFlag = flag.String("scale", "small", "training fleet scale preset (when -data is not set)")
		seed      = flag.Int64("seed", 1, "training fleet seed")
		data      = flag.String("data", "", "train on a saved dataset (.csv, .bbcsv or .gob) instead of a synthetic fleet")
		shards    = flag.Int("shards", 16, "fleet store shards (rounded up to a power of two)")
		ttl       = flag.Int("ttl", 0, "evict drives whose last sample is this many hours behind the fleet's newest; 0 disables")
		workers   = flag.Int("workers", 0, "parallelism bound for training and batch ingestion; 0 means GOMAXPROCS")
		qpolicy   = flag.String("quality", "lenient", "defective-telemetry policy for training: lenient, strict or repair")
		maxBad    = flag.Int("max-bad-rows", 0, "abort training once more than this many rows are quarantined; 0 means unlimited")
		inflight  = flag.Int("max-inflight", 64, "concurrently served API requests before shedding with 429")
		maxBody   = flag.Int64("max-body", 8<<20, "ingest request body cap in bytes (413 beyond)")
		queueWait = flag.Duration("queue-wait", 0, "how long a request may wait for an in-flight slot before 429")
		stateDir  = flag.String("state-dir", "", "durable state directory (snapshot + write-ahead log); enables warm restart")
		snapEvery = flag.Duration("snapshot-every", time.Minute, "background snapshot period when -state-dir is set; <= 0 snapshots only on demand and on drain")
		follow    = flag.String("follow", "", "start as a warm follower of this primary base URL (bootstraps state over HTTP; durable when -state-dir is set)")
		advertise = flag.String("advertise", "", "base URL other nodes reach this one at; defaults to http://127.0.0.1<addr>")
		promote   = flag.String("promote", "", "one-shot: ask the node at this base URL to promote itself to primary, then exit")
		routeMode = flag.Bool("route", false, "serve as a cluster router over the nodes in -cluster instead of a storage node")
		cluster   = flag.String("cluster", "", "cluster map JSON file (required with -route)")
		promAfter = flag.Duration("promote-after", 5*time.Second, "follower self-promotes after the primary is continuously unreachable this long; 0 disables auto-promotion")

		histHours    = flag.Int("history-hours", 0, "per-drive telemetry hours retained for online retraining; 0 disables retraining-from-history")
		retrainEvery = flag.Duration("retrain-every", 0, "background online-retraining period; 0 retrains only via POST /v1/admin/retrain (requires -history-hours)")
		shadowMargin = flag.Float64("shadow-margin", 0, "shadow-evaluation F1 margin a retrained candidate must beat the serving models by before promotion")
	)
	flag.Parse()

	if *promote != "" {
		if err := requestPromote(*promote); err != nil {
			log.Fatalf("promote: %v", err)
		}
		log.Printf("%s promoted to primary", *promote)
		return
	}
	if *routeMode {
		// A router trains nothing and stores nothing; every other flag
		// concerns a storage node and is ignored.
		if err := runRouter(*addr, *cluster); err != nil {
			log.Fatal(err)
		}
		return
	}

	scale, err := synth.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := quality.ParsePolicy(*qpolicy)
	if err != nil {
		log.Fatal(err)
	}
	qcfg := quality.Config{Policy: policy, MaxBadRows: *maxBad}
	fcfg := fleet.Config{
		Shards:       *shards,
		TTLHours:     *ttl,
		Workers:      *workers,
		Monitor:      monitor.Config{},
		HistoryHours: *histHours,
	}

	var mgr *persist.Manager
	if *stateDir != "" {
		mgr, err = persist.Open(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
	}

	selfURL := *advertise
	if selfURL == "" {
		a := *addr
		if strings.HasPrefix(a, ":") {
			a = "127.0.0.1" + a
		}
		selfURL = "http://" + a
	}

	// Warm restart beats retraining: with a committed snapshot the fleet
	// state (trained models included) comes back from disk. A follower
	// beats both: it bootstraps the primary's live state over HTTP.
	var (
		store *fleet.Store
		ropts *server.ReplicationOptions
	)
	if *follow != "" {
		start := time.Now()
		st, bopts, err := server.BootstrapFollower(*follow, selfURL, fcfg, mgr)
		if err != nil {
			log.Fatalf("bootstrapping from %s: %v", *follow, err)
		}
		store = st
		ropts = &bopts
		log.Printf("bootstrapped as follower of %s (term %d, stream from %s) in %v",
			*follow, bopts.Term, bopts.Expected, time.Since(start).Round(time.Millisecond))
	} else if mgr != nil && mgr.HasSnapshot() {
		start := time.Now()
		var rec *persist.Recovery
		store, rec, err = mgr.Restore(fcfg)
		if err != nil {
			// Never silently retrain over a state directory that holds
			// real fleet history — the operator must decide.
			log.Fatalf("restoring %s: %v (move the directory aside to start fresh)", *stateDir, err)
		}
		log.Printf("warm restart: %s in %v", rec, time.Since(start).Round(time.Millisecond))
	} else {
		ds, err := loadOrGenerate(*data, scale, *seed, qcfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		ch, err := core.Characterize(ds, core.Config{Seed: *seed, Workers: *workers, Quality: qcfg})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained %d group models in %v (%d failed / %d good drives)",
			len(ch.Results), time.Since(start).Round(time.Millisecond), len(ds.Failed), len(ds.Good))
		if q := ch.Quarantine; q != nil && !q.Clean() {
			log.Print(q.Summary())
		}
		store, err = fleet.FromCharacterization(ch, fcfg)
		if err != nil {
			log.Fatal(err)
		}
		if mgr != nil {
			// Seed snapshot: the trained models are durable from the
			// first ingested batch onward.
			info, err := mgr.Snapshot(store)
			if err != nil {
				log.Fatalf("seed snapshot: %v", err)
			}
			log.Printf("seed snapshot committed: %d bytes, epoch %d", info.Bytes, info.Epoch)
		}
	}

	if mgr != nil {
		// A promotion saves the model artifact before the swapped snapshot
		// commits; a crash between the two leaves the artifact one version
		// ahead of the snapshot. Re-applying it on boot makes promotion
		// effectively atomic across restarts.
		if art, lerr := persist.LoadModels(mgr.Dir()); lerr == nil {
			if art.Version > store.ModelVersion() {
				if err := store.SwapModels(art.Models, art.Norm, art.Version); err != nil {
					log.Fatalf("re-applying model artifact v%d: %v", art.Version, err)
				}
				log.Printf("re-applied promoted model artifact v%d (fingerprint %s)", art.Version, art.Fingerprint)
			}
		} else if !os.IsNotExist(lerr) {
			log.Fatalf("loading model artifact from %s: %v (move it aside to serve the snapshot's models)", mgr.Dir(), lerr)
		}
	}

	var retrainer *learn.Retrainer
	if *histHours > 0 {
		retrainer = &learn.Retrainer{
			Store: store,
			Cfg: learn.Config{
				Core:   core.Config{Seed: *seed, Workers: *workers, Quality: qcfg},
				Margin: *shadowMargin,
			},
			Promote: func(art *persist.ModelArtifact) error {
				if mgr == nil {
					return store.SwapModels(art.Models, art.Norm, art.Version)
				}
				// Artifact first, then swap + snapshot under the same
				// exclusive gate: the snapshot following a promotion always
				// carries the promoted version, and the WAL never crosses it.
				if _, err := persist.SaveModels(mgr.Dir(), art); err != nil {
					return err
				}
				_, err := mgr.SnapshotWith(store, func() error {
					return store.SwapModels(art.Models, art.Norm, art.Version)
				})
				return err
			},
		}
		log.Printf("online retraining enabled: %d history hours, shadow margin %.3f", *histHours, *shadowMargin)
	} else if *retrainEvery > 0 {
		log.Fatal("-retrain-every needs -history-hours > 0: retraining harvests from retained telemetry")
	}

	if ropts == nil && mgr != nil {
		// A durable primary serves the replication surface, so a follower
		// can bootstrap from it at any time.
		ropts = &server.ReplicationOptions{Role: server.RolePrimary, Term: 1, SelfURL: selfURL}
	}
	scfg := server.Config{
		MaxBodyBytes:  *maxBody,
		MaxInFlight:   *inflight,
		QueueWait:     *queueWait,
		Log:           log.New(os.Stderr, "diskserve: ", 0),
		Persist:       mgr,
		SnapshotEvery: *snapEvery,
		Replication:   ropts,
		Retrain:       retrainer,
		RetrainEvery:  *retrainEvery,
	}
	srv := server.New(store, scfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving fleet health API on %s (%d shards)", l.Addr(), store.Shards())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	if *follow != "" && *promAfter > 0 {
		watchEvery := *promAfter / 5
		if watchEvery < 10*time.Millisecond {
			watchEvery = 10 * time.Millisecond
		}
		go srv.WatchPrimary(ctx, watchEvery, *promAfter)
		log.Printf("watching %s; self-promoting after %v of continuous unreachability", *follow, *promAfter)
	}
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("signal received, draining in-flight requests")
	shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if mgr != nil {
		// Final snapshot on drain, so the next boot replays no WAL. A
		// failure here loses nothing: the WAL still holds every batch
		// since the last snapshot.
		if info, err := mgr.Snapshot(store); err != nil {
			log.Printf("final snapshot failed: %v (WAL retains all unsnapshotted batches)", err)
		} else {
			log.Printf("final snapshot: %d drives, %d bytes, epoch %d", info.Drives, info.Bytes, info.Epoch)
		}
		if err := mgr.Close(); err != nil {
			log.Printf("closing state directory: %v", err)
		}
	}
	log.Print("drained, bye")
}

// requestPromote asks the node at base to promote itself to primary.
func requestPromote(base string) error {
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

func loadOrGenerate(path string, scale synth.Scale, seed int64, qcfg quality.Config) (*dataset.Dataset, error) {
	if path != "" {
		ds, qrep, err := dataset.LoadFileQ(path, qcfg)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		if !qrep.Clean() {
			log.Print(qrep.Summary())
		}
		return ds, nil
	}
	cfg := synth.DefaultConfig(scale)
	cfg.Seed = seed
	return synth.Generate(cfg)
}
