package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/persist"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// failoverHeartbeat and failoverPromoteAfter are the scenario's timing:
// tight enough that a CI run fails over in well under a second, loose
// enough that a loaded -race runner does not false-promote a live
// primary.
const (
	failoverHeartbeat    = 25 * time.Millisecond
	failoverWatchEvery   = 20 * time.Millisecond
	failoverPromoteAfter = 150 * time.Millisecond
)

// RunFailover is the replicated-pair chaos schedule: a primary with a
// bootstrapped warm follower (at a different shard count) ingests under
// synchronous replication, the primary is killed mid-stream, the
// follower promotes itself after missing heartbeats, and failover-aware
// clients retry their way to the new primary. The scenario passes only
// if every acknowledged record survives — the promoted follower matches
// the shadow record-for-record — and the deposed primary's late WAL
// frames are provably fenced (403), never double-applied.
func RunFailover(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "failover", dep, cfg, func(r *run) error {
		wl, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		// The primary: persisted, seed-snapshotted, replication on.
		store1, mgr1, err := r.persisted("primary")
		if err != nil {
			return err
		}
		h1, err := r.serve(store1, server.Config{
			MaxInFlight: 256,
			Persist:     mgr1,
			Replication: &server.ReplicationOptions{
				Role:       server.RolePrimary,
				Term:       1,
				AckTimeout: 10 * time.Second,
				Heartbeat:  failoverHeartbeat,
			},
		})
		if err != nil {
			return err
		}

		// The follower: bootstrapped from the live primary at twice the shard
		// count (the state image is layout-independent), with its own WAL.
		follDir, err := r.dir("follower")
		if err != nil {
			return err
		}
		mgr2, err := persist.Open(follDir)
		if err != nil {
			return err
		}
		r.atExit(func() { mgr2.Close() })
		fcfg2 := r.fcfg
		fcfg2.Shards = store1.Shards() * 2
		h2, err := StartFollowerHarness(h1.URL, fcfg2, server.Config{
			MaxInFlight: 256,
			Persist:     mgr2,
		}, server.ReplicationOptions{
			AckTimeout: 10 * time.Second,
			ReadyLag:   2 * time.Second,
			Heartbeat:  failoverHeartbeat,
		})
		if err != nil {
			return fail("bootstrap", err)
		}
		r.atExit(func() { shutdown(h2.Stop) })
		term0 := h1.Srv.Term()

		// The follower watches the primary's liveness and promotes itself
		// after missing it continuously for the promote window.
		watchCtx, watchCancel := context.WithCancel(ctx)
		r.atExit(watchCancel)
		go h2.Srv.WatchPrimary(watchCtx, failoverWatchEvery, failoverPromoteAfter)

		// Failover-aware clients: both endpoints known, deterministic jitter.
		r.drv = &Driver{
			BaseURL:   h1.URL,
			Endpoints: []string{h1.URL, h2.URL},
			RetrySeed: cfg.Workload.Seed,
			Log:       dep.Log,
		}
		// Four chunks: replicated steady state, post-snapshot (the WAL epoch
		// advance ships mid-stream), the failover chunk (the kill lands just
		// before it), and post-failover steady state on the new primary.
		chunks := ChunkQueues(r.split(wl), 4)
		if _, err := r.phase("replicated", chunks[0]); err != nil {
			return err
		}
		// Synchronous acks mean every acknowledged batch is already applied
		// on the follower: it must mirror the shadow right now.
		r.rep.addCheck("follower-mirrors-primary",
			CompareStates("shadow", "follower", r.shadow.State(), CanonicalState(h2.Store)))

		// A mid-stream snapshot advances the primary's WAL epoch; the stream
		// must survive the epoch hop (drain, reset, resume at the new start).
		if err := AdminSnapshot(h1.URL); err != nil {
			return fail("mid-stream-snapshot", err)
		}
		preKill, err := r.phase("post-snapshot", chunks[1])
		if err != nil {
			return err
		}
		var readyErr error
		for _, u := range []string{h1.URL, h2.URL} {
			if code, err := ReadyStatus(u); err != nil {
				readyErr = err
			} else if code != http.StatusOK {
				readyErr = fmt.Errorf("%s/healthz/ready = %d before the kill, want 200", u, code)
			}
		}
		r.rep.addCheck("both-ready-before-kill", readyErr)

		// Kill the primary. The promotion clock starts here; a goroutine
		// polls the follower's role so the measured promote time includes
		// the heartbeat-miss window, not just the role flip.
		promoted := make(chan time.Duration, 1)
		killAt := time.Now()
		go func() {
			for {
				if h2.Srv.Role() == server.RolePrimary {
					promoted <- time.Since(killAt)
					return
				}
				if time.Since(killAt) > 15*time.Second {
					promoted <- -1
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
		if err := shutdown(h1.Stop); err != nil {
			return fail("kill", err)
		}

		// The failover chunk: clients hit the dead primary, rotate to the
		// follower, get bounced (503, not the primary) until the promotion
		// lands, then drain the chunk into the new primary.
		during, err := r.phase("failover", chunks[2])
		if err != nil {
			return err
		}
		promoteDur := <-promoted
		var promErr error
		if promoteDur < 0 {
			promErr = fmt.Errorf("follower never promoted itself")
		}
		r.rep.addCheck("follower-promoted", promErr)

		// Fencing proof: the deposed primary writes one late batch to its own
		// WAL and ships it at its old term. The new primary must answer 403 —
		// applying it would resurrect a write nobody acknowledged.
		r.rep.addCheck("deposed-primary-fenced", shipGhost(store1, mgr1, h2.URL, term0))
		// The deposed primary's own shipper gets the same 403 and steps the
		// node down — the OnFenced path, proven end to end.
		var stepErr error
		stepDeadline := time.Now().Add(5 * time.Second)
		for h1.Srv.Role() != server.RoleFollower {
			if time.Now().After(stepDeadline) {
				stepErr = fmt.Errorf("deposed primary still reports role %s", h1.Srv.Role())
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		r.rep.addCheck("deposed-primary-stepped-down", stepErr)

		post, err := r.phase("post-failover", chunks[3])
		if err != nil {
			return err
		}
		// Zero acknowledged-record loss: everything the clients got a 200 for
		// — across both primaries — is in the promoted follower's state. The
		// new primary's ingest counters cover exactly the records it served
		// directly; replicated applies are counted separately.
		r.verify("no-acked-records-lost", h2, CountRecords(chunks[2])+CountRecords(chunks[3]))
		var readyAfter error
		if code, err := ReadyStatus(h2.URL); err != nil {
			readyAfter = err
		} else if code != http.StatusOK {
			readyAfter = fmt.Errorf("/healthz/ready = %d after promotion, want 200", code)
		}
		r.rep.addCheck("promoted-ready", readyAfter)

		fr := &FailoverReport{
			PreKillRate:      preKill.RecordsPerSec,
			FailoverRate:     during.RecordsPerSec,
			PostFailoverRate: post.RecordsPerSec,
			NetRetries:       during.Status["net"],
		}
		if promoteDur > 0 {
			fr.PromoteMs = float64(promoteDur) / float64(time.Millisecond)
		}
		if fr.PreKillRate > 0 {
			fr.ThroughputDipPct = (1 - fr.FailoverRate/fr.PreKillRate) * 100
		}
		r.rep.Failover = fr
		var clientSaw error
		if fr.NetRetries == 0 {
			clientSaw = fmt.Errorf("failover phase saw no transport errors — the kill did not exercise the client")
		}
		r.rep.addCheck("client-failover-exercised", clientSaw)
		return nil
	})
}

// shipGhost logs one late batch on the deposed primary's WAL and ships
// it to the new primary at the old term; the ship must be refused with
// 403.
func shipGhost(store *fleet.Store, mgr *persist.Manager, newPrimary string, term uint64) error {
	ghost := []fleet.Observation{{Serial: "deposed-ghost", Record: smart.Record{Hour: 1}}}
	prev := mgr.Position()
	if _, _, err := mgr.LogBatch(ghost, func() fleet.BatchResult { return store.IngestBatch(ghost) }); err != nil {
		return fmt.Errorf("logging ghost batch: %w", err)
	}
	frames, _, err := mgr.ReadWALFrames(prev.Epoch, prev.Offset, 1<<20)
	if err != nil {
		return fmt.Errorf("reading ghost frames: %w", err)
	}
	resp, err := http.Post(newPrimary+"/v1/replication/ship", persist.ShipContentType,
		bytes.NewReader(persist.EncodeShipRequest(term, prev, frames)))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		return fmt.Errorf("deposed primary's ship got status %d, want 403", resp.StatusCode)
	}
	return nil
}
