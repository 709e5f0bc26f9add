package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"disksig/internal/wire"
)

// errRebalanceBusy is returned when a migration is already in flight.
var errRebalanceBusy = errors.New("route: a rebalance is already in progress")

// RebalanceStats summarizes a completed map migration.
type RebalanceStats struct {
	Epoch      uint64  `json:"epoch"`
	Moved      int     `json:"moved"`     // serials that changed owner
	Transfers  int     `json:"transfers"` // (source, target) images
	DurationMs float64 `json:"duration_ms"`
}

// Rebalance migrates the cluster from the current map to next with live
// traffic flowing:
//
//  1. copy stage — ingest batches holding a moving serial park at the
//     gate (bounded wait), so each mover's record stream is frozen on its
//     old owner; the router lists every current node's serials, computes
//     the movers with Diff and GroupMoves, and for each (source, target)
//     pair asks the source for one image of exactly those drives and
//     posts it, as sent, to the target;
//  2. flip — once the last image is imported, the epoch flips atomically
//     (the routing lock drains every in-flight batch, so no batch
//     straddles two maps) and the gate opens: parked batches re-split by
//     the new map, whose owners already hold every earlier record of
//     their movers;
//  3. retire pass — the old owners drop the serials they no longer own.
//
// A failure before the flip rolls the router back to the old map. A
// target that already imported keeps those entries, but the old map
// never routes to it for them; they are inert remnants that the next
// migration's pre-import drop clears.
func (rt *Router) Rebalance(ctx context.Context, next *Map) (*RebalanceStats, error) {
	if !rt.rebalanceMu.TryLock() {
		return nil, errRebalanceBusy
	}
	defer rt.rebalanceMu.Unlock()

	if err := next.Validate(); err != nil {
		return nil, err
	}
	cur := rt.snapshot().cur
	if next.Epoch <= cur.Epoch {
		return nil, fmt.Errorf("route: new map epoch %d is not newer than current epoch %d", next.Epoch, cur.Epoch)
	}
	start := time.Now()
	rt.m.rebalances.Add(1)

	// Enter the copy stage: moving-serial ingest gates from here on.
	copyDone := make(chan struct{})
	rt.mu.Lock()
	rt.next, rt.copyDone = next, copyDone
	rt.mu.Unlock()
	rt.probe.setNodes(unionNodes(cur.Nodes, next.Nodes))
	stats := &RebalanceStats{Epoch: next.Epoch}

	abort := func(err error) (*RebalanceStats, error) {
		// Routing stays on cur, which is still correct for every serial;
		// batches parked at the gate re-split by it.
		rt.endCopy(cur, copyDone)
		if rt.cfg.Log != nil {
			rt.cfg.Log.Printf("rebalance to epoch %d aborted: %v", next.Epoch, err)
		}
		return stats, err
	}

	// Copy. Mover streams are frozen by the gate, so each source's export
	// is complete for every serial it moves.
	var moves []Move
	for _, src := range cur.Nodes {
		serials, err := rt.serialsOf(ctx, src)
		if err != nil {
			return abort(fmt.Errorf("listing node %s: %w", src.ID, err))
		}
		for _, mv := range Diff(cur, next, serials) {
			// A serial src holds but does not own under the current map is
			// a remnant of an earlier aborted migration. Leave it alone.
			if mv.From == src.ID {
				moves = append(moves, mv)
			}
		}
	}
	for _, tr := range GroupMoves(moves) {
		src, _ := cur.Node(tr.From)
		tgt, _ := next.Node(tr.To)
		if err := rt.handOff(ctx, src, tgt, tr.Serials); err != nil {
			return abort(fmt.Errorf("moving %d drives %s → %s: %w", len(tr.Serials), src.ID, tgt.ID, err))
		}
		stats.Moved += len(tr.Serials)
		stats.Transfers++
	}

	// Flip: the new map becomes the only map, one epoch and one owner per
	// serial.
	rt.endCopy(next, copyDone)

	// Retire from each old node every serial the new map assigns
	// elsewhere. The list is taken after the flip rather than reused from
	// the copy, so it also catches remnants of earlier aborted migrations
	// that the old map never routed to.
	for _, src := range cur.Nodes {
		held, err := rt.serialsOf(ctx, src)
		if err != nil {
			return stats, fmt.Errorf("listing node %s after cutover: %w", src.ID, err)
		}
		var serials []string
		for _, serial := range held {
			if next.OwnerID(serial) != src.ID {
				serials = append(serials, serial)
			}
		}
		if len(serials) == 0 {
			continue
		}
		if err := rt.dropSerials(ctx, src, serials, true); err != nil {
			return stats, fmt.Errorf("dropping %d moved serials from node %s: %w", len(serials), src.ID, err)
		}
	}

	stats.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)
	if rt.cfg.Log != nil {
		rt.cfg.Log.Printf("rebalance: epoch %d→%d moved=%d transfers=%d dur=%.0fms",
			cur.Epoch, next.Epoch, stats.Moved, stats.Transfers, stats.DurationMs)
	}
	return stats, nil
}

// endCopy ends the copy stage routing by m: the write lock drains every
// in-flight batch split under the copy-stage state, and closing copyDone
// releases the batches parked at the gate, which re-split by m.
func (rt *Router) endCopy(m *Map, copyDone chan struct{}) {
	rt.mu.Lock()
	rt.routeState = routeState{cur: m}
	rt.mu.Unlock()
	close(copyDone)
	rt.probe.setNodes(m.Nodes)
}

// unionNodes merges two node lists by ID, first list winning.
func unionNodes(a, b []Node) []Node {
	seen := map[string]bool{}
	out := make([]Node, 0, len(a)+len(b))
	for _, lists := range [2][]Node{a, b} {
		for _, n := range lists {
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// admin sends one admin request to node n and returns the body and
// Content-Type of its 200 answer; any other status is an error.
func (rt *Router) admin(ctx context.Context, n Node, method, path, ct string, body []byte) ([]byte, string, error) {
	resp, rb, err := rt.forward(ctx, n, method, path, ct, body, nil)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(rb))
	}
	return rb, resp.Header.Get("Content-Type"), nil
}

// serialsOf lists the serials node n holds.
func (rt *Router) serialsOf(ctx context.Context, n Node) ([]string, error) {
	rb, _, err := rt.admin(ctx, n, "GET", "/v1/admin/serials", "", nil)
	if err != nil {
		return nil, err
	}
	var doc wire.SerialList
	if err := json.Unmarshal(rb, &doc); err != nil {
		return nil, fmt.Errorf("unreadable serials answer: %v", err)
	}
	return doc.Serials, nil
}

// handOff copies serials from src to tgt. The target first drops any
// copy it already holds: the import conflicts on a serial the target
// tracks, and under the current map these serials belong to src, so any
// copy on the target is a stale remnant of an earlier aborted migration.
// The source then carves exactly these drives into one image, which the
// target imports as sent; the router never decodes it.
func (rt *Router) handOff(ctx context.Context, src, tgt Node, serials []string) error {
	if err := rt.dropSerials(ctx, tgt, serials, false); err != nil {
		return fmt.Errorf("clearing stale entries on node %s: %w", tgt.ID, err)
	}
	req, err := json.Marshal(wire.SerialList{Serials: serials})
	if err != nil {
		return err
	}
	img, ct, err := rt.admin(ctx, src, "POST", "/v1/admin/export", "application/json", req)
	if err != nil {
		return fmt.Errorf("exporting from node %s: %w", src.ID, err)
	}
	if _, _, err := rt.admin(ctx, tgt, "POST", "/v1/admin/import", ct, img); err != nil {
		return fmt.Errorf("importing on node %s: %w", tgt.ID, err)
	}
	return nil
}

// dropSerials removes serials from a node. With strict set, every
// serial must actually have been dropped (retiring movers from their
// old owner); without it, absent serials are fine (clearing remnants).
func (rt *Router) dropSerials(ctx context.Context, n Node, serials []string, strict bool) error {
	body, err := json.Marshal(wire.SerialList{Serials: serials})
	if err != nil {
		return err
	}
	rb, _, err := rt.admin(ctx, n, "POST", "/v1/admin/drop", "application/json", body)
	if err != nil {
		return err
	}
	var doc struct {
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal(rb, &doc); err != nil {
		return fmt.Errorf("unreadable drop answer: %v", err)
	}
	if strict && doc.Dropped != len(serials) {
		return fmt.Errorf("dropped %d of %d moved serials", doc.Dropped, len(serials))
	}
	return nil
}
