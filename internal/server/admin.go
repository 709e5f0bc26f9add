package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"disksig/internal/persist"
	"disksig/internal/wire"
)

// The admin handoff plane is a node's side of a live shard move. The
// router lists each old owner's serials (GET /v1/admin/serials), asks
// the old owner for one image of the drives bound for each new owner
// (POST /v1/admin/export), posts that image as sent to the new owner
// (POST /v1/admin/import), and after the epoch flip drops from each old
// owner what it no longer owns (POST /v1/admin/drop). The image is the
// replication bootstrap image, whose sealed container checksums every
// byte, so a corrupt import is refused before any drive lands.

// maxImportBytes bounds one imported image.
const maxImportBytes = 1 << 30

// handleSerials lists the serials the store holds, sorted.
func (s *Server) handleSerials(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, &wire.SerialList{Serials: s.store.Serials()})
}

// handleExport answers a bootstrap image of the listed drives, carrying
// this node's model set so the importer can tell whether their score
// windows are comparable with its own. The image carries state, not WAL
// lineage; term and position are zero. An empty list is refused rather
// than read as "everything".
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	serials, ok := s.readSerials(w, r)
	if !ok {
		return
	}
	if len(serials) == 0 {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "export names no serials"})
		return
	}
	img, err := persist.EncodeBootstrap(s.store.ExportState(serials...), 0, persist.Position{})
	if err != nil {
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
			"error": fmt.Sprintf("encoding state export: %v", err),
		})
		return
	}
	w.Header().Set("Content-Type", persist.BootstrapContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(img)
}

// handleImport merges an exported image's drives into the store. An
// image that fails its checksum or does not decode is a 400 and imports
// nothing; a serial the store already holds is a 409, which is also how
// a retried import that the node already applied answers. A primary
// with a follower attached refuses every import with a 409: an import
// is not a WAL frame, so the follower would never see the drives, and
// a failover would lose their acknowledged history.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if !s.takesWrites(w) {
		return
	}
	if s.cfg.Persist != nil && s.cfg.Persist.AttachedShipper() != nil {
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error": "imports onto a replicated primary are refused: the follower would not see the imported drives",
		})
		return
	}
	var img bytes.Buffer
	var err error
	// An image declared past the cap is refused before any of it is read.
	if r.ContentLength > maxImportBytes {
		err = &http.MaxBytesError{Limit: maxImportBytes}
	} else {
		_, err = img.ReadFrom(http.MaxBytesReader(w, r.Body, maxImportBytes))
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		wire.WriteJSON(w, status, map[string]any{"error": fmt.Sprintf("reading image: %v", err)})
		return
	}
	st, _, _, err := persist.DecodeBootstrap(img.Bytes())
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("decoding image: %v", err)})
		return
	}
	imported, err := s.store.ImportEntries(st)
	if err != nil {
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":    fmt.Sprintf("importing image: %v", err),
			"imported": imported,
		})
		return
	}
	// WAL replay knows nothing of imported drives, so a durable node
	// snapshots what it just absorbed, or a restart would forget it.
	wire.WriteJSON(w, http.StatusOK, s.snapshotAfter("import", map[string]any{
		"imported": imported,
		"bytes":    img.Len(),
	}))
}

// handleDrop removes serials from the store — the final step of a
// handoff, after the new owner has imported them and the map has
// flipped. Removal releases each drive's quality-ledger contribution
// too, so a moved drive's accounting lives on exactly one node. A
// replicated primary drops only its own copy; the follower keeps an
// inert remnant, which loses no acknowledged record.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if !s.takesWrites(w) {
		return
	}
	serials, ok := s.readSerials(w, r)
	if !ok {
		return
	}
	dropped := 0
	for _, serial := range serials {
		// Remove reports false for quarantine-only drives but still
		// releases their ledger contribution; both count as moved.
		if s.store.Remove(serial) {
			dropped++
		}
	}
	doc := map[string]any{
		"requested": len(serials),
		"dropped":   dropped,
	}
	if len(serials) > 0 {
		doc = s.snapshotAfter("drop", doc)
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

// readSerials decodes a wire.SerialList request body, answering 400
// for a malformed one.
func (s *Server) readSerials(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req wire.SerialList
	if err := dec.Decode(&req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("malformed request body: %v", err),
		})
		return nil, false
	}
	return req.Serials, true
}

// snapshotAfter snapshots a durable node after an admin change to its
// drive set, noting a failure in doc, and returns doc. The change itself
// is already live either way.
func (s *Server) snapshotAfter(what string, doc map[string]any) map[string]any {
	if s.cfg.Persist != nil {
		if _, err := s.cfg.Persist.Snapshot(s.store); err != nil {
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("post-%s snapshot failed: %v", what, err)
			}
			doc["snapshot_error"] = err.Error()
		}
	}
	return doc
}
