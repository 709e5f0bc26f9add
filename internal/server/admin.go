package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"

	"disksig/internal/persist"
	"disksig/internal/wire"
)

// The admin transfer plane is the receive/serve side of a live shard
// handoff: the router exports the old owner's state (GET
// /v1/admin/export), streams the moving subset to the new owner as a
// resumable CRC-framed upload (POST /v1/admin/transfer/{id} chunks, then
// /commit), and finally drops the moved serials from the old owner
// (POST /v1/admin/drop). Every chunk carries its start offset in
// X-Transfer-Offset and a CRC-32C trailer over its payload; a chunk at
// the wrong offset is answered 409 with the offset the server expects,
// which is what makes the upload resumable after a dropped connection —
// the sender re-queries the high-water mark instead of restarting.

const (
	// TransferOffsetHeader carries a chunk's start offset into the
	// accumulated transfer body.
	TransferOffsetHeader = "X-Transfer-Offset"
	// transferTrailerSize is the CRC-32C trailer on every chunk.
	transferTrailerSize = 4
	// maxTransferSessions bounds concurrently open transfer buffers.
	maxTransferSessions = 16
	// maxTransferBytes bounds one accumulated transfer body.
	maxTransferBytes = 1 << 30
)

// transferCRC is the chunk-trailer checksum table.
var transferCRC = crc32.MakeTable(crc32.Castagnoli)

// handleExport serves the full fleet state as a bootstrap image — the
// same encoding the replication bootstrap uses, so the handoff pipeline
// reuses its framing and CRC. The image carries state, not WAL lineage;
// term and position are zero.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	img, err := persist.EncodeBootstrap(s.store.ExportState(), 0, persist.Position{})
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

// handleTransferChunk appends one CRC-framed chunk to a transfer buffer.
func (s *Server) handleTransferChunk(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	offset, err := strconv.ParseInt(r.Header.Get(TransferOffsetHeader), 10, 64)
	if err != nil || offset < 0 {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("bad %s header %q", TransferOffsetHeader, r.Header.Get(TransferOffsetHeader)),
		})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			wire.WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("chunk exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return
		}
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("reading chunk: %v", err),
		})
		return
	}
	if buf.Len() < transferTrailerSize {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("chunk of %d bytes is shorter than its %d-byte CRC trailer", buf.Len(), transferTrailerSize),
		})
		return
	}
	chunk := buf.Bytes()
	payload, trailer := chunk[:len(chunk)-transferTrailerSize], chunk[len(chunk)-transferTrailerSize:]
	wantSum := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if sum := crc32.Checksum(payload, transferCRC); sum != wantSum {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("chunk checksum mismatch (computed %08x, trailer %08x)", sum, wantSum),
		})
		return
	}

	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	t, ok := s.xfers[id]
	if !ok {
		if len(s.xfers) >= maxTransferSessions {
			wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": fmt.Sprintf("%d transfer sessions already open", len(s.xfers)),
			})
			return
		}
		if s.xfers == nil {
			s.xfers = map[string]*transferBuf{}
		}
		t = &transferBuf{}
		s.xfers[id] = t
	}
	if offset != int64(len(t.buf)) {
		// Wrong offset: the sender lost track (dropped connection, retry
		// of an already-applied chunk). Telling it the high-water mark is
		// what makes the transfer resumable.
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":    fmt.Sprintf("chunk at offset %d, transfer %q is at %d", offset, id, len(t.buf)),
			"expected": len(t.buf),
		})
		return
	}
	if int64(len(t.buf))+int64(len(payload)) > maxTransferBytes {
		delete(s.xfers, id)
		wire.WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error": fmt.Sprintf("transfer %q exceeds %d bytes", id, maxTransferBytes),
		})
		return
	}
	t.buf = append(t.buf, payload...)
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"received": len(payload),
		"offset":   len(t.buf),
	})
}

// handleTransferCommit decodes the accumulated image and merges its
// drives into the live store. The session is consumed on success and on
// decode failure (the image is corrupt; resending chunks into it cannot
// help), but kept on an import conflict so the error is inspectable.
func (s *Server) handleTransferCommit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.xferMu.Lock()
	t, ok := s.xfers[id]
	s.xferMu.Unlock()
	if !ok {
		wire.WriteJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("unknown transfer %q", id),
		})
		return
	}
	st, _, _, err := persist.DecodeBootstrap(t.buf)
	if err != nil {
		s.dropTransfer(id)
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("decoding transfer %q: %v", id, err),
		})
		return
	}
	imported, err := s.store.ImportEntries(st)
	if err != nil {
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":    fmt.Sprintf("importing transfer %q: %v", id, err),
			"imported": imported,
		})
		return
	}
	s.dropTransfer(id)
	doc := map[string]any{
		"imported": imported,
		"bytes":    len(t.buf),
	}
	// A durable node must persist what it just absorbed: WAL replay knows
	// nothing of imported drives, so without a snapshot a restart would
	// forget them. The import itself is already live either way.
	if s.cfg.Persist != nil {
		if _, err := s.cfg.Persist.Snapshot(s.store); err != nil {
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("post-import snapshot failed: %v", err)
			}
			doc["snapshot_error"] = err.Error()
		}
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

// handleTransferAbort discards a transfer buffer. Idempotent.
func (s *Server) handleTransferAbort(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.dropTransfer(id)
	wire.WriteJSON(w, http.StatusOK, map[string]any{"aborted": id})
}

func (s *Server) dropTransfer(id string) {
	s.xferMu.Lock()
	delete(s.xfers, id)
	s.xferMu.Unlock()
}

// handleDrop removes serials from the store — the final step of a
// handoff, after the new owner has committed and the map has flipped.
// Removal releases each drive's quality-ledger contribution too, so a
// moved drive's accounting lives on exactly one node.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req struct {
		Serials []string `json:"serials"`
	}
	if err := dec.Decode(&req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("malformed request body: %v", err),
		})
		return
	}
	dropped := 0
	for _, serial := range req.Serials {
		// Remove reports false for quarantine-only drives but still
		// releases their ledger contribution; both count as moved.
		if s.store.Remove(serial) {
			dropped++
		}
	}
	doc := map[string]any{
		"requested": len(req.Serials),
		"dropped":   dropped,
	}
	if s.cfg.Persist != nil && len(req.Serials) > 0 {
		if _, err := s.cfg.Persist.Snapshot(s.store); err != nil {
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("post-drop snapshot failed: %v", err)
			}
			doc["snapshot_error"] = err.Error()
		}
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

// transferBuf accumulates one resumable transfer.
type transferBuf struct {
	buf []byte
}
