package wire

import (
	"fmt"
	"hash/crc32"

	"disksig/internal/quality"
	"disksig/internal/smart"
)

// SplitFrame re-frames one batch frame into per-part frames without
// decoding attribute triples: each record's bytes are copied verbatim
// into the frame chosen by assign(serial), so a router can partition a
// batch across owning nodes at memcpy speed. Parts that receive no
// records are returned nil.
//
// assign returns the destination part index in [0, parts); any other
// index is a programming error and fails the split.
//
// The frame-level checks (version, CRC, record count, torn records,
// trailing bytes) are exactly Decode's — a frame that Decode rejects
// with a *FrameError is rejected here identically, so the router's 400
// matches what the node would have said. Each part is framed in the
// input's version. Records whose headers are structurally defective
// (bad serial length, impossible triple count) cannot be re-framed —
// forwarded alone they would fail the target node's own prechecks and
// poison the whole sub-batch — so they are judged at the split with the
// same per-record quarantine notes Decode writes, into rep (which may
// be nil). An unknown version-2 class byte, which Decode judges before
// the triple count, and triple-level defects (bad attribute index,
// flags, infinities) pass through untouched; the owning node
// quarantines those, keeping the split-and-forward accounting identical
// to a direct ingest.
func SplitFrame(frame []byte, parts int, assign func(serial []byte) int, rep *quality.Report) ([][]byte, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("wire: splitting into %d parts", parts)
	}
	if len(frame) < minFrameSize {
		return nil, truncated("frame of %d bytes is shorter than the %d-byte minimum", len(frame), minFrameSize)
	}
	version := frame[0]
	if version != Version && version != Version2 {
		return nil, malformed("unsupported wire version %d (want %d or %d)", version, Version, Version2)
	}
	body, trailer := frame[:len(frame)-trailerSize], frame[len(frame)-trailerSize:]
	if sum := crc32.Checksum(body, castagnoli); sum != u32(trailer) {
		return nil, malformed("frame checksum mismatch (computed %08x, trailer %08x)", sum, u32(trailer))
	}
	recHeader := recHeaderSize
	if version == Version2 {
		recHeader = recHeaderSize2
	}
	count := u32(body[1:])
	p := body[headerSize:]
	if uint64(count)*uint64(recHeader+1) > uint64(len(p)) {
		return nil, malformed("record count %d exceeds the %d-byte frame body", count, len(p))
	}

	bodies := make([][]byte, parts)
	counts := make([]uint32, parts)
	for i := uint32(0); i < count; i++ {
		if len(p) < recHeader {
			return nil, truncated("record %d torn: %d bytes left, need a %d-byte record header", i, len(p), recHeader)
		}
		slen := int(u16(p))
		// The triple count closes the record header in both versions.
		triples := int(u16(p[recHeader-2:]))
		classKnown := version == Version || smart.DeviceClass(p[6]).Valid()
		need := recHeader + slen + triples*tripleSize
		if len(p) < need {
			return nil, truncated("record %d torn: %d bytes left, need %d", i, len(p)-recHeader, need-recHeader)
		}
		rec := p[:need]
		serial := p[recHeader : recHeader+slen]
		p = p[need:]

		// Same header-level judgment as Decode: these records cannot be
		// forwarded (an empty serial fails every target's precheck), so
		// the split is where they quarantine.
		switch {
		case slen == 0 || slen > MaxSerialLen:
			if rep != nil {
				rep.Note(quality.Issue{
					Kind: quality.BadField, Field: "serial",
					Detail: fmt.Sprintf("record %d serial length %d outside [1, %d]", i, slen, MaxSerialLen),
				}, quality.Config{})
				rep.AddRows(1, 1, 0)
			}
			continue
		case classKnown && triples > int(smart.NumAttrs):
			if rep != nil {
				rep.Note(quality.Issue{
					Kind: quality.ShortRow, Drive: string(serial),
					Detail: fmt.Sprintf("record %d has %d attribute triples, format carries at most %d", i, triples, smart.NumAttrs),
				}, quality.Config{})
				rep.AddRows(1, 1, 0)
			}
			continue
		}

		idx := assign(serial)
		if idx < 0 || idx >= parts {
			return nil, fmt.Errorf("wire: assign placed serial %q in part %d of %d", serial, idx, parts)
		}
		if bodies[idx] == nil {
			// Size for the remaining body: every unassigned record could
			// still land here.
			bodies[idx] = make([]byte, 0, headerSize+len(rec)+len(p)+trailerSize)
			bodies[idx] = append(bodies[idx], version, 0, 0, 0, 0)
		}
		bodies[idx] = append(bodies[idx], rec...)
		counts[idx]++
	}
	if len(p) != 0 {
		return nil, malformed("%d trailing bytes after %d records", len(p), count)
	}

	for idx, b := range bodies {
		if b == nil {
			continue
		}
		b[1] = byte(counts[idx])
		b[2] = byte(counts[idx] >> 8)
		b[3] = byte(counts[idx] >> 16)
		b[4] = byte(counts[idx] >> 24)
		bodies[idx] = appendU32(b, crc32.Checksum(b, castagnoli))
	}
	return bodies, nil
}
