package wire

import (
	"encoding/binary"
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
	return SplitFrameInto(nil, frame, parts, assign, rep)
}

// SplitFrameInto is SplitFrame refilling the parts of dst, whose storage
// it reuses, so a caller that pools dst splits a batch without
// allocating once its buffers have grown to the batches it splits. The
// result has parts entries, and a part that receives no records is
// empty: nil unless dst held storage for it.
func SplitFrameInto(dst [][]byte, frame []byte, parts int, assign func(serial []byte) int, rep *quality.Report) ([][]byte, error) {
	dst, err := resetParts(dst, parts)
	if err != nil {
		return nil, err
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
		b := dst[idx]
		if len(b) == 0 {
			// Size for the remaining body: every unassigned record could
			// still land here. The header's count is kept running.
			b = grow(b, headerSize+len(rec)+len(p)+trailerSize)
			b = append(b, version, 0, 0, 0, 0)
		}
		binary.LittleEndian.PutUint32(b[1:], u32(b[1:])+1)
		dst[idx] = append(b, rec...)
	}
	if len(p) != 0 {
		return nil, malformed("%d trailing bytes after %d records", len(p), count)
	}

	for idx, b := range dst {
		if len(b) != 0 {
			dst[idx] = appendU32(b, crc32.Checksum(b, castagnoli))
		}
	}
	return dst, nil
}

// resetParts empties dst's first parts entries for a split, keeping
// their storage and that of any beyond them.
func resetParts(dst [][]byte, parts int) ([][]byte, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("wire: splitting into %d parts", parts)
	}
	if cap(dst) < parts {
		dst = append(dst[:cap(dst)], make([][]byte, parts-cap(dst))...)
	}
	dst = dst[:parts]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	return dst, nil
}

// grow returns the empty part b with room for n bytes.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, 0, n)
	}
	return b
}
