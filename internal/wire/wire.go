// Package wire decodes both encodings of one POST /v1/ingest batch: the
// JSON body (application/json, the default; see DecodeJSON) and a
// compact, CRC-framed binary batch frame negotiated with the
// Content-Type "application/x-disksig-batch". One pooled Decoder reads
// either into a reusable observation buffer whose serials slice one
// string per batch, so the steady state allocates once per batch, not
// per record, in either format, and routes every defect through the internal/quality taxonomy, keeping the
// kept+quarantined+dropped accounting identical across the two.
// SplitFrame and SplitJSON let a router partition a batch by owning node
// by copying each record's bytes, with the nodes' own checks. The frame
// remains the cheaper format: a value travels as its float64 bits
// instead of a decimal to parse, so decoding it costs a fraction of the
// JSON scan.
//
// # Frame layout (version 1)
//
// All integers are little-endian. The frame borrows the framing
// discipline of internal/persist's WAL: length-prefixed fixed headers, a
// checksum over the whole payload, and decode errors that name exactly
// what tore.
//
//	offset 0  u8  version (0x01)
//	offset 1  u32 record count
//	then, per record:
//	  u16 serial length (1..MaxSerialLen)
//	  i32 hour
//	  u16 attribute-triple count (0..smart.NumAttrs)
//	  serial bytes
//	  per triple: u8 attribute index | u8 flags (0) | u64 float64 bits
//	trailer: u32 CRC-32C (Castagnoli) of every preceding byte
//
// # Frame layout (version 2)
//
// Version 2 carries mixed HDD+SSD fleets: the per-record header gains
// one device-class byte between the hour and the triple count
// (u16 slen, i32 hour, u8 class, u16 triples). Everything else —
// framing, trailer, triple encoding — is version 1's. The encoder emits
// version 1 whenever every observation in the batch is HDD, so pure-HDD
// traffic stays bit-identical to pre-class builds; a batch with any SSD
// observation is framed as version 2. The decoder accepts both, and
// quarantines per record any class byte it does not know — the frame
// still delimits the record, so one bad class must not poison the batch.
//
// A triple carries one present attribute value; attributes without a
// triple decode as NaN ("missing at source", exactly what the JSON
// format's null means). The encoder therefore omits non-finite values,
// and the decoder quarantines any record whose triples smuggle in an
// infinity — the same per-record judgment the JSON path applies to
// out-of-range decimals like 1e999.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// ContentType is the negotiated media type of the binary batch format.
const ContentType = "application/x-disksig-batch"

// MediaType extracts the bare, lower-cased media type of a Content-Type
// header value, dropping parameters like charset, so the node and the
// router negotiate the batch format alike. An absent header yields "",
// which both read as JSON (the format the API launched with).
func MediaType(ct string) string {
	ct, _, _ = strings.Cut(ct, ";")
	return strings.ToLower(strings.TrimSpace(ct))
}

// Version is the frame version pure-HDD batches are written in, and the
// oldest version the decoder reads.
const Version = 1

// Version2 is the class-carrying frame version; the encoder selects it
// automatically when a batch contains any non-HDD observation.
const Version2 = 2

const (
	// MaxSerialLen caps one serial number, matching the WAL's cap.
	MaxSerialLen = 4096
	// headerSize is the fixed frame header: version byte + record count.
	headerSize = 1 + 4
	// recHeaderSize is the fixed per-record header: serial length, hour,
	// triple count.
	recHeaderSize = 2 + 4 + 2
	// recHeaderSize2 is version 2's per-record header: serial length,
	// hour, device class, triple count.
	recHeaderSize2 = 2 + 4 + 1 + 2
	// tripleSize is one attribute triple: index, flags, float64 bits.
	tripleSize = 1 + 1 + 8
	// trailerSize is the CRC-32C trailer.
	trailerSize = 4
	// minFrameSize is an empty batch: header + trailer.
	minFrameSize = headerSize + trailerSize
)

// castagnoli is the CRC-32C table shared by encoder and decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameError is a frame-level decode failure: nothing in the batch can
// be trusted, so nothing is ingested. Kind classifies the failure in the
// quality taxonomy (TruncatedInput for torn frames, MalformedRow for
// corrupt or malformed ones) so the server's 400 response carries the
// same quarantine ledger shape as a malformed JSON body.
type FrameError struct {
	Kind   quality.Kind
	Detail string
}

// Error renders the failure.
func (e *FrameError) Error() string { return "wire: " + e.Detail }

// Issue renders the failure as a quality issue for the response ledger.
func (e *FrameError) Issue() quality.Issue {
	return quality.Issue{Kind: e.Kind, Detail: e.Detail}
}

func malformed(format string, args ...any) error {
	return &FrameError{Kind: quality.MalformedRow, Detail: fmt.Sprintf(format, args...)}
}

func truncated(format string, args ...any) error {
	return &FrameError{Kind: quality.TruncatedInput, Detail: fmt.Sprintf(format, args...)}
}

// AppendBatch appends the frame encoding of a batch to dst and returns
// the extended slice. Non-finite values are omitted (they decode back as
// NaN, like the JSON format's null). A batch whose every observation is
// HDD is framed as version 1, bit-identical to pre-class builds; a batch
// with any SSD observation is framed as version 2. It errors on
// observations the format cannot carry: an empty or over-long serial, an
// hour outside int32 range, or an invalid device class.
func AppendBatch(dst []byte, obs []fleet.Observation) ([]byte, error) {
	if len(obs) > math.MaxUint32 {
		return dst, fmt.Errorf("wire: batch of %d observations exceeds the u32 record count", len(obs))
	}
	version := byte(Version)
	for i := range obs {
		if !obs[i].Class.Valid() {
			return dst, fmt.Errorf("wire: observation %d has invalid device class %d", i, obs[i].Class)
		}
		if obs[i].Class != smart.HDD {
			version = Version2
		}
	}
	start := len(dst)
	dst = append(dst, version)
	dst = appendU32(dst, uint32(len(obs)))
	for i := range obs {
		o := &obs[i]
		if len(o.Serial) == 0 || len(o.Serial) > MaxSerialLen {
			return dst, fmt.Errorf("wire: observation %d serial length %d outside [1, %d]", i, len(o.Serial), MaxSerialLen)
		}
		if o.Record.Hour < math.MinInt32 || o.Record.Hour > math.MaxInt32 {
			return dst, fmt.Errorf("wire: observation %d hour %d outside int32 range", i, o.Record.Hour)
		}
		present := 0
		for a := 0; a < int(smart.NumAttrs); a++ {
			if v := o.Record.Values[a]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				present++
			}
		}
		dst = appendU16(dst, uint16(len(o.Serial)))
		dst = appendU32(dst, uint32(int32(o.Record.Hour)))
		if version == Version2 {
			dst = append(dst, byte(o.Class))
		}
		dst = appendU16(dst, uint16(present))
		dst = append(dst, o.Serial...)
		for a := 0; a < int(smart.NumAttrs); a++ {
			v := o.Record.Values[a]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			dst = append(dst, byte(a), 0)
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return appendU32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// EncodeBatch encodes a batch into a fresh frame. It panics on
// observations the format cannot carry — the callers that prebuild
// workload bodies construct observations that always can.
func EncodeBatch(obs []fleet.Observation) []byte {
	frame, err := AppendBatch(make([]byte, 0, EncodedSize(obs)), obs)
	if err != nil {
		panic(err)
	}
	return frame
}

// EncodedSize returns the exact frame size of a batch, for preallocating
// encode buffers. Observations the encoder rejects are sized as if every
// value were present.
func EncodedSize(obs []fleet.Observation) int {
	recHeader := recHeaderSize
	for i := range obs {
		if obs[i].Class != smart.HDD {
			recHeader = recHeaderSize2
			break
		}
	}
	n := headerSize + trailerSize
	for i := range obs {
		present := 0
		for a := 0; a < int(smart.NumAttrs); a++ {
			if v := obs[i].Record.Values[a]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				present++
			}
		}
		n += recHeader + len(obs[i].Serial) + present*tripleSize
	}
	return n
}

// Decoder parses binary batch frames (Decode) and JSON bodies
// (DecodeJSON) into observations. It is built for the ingest hot path:
// the observation buffer is reused across calls, and the kept
// observations' serials slice one string per batch, so a batch of clean
// records costs one allocation however many it holds, once the buffers
// have grown to the batch. A Decoder is not safe for concurrent use;
// pool one per in-flight request.
type Decoder struct {
	obs     []fleet.Observation
	serials fleet.Serials
	// js and held are DecodeJSON's scanner and the issues it holds back
	// until the whole body has scanned.
	js   jsonScanner
	held []quality.Issue
}

// Decode parses one frame. Kept observations are returned (the slice is
// valid until the next Decode call); records the frame structure can
// still delimit but whose content is defective — an empty or over-long
// serial, an attribute index out of range, a nonzero flag byte, a
// duplicate attribute, an infinite value — are quarantined per record
// into rep, exactly like the JSON path's per-record validation. A
// frame-level failure (bad version, torn frame, CRC mismatch, count
// mismatch, trailing bytes) returns a *FrameError and ingests nothing;
// rep may then hold the records quarantined before the failure, so a
// caller answers with Reject(err), whose ledger names only the defect.
func (d *Decoder) Decode(frame []byte, rep *quality.Report) ([]fleet.Observation, error) {
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
	// Every record needs at least its fixed header plus one serial byte;
	// reject counts the body cannot hold before trusting them.
	if uint64(count)*uint64(recHeader+1) > uint64(len(p)) {
		return nil, malformed("record count %d exceeds the %d-byte frame body", count, len(p))
	}

	d.obs = d.obs[:0]
	if cap(d.obs) < int(count) {
		d.obs = make([]fleet.Observation, 0, count)
	}
	d.serials.Reset()
	for i := uint32(0); i < count; i++ {
		if len(p) < recHeader {
			return nil, truncated("record %d torn: %d bytes left, need a %d-byte record header", i, len(p), recHeader)
		}
		slen := int(u16(p))
		hour := int(int32(u32(p[2:])))
		class := smart.HDD
		classKnown := true
		triples := 0
		if version == Version2 {
			c := p[6]
			// An unknown class byte is a record-content defect, not a
			// framing one: the header still delimits the record, so decode
			// past it and quarantine just this record below.
			classKnown = smart.DeviceClass(c).Valid()
			class = smart.DeviceClass(c)
			triples = int(u16(p[7:]))
		} else {
			triples = int(u16(p[6:]))
		}
		p = p[recHeader:]
		need := slen + triples*tripleSize
		if len(p) < need {
			return nil, truncated("record %d torn: %d bytes left, need %d", i, len(p), need)
		}
		serial, tr := p[:slen], p[slen:need]
		p = p[need:]

		switch {
		case slen == 0 || slen > MaxSerialLen:
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "serial",
				Detail: fmt.Sprintf("record %d serial length %d outside [1, %d]", i, slen, MaxSerialLen),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
			continue
		case !classKnown:
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "device_class", Drive: string(serial),
				Detail: fmt.Sprintf("record %d names device class %d, want < %d", i, class, smart.NumClasses),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
			continue
		case triples > int(smart.NumAttrs):
			rep.Note(quality.Issue{
				Kind: quality.ShortRow, Drive: string(serial),
				Detail: fmt.Sprintf("record %d has %d attribute triples, format carries at most %d", i, triples, smart.NumAttrs),
			}, quality.Config{})
			rep.AddRows(1, 1, 0)
			continue
		}

		var v smart.Values
		for a := range v {
			v[a] = math.NaN()
		}
		var seen uint32
		bad := false
		for t := 0; t < triples; t++ {
			attr, flags := tr[0], tr[1]
			bits := u64(tr[2:])
			tr = tr[tripleSize:]
			switch {
			case int(attr) >= int(smart.NumAttrs):
				d.noteBadRecord(rep, serial, quality.BadField, "record %d triple %d names attribute %d, want < %d", i, t, attr, smart.NumAttrs)
				bad = true
			case flags != 0:
				d.noteBadRecord(rep, serial, quality.BadField, "record %d triple %d has unknown flags %#02x", i, t, flags)
				bad = true
			case seen&(1<<attr) != 0:
				d.noteBadRecord(rep, serial, quality.BadField, "record %d repeats attribute %d", i, attr)
				bad = true
			case math.IsInf(math.Float64frombits(bits), 0):
				// The JSON path quarantines a value that parses to ±Inf
				// instead of silently coercing it; the binary path must
				// judge identical content identically.
				d.noteBadRecord(rep, serial, quality.NonFinite, "record %d attribute %d carries an infinite value", i, attr)
				bad = true
			default:
				seen |= 1 << attr
				v[attr] = math.Float64frombits(bits)
			}
			if bad {
				break
			}
		}
		if bad {
			rep.AddRows(1, 1, 0)
			continue
		}
		d.serials.Add(serial)
		d.obs = append(d.obs, fleet.Observation{
			Class:  class,
			Record: smart.Record{Hour: hour, Values: v},
		})
	}
	if len(p) != 0 {
		return nil, malformed("%d trailing bytes after %d records", len(p), count)
	}
	d.serials.Assign(d.obs)
	return d.obs, nil
}

// noteBadRecord records one defective-record issue. The serial is copied
// (the frame buffer is the caller's to reuse).
func (d *Decoder) noteBadRecord(rep *quality.Report, serial []byte, kind quality.Kind, format string, args ...any) {
	rep.Note(quality.Issue{
		Kind: kind, Drive: string(serial),
		Detail: fmt.Sprintf(format, args...),
	}, quality.Config{})
}

// IsFrameError reports whether err is a frame-level decode failure and
// returns it.
func IsFrameError(err error) (*FrameError, bool) {
	var fe *FrameError
	ok := errors.As(err, &fe)
	return fe, ok
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func u16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func u64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
