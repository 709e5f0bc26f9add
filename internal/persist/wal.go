package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"disksig/internal/fleet"
	"disksig/internal/smart"
)

// WAL file layout:
//
//	header:  8-byte magic "DSKWAL\x00\x01" | u64 epoch (little endian)
//	records: u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Record payload:
//
//	uvarint observation count
//	per observation:
//	  uvarint serial length | serial bytes
//	  zigzag varint hour
//	  smart.NumAttrs x u64 float64 bits (little endian)
//	class tail (only when any observation is non-HDD):
//	  one u8 device class per observation, in observation order
//
// The class tail keeps mixed fleets replayable without touching the
// record layout pre-class readers parse: an all-HDD record encodes
// byte-identically to the old format, and the decoder distinguishes the
// two shapes by the exact byte count left after the observations — zero
// means all HDD, exactly count means a class tail, anything else is the
// corruption it always was.
//
// Appends are unbuffered single writes: a record is either fully in the
// file or it is the torn tail the next restore quarantines. There is no
// fsync per record — the WAL bounds data loss to the records written
// after the last completed write-back, which is the usual trade for an
// ingest path that must keep up with telemetry.
var walMagic = [8]byte{'D', 'S', 'K', 'W', 'A', 'L', 0x00, 0x01}

const (
	walHeaderSize = 16
	// maxWALRecord caps one record's payload so a corrupt length field
	// cannot make the reader attempt a multi-gigabyte allocation.
	maxWALRecord = 64 << 20
	// maxSerialLen caps one serial so a corrupt record fails fast.
	maxSerialLen = 4096
)

// errWALEnd reports a clean end of WAL: the previous record ended
// exactly at EOF.
var errWALEnd = errors.New("persist: end of WAL")

// dirSyncs counts directory fsyncs, so tests can pin that file
// creation and snapshot commits actually flush the directory entry.
var dirSyncs atomic.Uint64

// syncDir fsyncs a directory: on POSIX filesystems a freshly created
// (or renamed-over) file is only crash-durable once its directory
// entry is, and that takes an fsync of the directory itself. Failure
// is returned, not ignored — a WAL whose file can vanish across a
// crash is not a write-ahead log.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening state dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing state dir: %w", err)
	}
	dirSyncs.Add(1)
	return nil
}

// createWAL truncates/creates the WAL file and writes the header for
// the given epoch.
func createWAL(path string, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: creating WAL: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: writing WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: syncing WAL header: %w", err)
	}
	// The file's data is synced; its directory entry is not until the
	// directory itself is. Without this, a crash right after the reset
	// can resurface the old WAL (or no WAL at all) under a new epoch.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// readWALEpoch reads and validates the WAL header, returning its epoch.
func readWALEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("persist: reading WAL header: %w", err)
	}
	if [8]byte(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("persist: bad WAL magic")
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// appendWALRecord appends one batch of observations, framed as a WAL
// record, to dst and returns the extended slice. The payload is encoded
// in place behind a reserved frame header, whose length and checksum
// are filled in last, so a frame is written once.
func appendWALRecord(dst []byte, obs []fleet.Observation) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, 8+binary.MaxVarintLen64+len(obs)*(17+8*int(smart.NumAttrs)))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(obs)))
	mixed := false
	for _, o := range obs {
		if len(o.Serial) > maxSerialLen {
			return dst[:start], fmt.Errorf("persist: serial %q exceeds %d bytes", o.Serial[:32]+"...", maxSerialLen)
		}
		if !o.Class.Valid() {
			return dst[:start], fmt.Errorf("persist: observation %q has invalid device class %d", o.Serial, o.Class)
		}
		if o.Class != smart.HDD {
			mixed = true
		}
		dst = binary.AppendUvarint(dst, uint64(len(o.Serial)))
		dst = append(dst, o.Serial...)
		dst = binary.AppendVarint(dst, int64(o.Record.Hour))
		for a := 0; a < int(smart.NumAttrs); a++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(o.Record.Values[a]))
		}
	}
	if mixed {
		for _, o := range obs {
			dst = append(dst, byte(o.Class))
		}
	}
	payload := dst[start+8:]
	if len(payload) > maxWALRecord {
		return dst[:start], fmt.Errorf("persist: batch of %d observations exceeds the %d-byte record cap", len(obs), maxWALRecord)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// walDecoder parses WAL record payloads into a reused observation
// buffer, so decoding a record costs one allocation: the string its
// serials slice. The observations it returns are valid until its next
// decode; their serials never alias the payload's bytes.
type walDecoder struct {
	obs     []fleet.Observation
	serials fleet.Serials
}

// decode parses one record payload back into observations.
func (d *walDecoder) decode(payload []byte) ([]fleet.Observation, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("persist: WAL record: bad observation count")
	}
	payload = payload[n:]
	// Each observation needs at least 1 (serial len) + 1 (hour) +
	// 8*NumAttrs bytes; reject counts the payload cannot hold.
	minPer := 2 + 8*int(smart.NumAttrs)
	if count > uint64(len(payload)/minPer) {
		return nil, fmt.Errorf("persist: WAL record: count %d exceeds payload size", count)
	}
	obs := slices.Grow(d.obs[:0], int(count))
	d.serials.Reset()
	for i := uint64(0); i < count; i++ {
		slen, n := binary.Uvarint(payload)
		if n <= 0 || slen > maxSerialLen || uint64(len(payload)-n) < slen {
			return nil, fmt.Errorf("persist: WAL record: bad serial length in observation %d", i)
		}
		payload = payload[n:]
		serial := payload[:slen]
		payload = payload[slen:]
		hour, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("persist: WAL record: bad hour in observation %d", i)
		}
		payload = payload[n:]
		if len(payload) < 8*int(smart.NumAttrs) {
			return nil, fmt.Errorf("persist: WAL record: truncated values in observation %d", i)
		}
		d.serials.Add(serial)
		var o fleet.Observation
		o.Record.Hour = int(hour)
		for a := 0; a < int(smart.NumAttrs); a++ {
			o.Record.Values[a] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*a:]))
		}
		payload = payload[8*int(smart.NumAttrs):]
		obs = append(obs, o)
	}
	d.obs = obs
	switch {
	case len(payload) == 0:
		// No class tail: every observation is HDD (the zero value).
	case uint64(len(payload)) == count:
		for i := range obs {
			c := smart.DeviceClass(payload[i])
			if !c.Valid() {
				return nil, fmt.Errorf("persist: WAL record: observation %d names device class %d", i, payload[i])
			}
			obs[i].Class = c
		}
	default:
		return nil, fmt.Errorf("persist: WAL record: %d trailing bytes", len(payload))
	}
	d.serials.Assign(obs)
	return obs, nil
}

// walReader iterates the records of a WAL file, tracking the offset of
// the end of the last successfully decoded record so a torn tail can be
// truncated away precisely.
type walReader struct {
	f      *os.File
	br     *bufio.Reader
	epoch  uint64
	size   int64
	offset int64 // end of the last good record (starts after the header)
	// payload and dec are reused from record to record.
	payload []byte
	dec     walDecoder
}

// openWALReader opens the WAL and validates its header.
func openWALReader(path string) (*walReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat WAL: %w", err)
	}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: reading WAL header: %w", err)
	}
	if [8]byte(hdr[:8]) != walMagic {
		f.Close()
		return nil, fmt.Errorf("persist: bad WAL magic")
	}
	return &walReader{
		f:      f,
		br:     bufio.NewReaderSize(f, 1<<20),
		epoch:  binary.LittleEndian.Uint64(hdr[8:]),
		size:   fi.Size(),
		offset: walHeaderSize,
	}, nil
}

// Epoch returns the WAL's epoch.
func (r *walReader) Epoch() uint64 { return r.epoch }

// Offset returns the end of the last successfully decoded record.
func (r *walReader) Offset() int64 { return r.offset }

// Remaining returns how many bytes follow the last good record.
func (r *walReader) Remaining() int64 { return r.size - r.offset }

// Next returns the next record's observations (valid until the next
// call), errWALEnd at a clean end of file, or a decode error at a
// torn/corrupt record.
func (r *walReader) Next() ([]fleet.Observation, error) {
	var frame [8]byte
	if _, err := io.ReadFull(r.br, frame[:]); err != nil {
		if err == io.EOF {
			return nil, errWALEnd
		}
		return nil, fmt.Errorf("persist: torn record frame: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length > maxWALRecord {
		return nil, fmt.Errorf("persist: record length %d exceeds cap", length)
	}
	payload := slices.Grow(r.payload[:0], int(length))[:length]
	r.payload = payload
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, fmt.Errorf("persist: torn record payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("persist: record checksum mismatch")
	}
	obs, err := r.dec.decode(payload)
	if err != nil {
		return nil, err
	}
	r.offset += 8 + int64(length)
	return obs, nil
}

// Close releases the file handle.
func (r *walReader) Close() error { return r.f.Close() }
