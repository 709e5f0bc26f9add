package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"disksig/internal/fleet"
)

// Replication wire formats. The ship request carries raw WAL frames —
// exactly the bytes the primary appended, CRC and all — prefixed with
// the sender's leadership term and the frames' position in the
// primary's WAL, so the follower can both fence deposed senders and
// dedup re-shipped frames against its high-water mark:
//
//	8-byte magic "DSKSHP\x00\x01" | u64 term | u64 walEpoch |
//	u64 fromOffset | raw WAL frames
//
// The bootstrap image is the full fleet state (the same gob payload a
// snapshot holds) plus the WAL position the follower must stream from,
// as a sealed container (container.go) under the magic
// "DSKBTS\x00\x01" with the fixed header
//
//	u64 term | u64 walEpoch | u64 walOffset
var (
	shipMagic = [8]byte{'D', 'S', 'K', 'S', 'H', 'P', 0x00, 0x01}
	bootMagic = [8]byte{'D', 'S', 'K', 'B', 'T', 'S', 0x00, 0x01}
)

const (
	// ShipContentType labels a replication ship request body.
	ShipContentType = "application/x-disksig-wal"
	// BootstrapContentType labels a bootstrap image body.
	BootstrapContentType = "application/x-disksig-bootstrap"
	// MaxShipBody caps a ship request body: the shipper chunks at ~1 MiB
	// but a single WAL frame can legally reach maxWALRecord.
	MaxShipBody = maxWALRecord + (1 << 20)

	shipHeaderSize = 8 + 8 + 8 + 8
	bootFixedLen   = 8 + 8 + 8
)

// Position is a point in the primary's WAL stream: the WAL epoch and
// the byte offset within that epoch's file. Offsets always land on
// frame boundaries (walHeaderSize is the empty-WAL position). The
// follower's acked Position is the replication high-water mark.
type Position struct {
	Epoch  uint64 `json:"epoch"`
	Offset int64  `json:"offset"`
}

// Before reports whether p is strictly earlier in the stream than q.
// Epochs only ever advance (each snapshot bumps one), so ordering by
// (epoch, offset) is total.
func (p Position) Before(q Position) bool {
	if p.Epoch != q.Epoch {
		return p.Epoch < q.Epoch
	}
	return p.Offset < q.Offset
}

func (p Position) String() string {
	return fmt.Sprintf("%d:%d", p.Epoch, p.Offset)
}

// StartPosition returns the position of an empty WAL at the given
// epoch — the offset just past the header, where the first frame goes.
func StartPosition(epoch uint64) Position {
	return Position{Epoch: epoch, Offset: walHeaderSize}
}

// EncodeShipRequest frames raw WAL bytes for one ship request.
func EncodeShipRequest(term uint64, from Position, frames []byte) []byte {
	return append(appendShipHeader(make([]byte, 0, shipHeaderSize+len(frames)), term, from), frames...)
}

// appendShipHeader appends a ship request's header to dst; the frames
// follow it.
func appendShipHeader(dst []byte, term uint64, from Position) []byte {
	dst = append(dst, shipMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, term)
	dst = binary.LittleEndian.AppendUint64(dst, from.Epoch)
	return binary.LittleEndian.AppendUint64(dst, uint64(from.Offset))
}

// DecodeShipRequest splits a ship request into its header and the raw
// WAL frame bytes (which may be empty — a heartbeat).
func DecodeShipRequest(body []byte) (term uint64, from Position, frames []byte, err error) {
	if len(body) < shipHeaderSize {
		return 0, Position{}, nil, fmt.Errorf("persist: ship request truncated at %d bytes", len(body))
	}
	if [8]byte(body[:8]) != shipMagic {
		return 0, Position{}, nil, fmt.Errorf("persist: bad ship request magic")
	}
	term = binary.LittleEndian.Uint64(body[8:16])
	from = Position{
		Epoch:  binary.LittleEndian.Uint64(body[16:24]),
		Offset: int64(binary.LittleEndian.Uint64(body[24:32])),
	}
	if from.Offset < walHeaderSize {
		return 0, Position{}, nil, fmt.Errorf("persist: ship request offset %d is inside the WAL header", from.Offset)
	}
	return term, from, body[shipHeaderSize:], nil
}

// FrameIter walks raw WAL frame bytes (a ship request payload) frame by
// frame, validating each frame's checksum and decoding its batch. Reset
// points it at the frames to walk. It decodes into reused observation
// and serial buffers, so a FrameIter kept across requests costs one
// allocation per frame, the string the frame's serials slice.
type FrameIter struct {
	data []byte
	dec  walDecoder
}

// Reset iterates the frames in data, keeping the buffers and serials of
// earlier iterations.
func (it *FrameIter) Reset(data []byte) { it.data = data }

// Next decodes the next frame, returning its observations (valid until
// the next call) and its on-the-wire size. It returns io.EOF at a clean
// end and a descriptive error at a torn or corrupt frame (the remaining
// bytes cannot be trusted; the receiver should ask the sender to
// re-ship from its high-water mark).
func (it *FrameIter) Next() ([]fleet.Observation, int64, error) {
	if len(it.data) == 0 {
		return nil, 0, io.EOF
	}
	if len(it.data) < 8 {
		return nil, 0, fmt.Errorf("persist: torn frame header (%d bytes)", len(it.data))
	}
	length := binary.LittleEndian.Uint32(it.data[:4])
	sum := binary.LittleEndian.Uint32(it.data[4:8])
	if length > maxWALRecord {
		return nil, 0, fmt.Errorf("persist: frame length %d exceeds cap", length)
	}
	if uint32(len(it.data)-8) < length {
		return nil, 0, fmt.Errorf("persist: torn frame payload (%d of %d bytes)", len(it.data)-8, length)
	}
	payload := it.data[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, fmt.Errorf("persist: frame checksum mismatch")
	}
	obs, err := it.dec.decode(payload)
	if err != nil {
		return nil, 0, err
	}
	it.data = it.data[8+length:]
	return obs, 8 + int64(length), nil
}

// EncodeBootstrap serializes a bootstrap image: the full fleet state
// plus the WAL position replication resumes from and the sender's term.
func EncodeBootstrap(st *fleet.State, term uint64, pos Position) ([]byte, error) {
	var fixed [bootFixedLen]byte
	binary.LittleEndian.PutUint64(fixed[0:8], term)
	binary.LittleEndian.PutUint64(fixed[8:16], pos.Epoch)
	binary.LittleEndian.PutUint64(fixed[16:24], uint64(pos.Offset))
	return seal(bootMagic, fixed[:], st)
}

// DecodeBootstrap parses and checksums a bootstrap image.
func DecodeBootstrap(body []byte) (*fleet.State, uint64, Position, error) {
	st := &fleet.State{}
	fixed, err := unseal(body, bootMagic, bootFixedLen, "bootstrap image", st)
	if err != nil {
		return nil, 0, Position{}, err
	}
	pos := Position{
		Epoch:  binary.LittleEndian.Uint64(fixed[8:16]),
		Offset: int64(binary.LittleEndian.Uint64(fixed[16:24])),
	}
	return st, binary.LittleEndian.Uint64(fixed[0:8]), pos, nil
}

// Position returns the durable end of the live WAL: every frame at an
// offset below it is fully on disk (modulo the OS write-back the WAL
// has always traded for throughput).
func (m *Manager) Position() Position {
	m.walMu.Lock()
	defer m.walMu.Unlock()
	return Position{Epoch: m.epoch, Offset: m.walEnd}
}

// errEpochGone reports that ReadWALFrames asked for an epoch the live
// WAL no longer has — a snapshot reset it underneath the reader. The
// shipper treats it as transient: Snapshot advances the shipper to the
// new epoch right after the reset.
var errEpochGone = fmt.Errorf("persist: WAL epoch superseded")

// ReadWALFrames reads whole frames from the live WAL starting at from,
// up to roughly maxBytes (always at least one whole frame when one is
// durable). It returns the raw frame bytes and the offset of the end of
// the last frame read. The read races no writer: walEnd only covers
// fully appended frames.
func (m *Manager) ReadWALFrames(epoch uint64, from int64, maxBytes int) ([]byte, int64, error) {
	return m.appendWALFrames(nil, epoch, from, maxBytes)
}

// appendWALFrames is ReadWALFrames reading into dst's spare capacity:
// the shipper reads frames straight behind a ship request's header.
func (m *Manager) appendWALFrames(dst []byte, epoch uint64, from int64, maxBytes int) ([]byte, int64, error) {
	m.walMu.Lock()
	curEpoch, end := m.epoch, m.walEnd
	m.walMu.Unlock()
	if epoch != curEpoch {
		return dst, 0, fmt.Errorf("%w (want %d, live %d)", errEpochGone, epoch, curEpoch)
	}
	if from < walHeaderSize || from > end {
		return dst, 0, fmt.Errorf("persist: WAL offset %d outside [%d, %d]", from, walHeaderSize, end)
	}
	if from == end {
		return dst, from, nil
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	f, err := os.Open(filepath.Join(m.dir, walName))
	if err != nil {
		return dst, 0, fmt.Errorf("persist: opening WAL for shipping: %w", err)
	}
	defer f.Close()

	start := len(dst)
	size := min(int64(maxBytes), end-from)
	dst = slices.Grow(dst, int(size))[:start+int(size)]
	buf := dst[start:]
	if _, err := f.ReadAt(buf, from); err != nil {
		return dst[:start], 0, fmt.Errorf("persist: reading WAL frames at %d: %w", from, err)
	}
	// Trim to whole frames; [from, end) holds only complete frames, so a
	// partial frame at the end of buf is purely a chunking artifact.
	n := 0
	for n+8 <= len(buf) {
		l := int(binary.LittleEndian.Uint32(buf[n:]))
		if l > maxWALRecord {
			return dst[:start], 0, fmt.Errorf("persist: WAL frame at %d has length %d beyond cap", from+int64(n), l)
		}
		if n+8+l > len(buf) {
			break
		}
		n += 8 + l
	}
	if n == 0 {
		// The first frame alone exceeds maxBytes (which may be smaller
		// than even the frame header): ship it whole anyway, progress
		// beats the chunk target.
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], from); err != nil {
			return dst[:start], 0, fmt.Errorf("persist: reading WAL frame header at %d: %w", from, err)
		}
		l := int(binary.LittleEndian.Uint32(hdr[:4]))
		if l > maxWALRecord {
			return dst[:start], 0, fmt.Errorf("persist: WAL frame at %d has length %d beyond cap", from, l)
		}
		dst = slices.Grow(dst[:start], 8+l)[:start+8+l]
		if _, err := f.ReadAt(dst[start:], from); err != nil {
			return dst[:start], 0, fmt.Errorf("persist: reading oversized WAL frame at %d: %w", from, err)
		}
		return dst, from + int64(8+l), nil
	}
	return dst[:start+n], from + int64(n), nil
}

// BootstrapImage captures a consistent full-state image and the WAL
// position replication continues from, holding out ingestion for the
// export exactly like Snapshot does.
func (m *Manager) BootstrapImage(s *fleet.Store) (*fleet.State, Position) {
	m.gate.Lock()
	defer m.gate.Unlock()
	st := s.ExportState()
	m.walMu.Lock()
	pos := Position{Epoch: m.epoch, Offset: m.walEnd}
	m.walMu.Unlock()
	return st, pos
}

// AttachShipper starts (replacing any previous) WAL shipping to a
// follower from the given position. The previous shipper, if any, is
// stopped — a follower re-bootstrapping supersedes its old stream.
func (m *Manager) AttachShipper(cfg ShipperConfig, from Position) *Shipper {
	sh := newShipper(m, cfg, from)
	m.shipMu.Lock()
	old := m.ship
	m.ship = sh
	m.shipMu.Unlock()
	if old != nil {
		old.Stop()
	}
	go sh.run()
	return sh
}

// AttachedShipper returns the live shipper, or nil when no follower is
// attached.
func (m *Manager) AttachedShipper() *Shipper {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	return m.ship
}

// DetachShipper stops shipping (the follower, if it returns, must
// re-bootstrap).
func (m *Manager) DetachShipper() {
	m.shipMu.Lock()
	old := m.ship
	m.ship = nil
	m.shipMu.Unlock()
	if old != nil {
		old.Stop()
	}
}
