package persist

import (
	"encoding/binary"
	"io"
	"os"

	"disksig/internal/fleet"
)

// snapshot.bin is a sealed container (container.go) under the magic
// "DSKSNAP\x01" with the fixed header
//
//	u32 version (currently 1) | u64 walEpoch
//
// walEpoch is the epoch of the WAL that begins after this snapshot, and
// the payload is the gob-encoded *fleet.State. The snapshot is
// committed through snapshot.tmp (commitFile): a crash mid-write leaves
// the previous snapshot intact.
var snapMagic = [8]byte{'D', 'S', 'K', 'S', 'N', 'A', 'P', 0x01}

const (
	snapVersion  = 1
	snapFixedLen = 12
)

type snapshotHeader struct {
	version  uint32
	walEpoch uint64
}

// writeSnapshot serializes the state and commits it atomically,
// returning the file size.
func writeSnapshot(dir string, st *fleet.State, walEpoch uint64) (int64, error) {
	var fixed [snapFixedLen]byte
	binary.LittleEndian.PutUint32(fixed[0:4], snapVersion)
	binary.LittleEndian.PutUint64(fixed[4:12], walEpoch)
	data, err := seal(snapMagic, fixed[:], st)
	if err != nil {
		return 0, err
	}
	if err := commitFile(dir, snapshotName, snapshotTmp, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// parseSnapshotHeader checks a snapshot's header — magic, payload cap,
// version — from data that need hold no more than the header.
func parseSnapshotHeader(data []byte) (snapshotHeader, error) {
	fixed, _, err := sealedHeader(data, snapMagic, snapFixedLen, "snapshot")
	if err != nil {
		return snapshotHeader{}, err
	}
	if err := checkFileVersion(fixed, snapVersion, "snapshot"); err != nil {
		return snapshotHeader{}, err
	}
	return snapshotHeader{version: snapVersion, walEpoch: binary.LittleEndian.Uint64(fixed[4:12])}, nil
}

// readSnapshotHeader reads and validates only the header.
func readSnapshotHeader(path string) (snapshotHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapshotHeader{}, err
	}
	defer f.Close()
	// A short read leaves a header parseSnapshotHeader calls truncated.
	var head [len(snapMagic) + snapFixedLen + 8]byte
	n, _ := io.ReadFull(f, head[:])
	return parseSnapshotHeader(head[:n])
}

// readSnapshot reads, checksums and decodes a committed snapshot.
func readSnapshot(path string) (*fleet.State, snapshotHeader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, snapshotHeader{}, err
	}
	hdr, err := parseSnapshotHeader(data)
	if err != nil {
		return nil, snapshotHeader{}, err
	}
	st := &fleet.State{}
	if _, err := unseal(data, snapMagic, snapFixedLen, "snapshot", st); err != nil {
		return nil, hdr, err
	}
	return st, hdr, nil
}
