package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Sealed containers. snapshot.bin, models.bin and the replication
// bootstrap image share one layout (all integers little endian):
//
//	8-byte magic | fixed header | u64 payload length | gob payload |
//	u32 CRC-32 (IEEE) over fixed header..payload
//
// Each format names itself by its magic and carries its own fixed
// header (snapshot.go, models.go, replication.go). seal writes the
// layout and unseal checks it, so every container is checked the same
// way: the magic, the payload cap before anything is sliced or
// decoded, the exact length, the CRC, and the gob decode.

// maxPayload caps a container's payload length, so a corrupt length
// field is refused before it can size anything.
const maxPayload = 1 << 32

// seal gob-encodes v into a sealed container after magic and the
// format's fixed header.
func seal(magic [8]byte, fixed []byte, v any) ([]byte, error) {
	head := len(magic) + len(fixed) + 8
	buf := bytes.NewBuffer(make([]byte, head, 4096))
	copy(buf.Bytes(), magic[:])
	copy(buf.Bytes()[len(magic):], fixed)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("persist: encoding %T: %w", v, err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[head-8:head], uint64(len(b)-head))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(magic):])), nil
}

// sealedHeader checks a sealed container's magic and payload cap and
// returns its fixed header and payload length. data need hold no more
// than the header; what names the container in errors.
func sealedHeader(data []byte, magic [8]byte, fixedLen int, what string) ([]byte, uint64, error) {
	head := len(magic) + fixedLen + 8
	if len(data) < head {
		return nil, 0, fmt.Errorf("persist: %s truncated at %d bytes", what, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, 0, fmt.Errorf("persist: bad %s magic", what)
	}
	n := binary.LittleEndian.Uint64(data[head-8 : head])
	if n > maxPayload {
		return nil, 0, fmt.Errorf("persist: %s payload length %d exceeds cap", what, n)
	}
	return data[len(magic) : head-8], n, nil
}

// unseal checks a whole sealed container — its header as sealedHeader
// does, its length against the header, its CRC — and gob-decodes the
// payload into v. It returns the fixed header.
func unseal(data []byte, magic [8]byte, fixedLen int, what string, v any) ([]byte, error) {
	fixed, n, err := sealedHeader(data, magic, fixedLen, what)
	if err != nil {
		return nil, err
	}
	head := len(magic) + fixedLen + 8
	if want := uint64(head) + n + 4; uint64(len(data)) != want {
		return nil, fmt.Errorf("persist: %s is %d bytes, header implies %d", what, len(data), want)
	}
	end := len(data) - 4
	if crc32.ChecksumIEEE(data[len(magic):end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, fmt.Errorf("persist: %s checksum mismatch", what)
	}
	if err := gob.NewDecoder(bytes.NewReader(data[head:end])).Decode(v); err != nil {
		return nil, fmt.Errorf("persist: decoding %s payload: %w", what, err)
	}
	return fixed, nil
}

// checkFileVersion refuses a container whose fixed header, which opens
// with a u32 file version, names a version other than want.
func checkFileVersion(fixed []byte, want uint32, what string) error {
	if v := binary.LittleEndian.Uint32(fixed); v != want {
		return fmt.Errorf("persist: %s version %d not supported (want %d)", what, v, want)
	}
	return nil
}

// commitFile makes data the content of dir/name crash-safely: it writes
// dir/tmp, fsyncs and closes it, renames it over name and fsyncs the
// directory. A crash at any point leaves the old file or the new one,
// never a torn one, and tmp is removed on every failure.
func commitFile(dir, name, tmp string, data []byte) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("persist: committing %s: %w", name, err)
	}
	// The rename is only crash-durable once the directory entry is on
	// disk; without the directory fsync a crash can roll the commit back
	// to the previous file after the WAL was already reset.
	return syncDir(dir)
}
