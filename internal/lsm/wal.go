package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Write is one mutation of a batch handed to Tree.Apply: a put of Key to
// Value, or a tombstone for Key when Delete is set.
type Write struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// wal is a write-ahead log of put/delete records. Record format:
//
//	crc u32 | keyLen u32 | valLen u32 | tombstone u8 | key | val
//
// The crc covers everything after itself, so a torn frame (crash mid-append)
// is detected rather than silently accepted. Replay stops at the first
// corrupt or truncated record, and the file is truncated back to the last
// complete frame before appends resume — otherwise new records would land
// after the garbage and be unreachable on the next replay.
type wal struct {
	f    *os.File
	path string
	size int64  // bytes in the log
	buf  []byte // frame buffer reused across appends
}

const walHeader = 13

func openWAL(path string) (*wal, []Write, error) {
	var records []Write
	var valid int
	if data, err := os.ReadFile(path); err == nil {
		records, valid = decodeWAL(data)
		if valid < len(data) {
			// Torn tail: cut the log back to the last complete frame so the
			// next append continues a decodable log instead of writing past
			// garbage that replay will never cross.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, nil, fmt.Errorf("lsm: truncate torn wal tail: %w", err)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("lsm: read wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lsm: open wal: %w", err)
	}
	return &wal{f: f, path: path, size: int64(valid)}, records, nil
}

// decodeWAL parses records until the first torn or corrupt frame, returning
// the decoded records and the byte length of the valid prefix.
func decodeWAL(data []byte) ([]Write, int) {
	var records []Write
	pos := 0
	for pos+walHeader <= len(data) {
		crc := binary.LittleEndian.Uint32(data[pos:])
		kl := int(binary.LittleEndian.Uint32(data[pos+4:]))
		vl := int(binary.LittleEndian.Uint32(data[pos+8:]))
		tomb := data[pos+12] == 1
		end := pos + walHeader + kl + vl
		if kl < 0 || vl < 0 || end < pos || end > len(data) {
			break // truncated tail (or corrupt lengths overflowing int)
		}
		if crc32.ChecksumIEEE(data[pos+4:end]) != crc {
			break // torn write
		}
		key := append([]byte(nil), data[pos+walHeader:pos+walHeader+kl]...)
		val := append([]byte(nil), data[pos+walHeader+kl:end]...)
		records = append(records, Write{Key: key, Value: val, Delete: tomb})
		pos = end
	}
	return records, pos
}

// append logs a batch: every record is framed into one buffer and handed to
// the OS in a single write, so a barrier's worth of mutations costs one
// syscall, not one per record. The bytes are the same as appending the
// records one at a time.
func (w *wal) append(batch []Write) error {
	buf := w.buf[:0]
	for _, r := range batch {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0) // crc, filled below
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Key)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
		if r.Delete {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = append(buf, r.Key...)
		buf = append(buf, r.Value...)
		binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(buf[start+4:]))
	}
	w.buf = buf
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("lsm: wal write: %w", err)
	}
	return nil
}

// sync forces appended records to the medium. Appends only reach the OS; the
// caller decides when the log must survive a power failure.
func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("lsm: wal sync: %w", err)
	}
	return nil
}

// reset truncates the log (called after a successful memtable flush).
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("lsm: wal truncate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("lsm: wal seek: %w", err)
	}
	w.size = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }
