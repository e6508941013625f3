package state

import (
	"encoding/binary"
	"slices"
)

// Storage keys of the LSM backend. Every element of keyed state is its own
// tree entry under
//
//	group (2 bytes, big-endian) | kind (1 byte) | uvarint len(name) | name |
//	uvarint len(key) | key | elem
//
// where elem is empty for value state, the sub-key for map state and the
// 8-byte big-endian position for list state. Name and key are length-prefixed,
// so the bytes up to elem parse back to exactly one (group, kind, name, key):
// no name, key or sub-key — whatever bytes it holds — can make one slot's
// entries look like another's, and all elements of one collection are the
// contiguous range behind their common prefix. Group comes first so a
// key-group export is a contiguous range scan.
const (
	kindList  byte = 'l'
	kindMap   byte = 'm'
	kindValue byte = 'v'
)

// appendStorageKey appends the storage key of one element to buf.
func appendStorageKey(buf []byte, group int, kind byte, name, key, elem string) []byte {
	buf = slices.Grow(buf, 3+2*binary.MaxVarintLen32+len(name)+len(key)+len(elem))
	buf = append(buf, byte(group>>8), byte(group), kind)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return append(buf, elem...)
}

// parseStorageKey splits a storage key; the returned slices alias k.
func parseStorageKey(k []byte) (group int, kind byte, name, key, elem []byte, ok bool) {
	if len(k) < 3 {
		return 0, 0, nil, nil, nil, false
	}
	group, kind = int(k[0])<<8|int(k[1]), k[2]
	rest := k[3:]
	for _, field := range []*[]byte{&name, &key} {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return 0, 0, nil, nil, nil, false
		}
		*field, rest = rest[w:w+int(n)], rest[w+int(n):]
	}
	return group, kind, name, key, rest, true
}

// groupStart is the smallest storage key of a key group — and so the
// exclusive upper bound of the group before it. It is nil, "unbounded", for
// the group after the last representable one.
func groupStart(group int) []byte {
	if group > 0xFFFF {
		return nil
	}
	return []byte{byte(group >> 8), byte(group)}
}

// prefixEnd returns the smallest key greater than every key starting with
// prefix, or nil when there is none.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
