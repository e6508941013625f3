package state

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// The LSM backend's value codec: one tag byte, then the payload. The common
// accumulator types get a fixed binary form that costs no reflection and no
// type preamble; everything else is a gob stream behind tagGob, so any type
// registered with RegisterType still round-trips. Payloads carry no length
// fields — a slice's length is what is left of the entry — so a decoder never
// sizes an allocation from bytes it has not seen.
const (
	tagFloat64  byte = 1 // 8 bytes, IEEE-754 bits, big-endian
	tagInt64    byte = 2 // 8 bytes, two's complement, big-endian
	tagString   byte = 3 // the remaining bytes
	tagBool     byte = 4 // 1 byte, 0 or 1
	tagFloat64s byte = 5 // 8 bytes per element
	tagInt64s   byte = 6 // 8 bytes per element
	tagGob      byte = 7 // gob stream of an interface value
)

// encodeValue serialises one state value for the LSM backend.
func encodeValue(v any) ([]byte, error) {
	switch x := v.(type) {
	case float64:
		return binary.BigEndian.AppendUint64([]byte{tagFloat64}, math.Float64bits(x)), nil
	case int64:
		return binary.BigEndian.AppendUint64([]byte{tagInt64}, uint64(x)), nil
	case string:
		return append([]byte{tagString}, x...), nil
	case bool:
		if x {
			return []byte{tagBool, 1}, nil
		}
		return []byte{tagBool, 0}, nil
	case []float64:
		out := make([]byte, 1, 1+8*len(x))
		out[0] = tagFloat64s
		for _, f := range x {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(f))
		}
		return out, nil
	case []int64:
		out := make([]byte, 1, 1+8*len(x))
		out[0] = tagInt64s
		for _, n := range x {
			out = binary.BigEndian.AppendUint64(out, uint64(n))
		}
		return out, nil
	}
	buf := bytes.NewBuffer([]byte{tagGob})
	if err := gob.NewEncoder(buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("state: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeValue is the inverse of encodeValue. It rejects unknown tags and
// payloads of the wrong size; for every tag but tagGob a value it accepts
// re-encodes to the same bytes.
func decodeValue(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errors.New("state: decode: empty value")
	}
	tag, p := data[0], data[1:]
	switch tag {
	case tagFloat64:
		if len(p) == 8 {
			return math.Float64frombits(binary.BigEndian.Uint64(p)), nil
		}
	case tagInt64:
		if len(p) == 8 {
			return int64(binary.BigEndian.Uint64(p)), nil
		}
	case tagString:
		return string(p), nil
	case tagBool:
		if len(p) == 1 && p[0] <= 1 {
			return p[0] == 1, nil
		}
	case tagFloat64s:
		if len(p)%8 == 0 {
			out := make([]float64, len(p)/8)
			for i := range out {
				out[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
			}
			return out, nil
		}
	case tagInt64s:
		if len(p)%8 == 0 {
			out := make([]int64, len(p)/8)
			for i := range out {
				out[i] = int64(binary.BigEndian.Uint64(p[8*i:]))
			}
			return out, nil
		}
	case tagGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
			return nil, fmt.Errorf("state: decode: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("state: decode: unknown codec tag %#x", tag)
	}
	return nil, fmt.Errorf("state: decode: tag %#x with a %d-byte payload", tag, len(p))
}
