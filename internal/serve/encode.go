package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/cql"
)

// appendFrame appends one length-prefixed frame to b: 4-byte big-endian body
// length, then v as JSON. On error b is returned unchanged.
func appendFrame(b []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return b, fmt.Errorf("serve: marshal frame: %w", err)
	}
	if len(body) > maxFrame {
		return b, fmt.Errorf("serve: frame too large (%d bytes)", len(body))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...), nil
}

// appendDelta appends the delta frame of d for subscription id to b, byte
// for byte what appendFrame gives for
//
//	&Frame{Op: "delta", ID: id, Kind: kind, Ts: d.Ts, Row: d.Row()}
//
// without building the Frame or the map: the plan hands rows over in column
// order, which is the order encoding/json sorts a map's keys into. Cells
// other than float64, int64, string, bool and nil — and floats JSON cannot
// carry — take the appendFrame route.
func appendDelta(b []byte, id string, d cql.Delta) ([]byte, error) {
	kind := "insert"
	if d.Kind == cql.Delete {
		kind = "delete"
	}
	start := len(b)
	marshal := func() ([]byte, error) {
		return appendFrame(b[:start], &Frame{Op: "delta", ID: id, Kind: kind, Ts: d.Ts, Row: d.Row()})
	}
	b = append(b, 0, 0, 0, 0)
	b = append(b, `{"op":"delta"`...)
	if id != "" {
		b = appendJSONString(append(b, `,"id":`...), id)
	}
	b = append(b, `,"kind":"`...)
	b = append(b, kind...)
	b = append(b, '"')
	if d.Ts != 0 {
		b = strconv.AppendInt(append(b, `,"ts":`...), d.Ts, 10)
	}
	if len(d.Cols) > 0 {
		b = append(b, `,"row":{`...)
		for i, c := range d.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendJSONString(b, c), ':')
			switch v := d.Vals[i].(type) {
			case nil:
				b = append(b, "null"...)
			case bool:
				b = strconv.AppendBool(b, v)
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case string:
				b = appendJSONString(b, v)
			case float64:
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return marshal()
				}
				b = appendJSONFloat(b, v)
			default:
				return marshal()
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("serve: frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendJSONFloat formats f as encoding/json does: shortest representation,
// exponent form only below 1e-6 and from 1e21, with a two-digit negative
// exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// control characters, quote, backslash, <, > and & escaped, invalid UTF-8
// replaced by U+FFFD, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	from := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[from:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			from = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[from:i]...)
			b = append(b, `\ufffd`...)
			i += size
			from = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[from:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			from = i
			continue
		}
		i += size
	}
	b = append(b, s[from:]...)
	return append(b, '"')
}
