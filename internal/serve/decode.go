package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/cql"
)

// frameDecoder decodes the frames a server sends. Its fast path parses, with
// no reflection, the subset of JSON the server's encoders emit for stream
// frames and point-query replies, and gives exactly the Frame json.Unmarshal
// gives. A body outside that subset — a case-variant or unknown field name,
// a null, an array, a nested row cell or value, a repeated "row", a number
// or string it would have to interpret differently, trailing bytes — is
// decoded by encoding/json instead. Not safe for concurrent use.
type frameDecoder struct {
	// names caches field-level strings (ops, ids, kinds, codes, column
	// names), direct-mapped by a cheap hash, so a row's column names are not
	// allocated per frame. A collision costs an allocation, never memory.
	names [64]string
	unesc []byte // buffer for unescaping strings
}

// decode decodes one frame body into f, which must be zero.
func (d *frameDecoder) decode(body []byte, f *Frame) error {
	if d.fast(body, f) {
		return nil
	}
	*f = Frame{}
	if err := json.Unmarshal(body, f); err != nil {
		return fmt.Errorf("serve: decode frame: %w", err)
	}
	return nil
}

// fast decodes body into the zero Frame f and reports whether it could. On
// false, f holds a partial decode.
func (d *frameDecoder) fast(b []byte, f *Frame) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		key, j, ok := rawKey(b, i)
		if !ok {
			return false
		}
		if i = skipSpace(b, j); i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "seq":
			f.Seq, i, ok = parseUint(b, i)
		case "op":
			f.Op, i, ok = d.str(b, i, true)
		case "id":
			f.ID, i, ok = d.str(b, i, true)
		case "kind":
			f.Kind, i, ok = d.str(b, i, true)
		case "code":
			f.Code, i, ok = d.str(b, i, true)
		case "err":
			f.Err, i, ok = d.str(b, i, false)
		case "found":
			f.Found, i, ok = parseBool(b, i)
		case "ts":
			f.Ts, i, ok = parseInt(b, i)
		case "watermark":
			f.Watermark, i, ok = parseInt(b, i)
		case "shed":
			f.Shed, i, ok = parseInt(b, i)
		case "value":
			f.Value, i, ok = d.scalar(b, i)
		case "row":
			if f.Row != nil {
				return false // encoding/json merges a repeated object
			}
			f.Row, i, ok = d.row(b, i)
		default:
			return false
		}
		if !ok {
			return false
		}
		if i = skipSpace(b, i); i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// row parses an object of scalar cells.
func (d *frameDecoder) row(b []byte, i int) (cql.Row, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return nil, i, false
	}
	row := make(cql.Row, 4)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return row, i + 1, true
	}
	for {
		col, j, ok := d.str(b, i, true)
		if !ok {
			return nil, i, false
		}
		if i = skipSpace(b, j); i >= len(b) || b[i] != ':' {
			return nil, i, false
		}
		var v any
		if v, i, ok = d.scalar(b, skipSpace(b, i+1)); !ok {
			return nil, i, false
		}
		row[col] = v
		if i = skipSpace(b, i); i >= len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return row, i + 1, true
		default:
			return nil, i, false
		}
	}
}

// scalar parses a string, number (as float64), true, false or null.
func (d *frameDecoder) scalar(b []byte, i int) (any, int, bool) {
	if i >= len(b) {
		return nil, i, false
	}
	switch c := b[i]; {
	case c == '"':
		return d.str(b, i, false)
	case c == '-' || c >= '0' && c <= '9':
		return parseFloat(b, i)
	case hasLiteral(b, i, "true"):
		return true, i + 4, true
	case hasLiteral(b, i, "false"):
		return false, i + 5, true
	case hasLiteral(b, i, "null"):
		return nil, i + 4, true
	}
	return nil, i, false
}

// str parses a JSON string starting at its opening quote, interning it when
// intern is set. Strings holding invalid UTF-8 or a surrogate escape, which
// encoding/json would rewrite, are left to it.
func (d *frameDecoder) str(b []byte, i int, intern bool) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	i++
	start := i
	ascii := true
	for ; i < len(b) && b[i] != '"' && b[i] != '\\'; i++ {
		if b[i] < ' ' {
			return "", i, false
		}
		ascii = ascii && b[i] < utf8.RuneSelf
	}
	if i >= len(b) {
		return "", i, false
	}
	raw := b[start:i]
	if b[i] == '"' {
		if !ascii && !utf8.Valid(raw) {
			return "", i, false
		}
		return d.text(raw, intern), i + 1, true
	}
	// Escapes: unescape into d.unesc.
	out := append(d.unesc[:0], raw...)
	for {
		if i >= len(b) {
			return "", i, false
		}
		c := b[i]
		switch {
		case c == '"':
			d.unesc = out
			if !ascii && !utf8.Valid(out) {
				return "", i, false
			}
			return d.text(out, intern), i + 1, true
		case c < ' ':
			return "", i, false
		case c != '\\':
			ascii = ascii && c < utf8.RuneSelf
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", i, false
		}
		switch b[i+1] {
		case '"', '\\', '/':
			out = append(out, b[i+1])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(b, i+2)
			if !ok || r >= 0xd800 && r < 0xe000 {
				return "", i, false
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default:
			return "", i, false
		}
		i += 2
	}
}

// text returns s as a string, from the name cache when intern is set.
func (d *frameDecoder) text(s []byte, intern bool) string {
	if !intern || len(s) == 0 {
		return string(s)
	}
	slot := &d.names[(len(s)*31+int(s[0])*7+int(s[len(s)-1]))%len(d.names)]
	if *slot != string(s) {
		*slot = string(s)
	}
	return *slot
}

// rawKey parses a field name, which must be plain: an escape (which could
// spell a known name) is left to encoding/json.
func rawKey(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < ' ':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

func hasLiteral(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

func parseBool(b []byte, i int) (bool, int, bool) {
	switch {
	case hasLiteral(b, i, "true"):
		return true, i + 4, true
	case hasLiteral(b, i, "false"):
		return false, i + 5, true
	}
	return false, i, false
}

// number returns the end of the JSON number at b[i:] and whether it is an
// integer (no fraction or exponent); ok is false if b[i:] does not start
// with one.
func number(b []byte, i int) (end int, integer, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	default:
		return i, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, false, false
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, false, false
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	return i, integer, true
}

// parseInt parses an integer number into an int64, as encoding/json does
// for an int64 field; anything else is left to it.
func parseInt(b []byte, i int) (int64, int, bool) {
	end, integer, ok := number(b, i)
	if !ok || !integer {
		return 0, i, false
	}
	v, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	return v, end, err == nil
}

// parseUint is parseInt for a uint64 field.
func parseUint(b []byte, i int) (uint64, int, bool) {
	end, integer, ok := number(b, i)
	if !ok || !integer || b[i] == '-' {
		return 0, i, false
	}
	v, err := strconv.ParseUint(string(b[i:end]), 10, 64)
	return v, end, err == nil
}

// parseFloat parses a number into a float64, as encoding/json does for an
// interface value. Integers of up to 15 digits convert exactly without
// strconv; a number out of float64's range is left to encoding/json.
func parseFloat(b []byte, i int) (any, int, bool) {
	end, integer, ok := number(b, i)
	if !ok {
		return nil, i, false
	}
	if digits := b[i:end]; integer {
		neg := digits[0] == '-'
		if neg {
			digits = digits[1:]
		}
		if len(digits) <= 15 {
			var n int64
			for _, c := range digits {
				n = n*10 + int64(c-'0')
			}
			f := float64(n)
			if neg {
				f = -f
			}
			return f, end, true
		}
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
