package state

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

type codecStruct struct {
	Name string
	N    int64
}

func init() { RegisterType(codecStruct{}) }

func TestValueCodecRoundtrip(t *testing.T) {
	for _, v := range []any{
		float64(0), math.Inf(-1), 3.25, int64(0), int64(math.MinInt64), int64(42),
		"", "héllo\x00|", true, false,
		[]float64{}, []float64{1, -2.5, math.MaxFloat64}, []int64{}, []int64{7, -7},
		codecStruct{Name: "gob", N: 9}, map[string]any{"a": int64(1)}, []any{"x", 2.0}, int(5),
	} {
		raw, err := encodeValue(v)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		got, err := decodeValue(raw)
		if err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("roundtrip of %#v (%T) gave %#v (%T)", v, v, got, got)
		}
	}
	if raw, _ := encodeValue(2.5); len(raw) != 9 || raw[0] != tagFloat64 {
		t.Fatalf("float64 must take the fixed 9-byte form, got % x", raw)
	}
	for _, bad := range [][]byte{nil, {}, {0}, {0xEE, 1}, {tagFloat64, 1, 2}, {tagInt64}, {tagBool, 2}, {tagBool}, {tagFloat64s, 1, 2, 3}, {tagGob, 0xff}} {
		if v, err := decodeValue(bad); err == nil {
			t.Fatalf("decode of % x must fail, got %#v", bad, v)
		}
	}
}

// FuzzValueCodec: decoding arbitrary bytes gives an error or a value; it
// never panics, and a value of one of the fixed binary forms re-encodes to
// exactly the bytes it came from (gob streams are not canonical, so for those
// only the absence of a panic is checked).
func FuzzValueCodec(f *testing.F) {
	for _, v := range []any{1.5, int64(-3), "str", true, []float64{1, 2}, []int64{3}, codecStruct{Name: "s"}, map[string]any{"k": "v"}} {
		raw, err := encodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xEE, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeValue(data)
		if err != nil || data[0] == tagGob {
			return
		}
		again, err := encodeValue(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("% x decoded to %#v, which re-encodes to % x", data, v, again)
		}
	})
}
