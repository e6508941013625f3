package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/cql"
)

// FuzzDecodeFrame holds the client's reflection-free decoder to the
// definition of the wire format, json.Unmarshal into a Frame: the same
// error-ness and deeply equal frames, whether the fast path decodes a body
// or hands it to encoding/json — and a body the fast path accepts is one
// encoding/json accepts too. The committed corpus adds the edges: escapes,
// invalid UTF-8, U+2028, exponents, -0, ±2^53, 1e400, duplicate and
// case-variant keys, nulls, nested and array cells, trailing bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b[4:])
	}
	dec := new(frameDecoder) // shared, so cached names carry across inputs
	f.Fuzz(func(t *testing.T, body []byte) {
		var want Frame
		wantErr := json.Unmarshal(body, &want)
		var fast Frame
		if dec.fast(body, &fast) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as\n %#v\nencoding/json as\n %#v", body, fast, want)
			}
		}
		var got Frame
		err := dec.decode(body, &got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode %q: error %v, encoding/json %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q gave\n %#v\nencoding/json\n %#v", body, got, want)
		}
	})
}

// Every frame a server puts on the wire for a subscription or a point read
// decodes on the fast path, to what encoding/json decodes it to. Only rows
// with nested cells — which the encoder hands to encoding/json too — and
// the list replies (keys, tables, describe) may take the fallback.
func TestWireFramesDecodeWithoutFallback(t *testing.T) {
	dec := new(frameDecoder)
	check := func(b []byte, mayFallBack bool) {
		t.Helper()
		body := b[4:]
		var want, got Frame
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if !dec.fast(body, &got) {
			if mayFallBack {
				return
			}
			t.Fatalf("frame took the fallback: %q", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: fast path\n %#v\nencoding/json\n %#v", body, got, want)
		}
	}
	frames := 0
	genDeltas(20000, func(d cql.Delta, id, _ string) {
		b, err := appendDelta(nil, id, d)
		if err != nil {
			return // NaN or ±Inf: the pump sends an error frame instead
		}
		nested := false
		for _, v := range d.Vals {
			switch v.(type) {
			case []any, []string, map[string]any:
				nested = true
			}
		}
		check(b, nested)
		frames++
	})
	if frames < 10000 {
		t.Fatalf("only %d of 20000 generated deltas were encodable", frames)
	}
	frame := func(f *Frame) []byte {
		b, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, wm := range []int64{math.MinInt64, -1, 0, 1, 1 << 53, math.MaxInt64} {
		for _, shed := range []int64{0, 1, 1 << 40} {
			check(frame(&Frame{Op: "watermark", ID: "raw-a", Watermark: wm, Shed: shed}), false)
		}
	}
	for _, f := range []*Frame{
		{Op: "eos", ID: "raw-a"},
		{Op: "eos", ID: "q<1>", Shed: 12},
		{Op: "error", ID: "sums", Code: CodeSlowConsumer, Err: "subscription fell behind with disconnect policy"},
		{Op: "error", Code: CodeShutdown, Err: "server shutting down"},
		{Seq: 7, Op: "error", ID: "q", Code: CodeSyntax, Err: "cql: parse error near \"<SELEKT>\"\n\tat 1:1"},
		{Seq: 1, Op: "subscribe", ID: "raw-a"},
		{Seq: 2, Op: "unsubscribe", ID: "raw-a"},
		{Seq: 3, Op: "ping"},
		{Seq: math.MaxUint64, Op: "get"},
		{Seq: 4, Op: "get", Found: true, Value: 12.5},
		{Seq: 5, Op: "get", Found: true, Value: int64(1 << 53)},
		{Seq: 6, Op: "get", Found: true, Value: "k <v>"},
		{Seq: 7, Op: "get", Found: true, Value: true},
		{Seq: 8, Op: "get", Found: true, Value: math.Copysign(0, -1)},
	} {
		check(frame(f), false)
	}
	check(frame(&Frame{Seq: 9, Op: "keys", Found: true, Keys: []string{"a"}}), true)
}

// BenchmarkDecodeDelta decodes one serve-fanout delta frame.
func BenchmarkDecodeDelta(b *testing.B) {
	body, err := appendDelta(nil, "raw-a", cql.Delta{Ts: 1234567, Cols: []string{"i", "k", "v"},
		Vals: []any{float64(987654), "k1234", 42.125}})
	if err != nil {
		b.Fatal(err)
	}
	body = body[4:]
	b.Run("fast", func(b *testing.B) {
		dec := new(frameDecoder)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f Frame
			if err := dec.decode(body, &f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f Frame
			if err := json.Unmarshal(body, &f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
