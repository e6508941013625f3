package serve

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cql"
)

// genDeltas calls each with n generated deltas, their subscription ids and
// kinds: strings that need escaping or replacing, floats JSON writes in
// either notation or cannot carry, integers beyond float64's exact range,
// and cell types the append-style encoder leaves to encoding/json.
func genDeltas(n int, each func(d cql.Delta, id, kind string)) {
	strs := []string{"", "k1", "a\"b\\c", "<script>&amp;</script>", "tab\there\nnl\r\b\f\x00\x1f\x7f",
		"héllo wörld", "日本語", "\u2028\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80", "emoji 🙂", "a;k=i:1"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 1e20, 1e21, 1.2345e21, 1e-6, 9.99e-7, 1e-7,
		-4.2e-9, 1e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2, 3.0000000000000004, 100, 2.5e-5,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
	rng := rand.New(rand.NewSource(1))
	cell := func() any {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return rng.Intn(2) == 0
		case 2:
			return ints[rng.Intn(len(ints))]
		case 3:
			return strs[rng.Intn(len(strs))]
		case 4:
			return floats[rng.Intn(len(floats))]
		case 5:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 6:
			return float64(rng.Intn(1 << 20))
		}
		// Types the encoder leaves to encoding/json.
		return []any{int(3), []string{"x"}, map[string]any{"n": 1.5}, float32(2.5), uint8(7)}[rng.Intn(5)]
	}
	for i := 0; i < n; i++ {
		d := cql.Delta{Ts: []int64{0, 1, -5, 1 << 40, int64(i)}[rng.Intn(5)], Kind: cql.OutputKind(rng.Intn(2))}
		seen := map[string]bool{}
		for n := rng.Intn(5); n > 0; n-- {
			if c := strs[rng.Intn(len(strs))]; !seen[c] {
				seen[c] = true
				d.Cols = append(d.Cols, c)
			}
		}
		sort.Strings(d.Cols)
		for range d.Cols {
			d.Vals = append(d.Vals, cell())
		}
		id := []string{"", "raw-a", "q<1>"}[rng.Intn(3)]
		kind := "insert"
		if d.Kind == cql.Delete {
			kind = "delete"
		}
		each(d, id, kind)
	}
}

// The append-style encoder is a second implementation of a wire format whose
// definition is json.Marshal(&Frame{...}): it must agree byte for byte, and
// step aside for what it does not handle.
func TestAppendDeltaEqualsMarshal(t *testing.T) {
	genDeltas(20000, func(d cql.Delta, id, kind string) {
		prefix := []byte("earlier frames")
		want, wantErr := appendFrame(prefix, &Frame{Op: "delta", ID: id, Kind: kind, Ts: d.Ts, Row: d.Row()})
		got, gotErr := appendDelta(prefix, id, d)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("delta %+v: errors differ: marshal %v, append %v", d, wantErr, gotErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delta %+v:\n append  %q\n marshal %q", d, got, want)
		}
	})
}

// seedFrames is one length-prefixed frame of every request op and every
// kind of server frame.
func seedFrames(tb testing.TB) [][]byte {
	var out [][]byte
	frame := func(v any) {
		b, err := appendFrame(nil, v)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	for _, req := range []*Request{
		{Seq: 1, Op: "subscribe", ID: "q", Query: "ISTREAM (SELECT k, v FROM s [NOW])", Buffer: 8, Policy: "disconnect"},
		{Seq: 2, Op: "unsubscribe", ID: "q"},
		{Seq: 3, Op: "get", Table: "sums", Key: "k1"},
		{Seq: 4, Op: "keys", Table: "sums"},
		{Seq: 5, Op: "tables"},
		{Seq: 6, Op: "describe"},
		{Seq: 7, Op: "ping"},
	} {
		frame(req)
	}
	for _, fr := range []*Frame{
		{Seq: 1, Op: "subscribe", ID: "q"},
		{Seq: 3, Op: "get", Found: true, Value: 12.5},
		{Seq: 4, Op: "keys", Keys: []string{"a", "b"}, Found: true},
		{Seq: 6, Op: "describe", Streams: []string{"s"}, Tables: []string{"sums"}},
		{Op: "delta", ID: "q", Kind: "insert", Ts: 10, Row: cql.Row{"k": "k1", "v": 2.0, "i": int64(3), "b": true, "n": nil}},
		{Op: "watermark", ID: "q", Watermark: 99, Shed: 4},
		{Op: "eos", ID: "q", Shed: 4},
		{Seq: 9, Op: "error", ID: "q", Code: CodeSyntax, Err: "cql: parse error"},
	} {
		frame(fr)
	}
	return out
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader on both sides of
// the protocol: a length prefix beyond maxFrame, a zero-length or truncated
// body and wrong JSON types are errors, never a panic or an allocation the
// prefix alone asked for; what does decode, re-encodes and decodes again to
// the same frame.
func FuzzReadFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                                         // truncated prefix
	f.Add([]byte{0, 0, 0, 0})                                      // zero-length body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})                // length beyond maxFrame
	f.Add([]byte{0, 0x10, 0, 1, '{', '}'})                         // just beyond it
	f.Add([]byte{0, 0, 0, 9, '{', '"', 's', 'e'})                  // truncated body
	f.Add(append([]byte{0, 0, 0, 21}, `{"seq":"1","op":[2]}}`...)) // wrong types
	f.Add(append([]byte{0, 0, 0, 15}, `{"row":[1,2,3]}`...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		for _, v := range []any{&Request{}, &Frame{}} {
			r := bytes.NewReader(data)
			var err error
			if buf, err = readFrameBuf(r, buf, v); err != nil {
				continue
			}
			if cap(buf) > maxFrame || len(buf) > len(data) {
				t.Fatalf("read a %d-byte body (cap %d) from %d bytes", len(buf), cap(buf), len(data))
			}
			again, err := appendFrame(nil, v)
			if err != nil {
				t.Fatalf("decoded %+v does not re-encode: %v", v, err)
			}
			var back any = &Request{}
			if _, ok := v.(*Frame); ok {
				back = &Frame{}
			}
			if err := readFrame(bytes.NewReader(again), back); err != nil {
				t.Fatalf("re-encoded frame %q does not decode: %v", again, err)
			}
			if third, _ := appendFrame(nil, back); !bytes.Equal(third, again) {
				t.Fatalf("frame does not round-trip: %q then %q", again, third)
			}
		}
	})
}
