package window

// This file provides the batch-vectorized window kernels of experiment E10.
// §4.2 of the paper argues stream-native operations such as window
// aggregation benefit from hardware accelerators (GPUs, FPGAs; Saber, Fleet).
// We cannot ship an FPGA, but the property those results rest on — dense,
// branch-free, data-parallel batch kernels beating per-record virtual
// dispatch — is reproducible on a CPU: ScalarTumbling processes one record
// per interface call; BatchTumbling consumes contiguous batches with an
// unrolled tight loop the compiler can optimise.

// TumblingKernel computes per-window aggregates over a dense value stream
// where values arrive at a fixed rate (one per tick), so window boundaries
// are index-aligned — the layout accelerator papers assume.
type TumblingKernel interface {
	// Process consumes values and returns completed window aggregates.
	Process(values []float64) []float64
	// Flush drains the partially filled trailing window at end of stream,
	// returning its aggregate and whether any values were buffered. Without
	// it the batched path silently retains tail records forever whenever the
	// input length is not a multiple of the window size.
	Flush() (float64, bool)
	Name() string
}

// ScalarTumbling is the per-record path: one dynamic dispatch per value.
type ScalarTumbling struct {
	size int
	fn   AggFn
	acc  float64
	n    int
}

// NewScalarTumbling returns a per-record tumbling aggregator of the given
// window size in records.
func NewScalarTumbling(size int, fn AggFn) *ScalarTumbling {
	return &ScalarTumbling{size: size, fn: fn, acc: fn.Identity}
}

// Name implements TumblingKernel.
func (s *ScalarTumbling) Name() string { return "scalar" }

// Flush implements TumblingKernel.
func (s *ScalarTumbling) Flush() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	out := s.acc
	s.acc = s.fn.Identity
	s.n = 0
	return out, true
}

// Process implements TumblingKernel.
func (s *ScalarTumbling) Process(values []float64) []float64 {
	var out []float64
	for _, v := range values {
		s.acc = s.fn.Combine(s.acc, v)
		s.n++
		if s.n == s.size {
			out = append(out, s.acc)
			s.acc = s.fn.Identity
			s.n = 0
		}
	}
	return out
}

// BatchTumbling is the vectorized path: specialised monomorphic kernels with
// 4-way unrolled inner loops over full windows.
type BatchTumbling struct {
	size int
	fn   AggFn
	kind string // "sum", "min", "max" select the specialised kernel
	tail []float64
}

// NewBatchTumbling returns a batched tumbling aggregator.
func NewBatchTumbling(size int, fn AggFn) *BatchTumbling {
	return &BatchTumbling{size: size, fn: fn, kind: fn.Name}
}

// Name implements TumblingKernel.
func (b *BatchTumbling) Name() string { return "vectorized" }

// Flush implements TumblingKernel.
func (b *BatchTumbling) Flush() (float64, bool) {
	if len(b.tail) == 0 {
		return 0, false
	}
	var out float64
	switch b.kind {
	case "sum":
		out = sumKernel(b.tail)
	case "min":
		out = minKernel(inf, b.tail)
	case "max":
		out = maxKernel(-inf, b.tail)
	default:
		out = b.fn.Identity
		for _, v := range b.tail {
			out = b.fn.Combine(out, v)
		}
	}
	b.tail = b.tail[:0]
	return out, true
}

// Process implements TumblingKernel.
func (b *BatchTumbling) Process(values []float64) []float64 {
	data := values
	if len(b.tail) > 0 {
		data = append(b.tail, values...)
	}
	nWin := len(data) / b.size
	out := make([]float64, 0, nWin)
	for w := 0; w < nWin; w++ {
		seg := data[w*b.size : (w+1)*b.size]
		switch b.kind {
		case "sum":
			out = append(out, sumKernel(seg))
		case "min":
			out = append(out, minKernel(inf, seg))
		case "max":
			out = append(out, maxKernel(-inf, seg))
		default:
			acc := b.fn.Identity
			for _, v := range seg {
				acc = b.fn.Combine(acc, v)
			}
			out = append(out, acc)
		}
	}
	b.tail = append(b.tail[:0], data[nWin*b.size:]...)
	return out
}

// sumKernel is a 4-way unrolled sum with independent accumulators, breaking
// the dependency chain so the CPU can pipeline the adds.
func sumKernel(seg []float64) float64 {
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= len(seg); i += 4 {
		a0 += seg[i]
		a1 += seg[i+1]
		a2 += seg[i+2]
		a3 += seg[i+3]
	}
	acc := a0 + a1 + a2 + a3
	for ; i < len(seg); i++ {
		acc += seg[i]
	}
	return acc
}

// minKernel folds seg into acc exactly as repeated Min.Combine(acc, v) would
// — ties and NaNs included — so it is bit-identical to the per-element fold
// wherever a segment starts or ends.
func minKernel(acc float64, seg []float64) float64 {
	for _, v := range seg {
		if !(acc < v) {
			acc = v
		}
	}
	return acc
}

// maxKernel is minKernel for Max.Combine.
func maxKernel(acc float64, seg []float64) float64 {
	for _, v := range seg {
		if !(acc > v) {
			acc = v
		}
	}
	return acc
}
