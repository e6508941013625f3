// Package poolretain is golden testdata for the poolretain analyzer,
// configured with element type "poolretain.Event". It mirrors the engine's
// batched-exchange shapes: pooled *[]Event batches arrive from a sync.Pool or
// as parameters, and must not be retained past the receiving call.
package poolretain

import "sync"

// Event stands in for the engine's record type.
type Event struct {
	Key       string
	Timestamp int64
	Value     any
}

var pool = sync.Pool{New: func() any { b := make([]Event, 0, 8); return &b }}

type holder struct {
	batch   *[]Event
	slice   []Event
	elem    *Event
	batches []*[]Event
	notify  func()
}

var globalBatch *[]Event
var globalSlice []Event

// retainDirect covers the direct escape points for the pooled pointer.
func retainDirect(h *holder, ch chan *[]Event) *[]Event {
	b := pool.Get().(*[]Event)
	h.batch = b      // want `stored in struct field or package variable batch`
	globalBatch = b  // want `stored in package-level variable globalBatch`
	h.batches[0] = b // want `stored in a container that outlives the call`
	ch <- b          // want `sent on a channel`
	return b         // want `returned from the function`
}

// retainAliases covers aliases that share the batch's backing array.
func retainAliases(h *holder, b *[]Event) {
	sub := (*b)[1:3]
	h.slice = sub // want `stored in struct field or package variable slice`

	ep := &(*b)[0]
	h.elem = ep // want `stored in struct field or package variable elem`

	// append on the batch itself may return the batch's own backing array.
	grown := append(*b, Event{})
	globalSlice = grown // want `stored in package-level variable globalSlice`

	h.slice = (*b)[:0] // want `stored in struct field or package variable slice`
}

// retainClosure covers closures that outlive the call.
func retainClosure(h *holder, b *[]Event) {
	go func() { // want `captured by a goroutine`
		_ = (*b)[0]
	}()
	h.notify = func() { // want `stored in struct field or package variable notify`
		*b = (*b)[:0]
	}
}

// retainSeam covers the transfer seam: an escape the engine performs
// deliberately carries an annotation.
func retainSeam(h *holder, b *[]Event) {
	h.batch = b //streamvet:allow poolretain — ownership handoff under test
}

// safeUses exercises the permitted patterns: value copies of elements,
// copying appends into other backing arrays, writes into the batch itself,
// ordinary calls, and nil stores.
func safeUses(h *holder, b *[]Event, sink func(*[]Event)) {
	e := (*b)[0] // element copy is a value, not an alias
	_ = e

	dst := make([]Event, 0, len(*b))
	dst = append(dst, (*b)...) // copies elements into dst's backing array
	h.slice = dst

	(*b)[0] = Event{} // writing into the batch is the intended use
	*b = (*b)[:0]     // truncating the batch in place is fine

	sink(b)     // passing to a call is the ownership handoff
	pool.Put(b) // returning to the pool is the required epilogue

	h.batch = nil // clearing a field is not a retention
}

// localFlow: taint through locals is tracked, but purely local use is fine.
func localFlow(b *[]Event) int {
	alias := b
	sub := (*alias)[:1]
	return len(sub)
}

// genericPool: a sync.Pool of a non-configured element type is still pooled
// when obtained via Get.
func genericPool(h *intHolder) {
	q := intPool.Get().(*[]int)
	h.ints = q // want `stored in struct field or package variable ints`
}

var intPool = sync.Pool{New: func() any { b := make([]int, 0, 8); return &b }}

type intHolder struct{ ints *[]int }

// closureOwnParam: a closure whose OWN parameter is a pooled handle captures
// nothing — its future callers hand it fresh values — so storing the closure
// is safe.
func closureOwnParam(h *opHolder) {
	h.fold = func(b *[]Event) int { return len(*b) }
}

// --- ProcessBatch parameters: the exchange batch handed to a BatchOperator ---

type opHolder struct {
	batch []Event
	elems []*Event
	fold  func(*[]Event) int
}

func (h *opHolder) emit([]Event) {}

type retainField struct{ opHolder }

// ProcessBatch stores the batch, a sub-slice of it and an element pointer.
func (o *retainField) ProcessBatch(batch []Event, _ any) error {
	o.batch = batch                      // want `stored in struct field or package variable batch`
	o.batch = batch[2:]                  // want `stored in struct field or package variable batch`
	o.elems[0] = &batch[0]               // want `stored in a container that outlives the call`
	o.elems = append(o.elems, &batch[1]) // want `stored in struct field or package variable elems`
	return nil
}

type retainReturn struct{}

// ProcessBatch returns an alias of its batch.
func (retainReturn) ProcessBatch(batch []Event) []Event {
	return batch[:1] // want `returned from the function`
}

type retainGoroutine struct{}

// ProcessBatch captures its batch in a goroutine.
func (retainGoroutine) ProcessBatch(batch []Event) error {
	go func() { // want `captured by a goroutine`
		_ = batch[0]
	}()
	return nil
}

type safeOperator struct{ opHolder }

// ProcessBatch exercises the permitted patterns: element copies, copying
// appends into another backing array, and in-place compaction handed to a
// call.
func (o *safeOperator) ProcessBatch(batch []Event, _ any) error {
	e := batch[0] // element copy is a value, not an alias
	o.elems = append(o.elems, &e)

	o.batch = append(o.batch[:0], batch...) // copies elements into o.batch's backing array

	out := batch[:0]
	for i := range batch {
		if batch[i].Key != "" {
			out = append(out, batch[i])
		}
	}
	o.emit(out) // the call is the ownership handoff
	return nil
}

// Process takes a []Event it does not receive from the exchange: only a
// ProcessBatch parameter is pooled by signature.
func (o *safeOperator) Process(batch []Event) {
	o.batch = batch
}
