package main

import (
	"math/rand"
	"strconv"

	"repro/internal/core"
)

// recordsPerMs fixes how event time advances: one millisecond per 100
// records, at any replay speed, so the work per record (windows opened,
// timers fired, watermarks sent) does not depend on how fast a phase runs.
const recordsPerMs = 100

// payload is the pre-boxed value every ring event points at: the number a
// window sums and the slot the record came from, so a consumer can rebuild
// the record's index from (timestamp, slot) and check it against the ring.
type payload struct {
	v    float64
	slot uint32
}

// ring is the pre-built input: events are replayed lap after lap with an
// advancing event-time offset, so the generator allocates nothing per record.
type ring struct {
	events   []core.Event // Timestamp is the ring-relative millisecond
	keyIdx   []uint32     // dense key number per slot, for the reference fold
	keys     []string     // key number -> key string
	payloads []payload    // what the events' values point at
}

// keyName is the key string of key number i; keyNumber inverts it.
func keyName(i int) string { return "k" + strconv.Itoa(i) }

func keyNumber(key string) (int, bool) {
	if len(key) < 2 || key[0] != 'k' {
		return 0, false
	}
	n, err := strconv.Atoi(key[1:])
	return n, err == nil && n >= 0
}

// newRing generates size events over nkeys keys from seed. Uniform keys are
// i.i.d.; bursty keys are zipf(1.2) ranks arriving in runs of geometric
// length with mean 16. Values are whole numbers in [1, 1000], so float sums
// are exact in any order and a reference fold can demand equality.
//
// old, when it is a ring of the same shape that nothing uses any more, gives
// its memory to the new ring: every phase of a run generates its input anew,
// and the time that takes should not depend on whether the allocator had
// handed the previous phase's pages back to the system in between.
func newRing(seed int64, size, nkeys int, bursty bool, old *ring) *ring {
	rng := rand.New(rand.NewSource(seed))
	r := old
	if r == nil || len(r.events) != size || len(r.keys) != nkeys {
		r = &ring{
			events:   make([]core.Event, size),
			keyIdx:   make([]uint32, size),
			keys:     make([]string, nkeys),
			payloads: make([]payload, size),
		}
	}
	for i := range r.keys {
		r.keys[i] = keyName(i)
	}
	var zipf *rand.Zipf
	if bursty {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(nkeys-1))
	}
	payloads := r.payloads
	cur := uint32(0)
	for i := range r.events {
		switch {
		case !bursty:
			cur = uint32(rng.Intn(nkeys))
		case i == 0 || rng.Intn(16) == 0:
			cur = uint32(zipf.Uint64())
		}
		payloads[i] = payload{v: float64(1 + rng.Intn(1000)), slot: uint32(i)}
		r.keyIdx[i] = cur
		r.events[i] = core.Event{
			Key:       r.keys[cur],
			Timestamp: int64(i / recordsPerMs),
			Value:     &payloads[i],
		}
	}
	return r
}

// lapMs is the event time one lap of the ring covers.
func (r *ring) lapMs() int64 { return int64(len(r.events) / recordsPerMs) }

// fill copies the events for record indices [from, from+len(buf)) into buf,
// shifting each timestamp by its lap's offset.
func (r *ring) fill(buf []core.Event, from int64) {
	size := int64(len(r.events))
	lap, slot := from/size, from%size
	off := lap * r.lapMs()
	for i := range buf {
		buf[i] = r.events[slot]
		buf[i].Timestamp += off
		if slot++; slot == size {
			slot, off = 0, off+r.lapMs()
		}
	}
}

// index rebuilds a record's index from its event time and ring slot.
func (r *ring) index(ts int64, slot uint32) int64 {
	return ts/r.lapMs()*int64(len(r.events)) + int64(slot)
}

// value and key return what record idx carries.
func (r *ring) value(idx int64) float64 {
	return r.events[idx%int64(len(r.events))].Value.(*payload).v
}

func (r *ring) key(idx int64) string {
	return r.events[idx%int64(len(r.events))].Key
}
