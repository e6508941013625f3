package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/eventtime"
	"repro/internal/state"
)

// timerLogOp records every timer it fires; onTimer, when set, runs inside
// the callback (to register cascades or re-register).
type timerLogOp struct {
	BaseOperator
	fired   []timerEntry
	onTimer func(ts int64, ctx Context)
}

func (o *timerLogOp) OnTimer(ts int64, ctx Context) error {
	o.fired = append(o.fired, timerEntry{TS: ts, Key: ctx.Key()})
	if o.onTimer != nil {
		o.onTimer(ts, ctx)
	}
	return nil
}

// advanceTo fires the instance's timers for one watermark advance to wm.
func advanceTo(t *testing.T, in *instance, wm int64) {
	t.Helper()
	octx := &opContext{inst: in, runCtx: context.Background()}
	if err := in.emitWatermarkProgress(context.Background(), octx, wm); err != nil {
		t.Fatal(err)
	}
}

// TestTimersFireInTSKeyOrder: timers fire ordered by timestamp, then key,
// whatever order they were registered in — also when a timestamp holds the
// same keys as the last one fired, or as many different ones.
func TestTimersFireInTSKeyOrder(t *testing.T) {
	keysAt := [][]string{
		{"k0", "k1", "k2", "k3", "k4"},
		{"k0", "k1", "k2", "k3", "k4"},
		{"k0", "k1", "k2", "k3", "k9"},
		{"k0", "k1", "k10", "k3", "k9"},
		{"k1", "k3"},
		{"k0", "k1", "k2", "k3", "k4"},
	}
	var want []timerEntry
	for i, keys := range keysAt {
		for _, k := range keys {
			want = append(want, timerEntry{TS: int64(10 * (i + 1)), Key: k})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		op := &timerLogOp{}
		in := newTestInstance(t, 1, op)
		for _, i := range rng.Perm(len(want)) {
			in.timers.register(want[i].TS, want[i].Key)
		}
		in.timers.register(want[3].TS, want[3].Key) // a duplicate coalesces
		for wm := int64(10); wm <= 60; wm += 10 {
			advanceTo(t, in, wm)
		}
		if !reflect.DeepEqual(op.fired, want) {
			t.Fatalf("trial %d fired %v, want %v", trial, op.fired, want)
		}
	}
}

// TestTimerReregisteredInCallbackIsDropped: a callback re-registering a
// (ts, key) already fired in this advance is dropped, not fired again; the
// same registration in a later advance is a new timer.
func TestTimerReregisteredInCallbackIsDropped(t *testing.T) {
	op := &timerLogOp{}
	op.onTimer = func(ts int64, ctx Context) { ctx.RegisterEventTimeTimer(ts) }
	in := newTestInstance(t, 1, op)
	in.timers.register(5, "a")
	in.timers.register(5, "b")
	advanceTo(t, in, 10)
	if want := []timerEntry{{5, "a"}, {5, "b"}}; !reflect.DeepEqual(op.fired, want) {
		t.Fatalf("fired %v, want %v", op.fired, want)
	}
	if n := in.timers.pending(); n != 0 {
		t.Fatalf("%d timers pending after the advance, want 0", n)
	}
	op.onTimer = nil
	in.timers.register(5, "a")
	advanceTo(t, in, 11)
	if len(op.fired) != 3 {
		t.Fatalf("a re-registration in a later advance fired %d times in all, want 3", len(op.fired))
	}
}

// TestTimerCascadeFiresInSameAdvance: a timer a callback registers at or
// below the watermark fires before the advance returns, at the final
// watermark too.
func TestTimerCascadeFiresInSameAdvance(t *testing.T) {
	for _, wm := range []int64{100, eventtime.MaxWatermark} {
		op := &timerLogOp{}
		op.onTimer = func(ts int64, ctx Context) {
			if ctx.Key() == "a" && ts < 50 {
				ctx.RegisterEventTimeTimer(ts + 10) // a chain 10, 20, ..., 50
				ctx.(BatchContext).SetKey("z")
				ctx.RegisterEventTimeTimer(ts) // a new key at the firing ts
			}
		}
		in := newTestInstance(t, 1, op)
		in.timers.register(10, "a")
		advanceTo(t, in, wm)
		want := []timerEntry{{10, "a"}, {10, "z"}, {20, "a"}, {20, "z"}, {30, "a"}, {30, "z"}, {40, "a"}, {40, "z"}, {50, "a"}}
		if !reflect.DeepEqual(op.fired, want) {
			t.Fatalf("wm %d: fired %v, want %v", wm, op.fired, want)
		}
	}
}

// TestTimerUnregisteredDoesNotFire: a deleted timer never fires, and
// pending counts only live timers.
func TestTimerUnregisteredDoesNotFire(t *testing.T) {
	op := &timerLogOp{}
	in := newTestInstance(t, 1, op)
	ts := in.timers
	ts.register(1, "a")
	ts.register(1, "b")
	ts.register(2, "a")
	ts.register(2, "a")
	ts.unregister(1, "b")
	ts.unregister(1, "b")
	ts.unregister(7, "nope")
	if n := ts.pending(); n != 2 {
		t.Fatalf("pending %d, want 2", n)
	}
	ts.unregister(2, "a")
	if n := ts.pending(); n != 1 {
		t.Fatalf("pending %d, want 1", n)
	}
	advanceTo(t, in, 10)
	if want := []timerEntry{{1, "a"}}; !reflect.DeepEqual(op.fired, want) {
		t.Fatalf("fired %v, want %v", op.fired, want)
	}
	if n := ts.pending(); n != 0 {
		t.Fatalf("pending %d after firing, want 0", n)
	}
}

// goldenTimers is the timer set whose encoding testdata/timers_snapshot.golden
// holds; the file was written by the heap-of-entries timer service that
// preceded the timestamp buckets.
func goldenTimers() *timerService {
	ts := newTimerService()
	for i := 0; i < 64; i++ {
		n := (i * 37) % 64
		ts.register(int64(1000*(n%5)), fmt.Sprintf("k%02d", n))
	}
	for i := 0; i < 64; i += 9 {
		ts.unregister(int64(1000*(i%5)), fmt.Sprintf("k%02d", i))
	}
	return ts
}

// TestTimerSnapshotMatchesGolden pins the snapshot format: a gob stream of
// the live entries sorted by (TS, Key). gob numbers wire types per process,
// in the order they are first sent, so the bytes are compared with the
// golden entries re-encoded in this process rather than with the file's
// bytes, which carry the numbering of the process that wrote them.
func TestTimerSnapshotMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/timers_snapshot.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []timerEntry
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := gob.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	ts := goldenTimers()
	if n := ts.pending(); n != len(want) || n != 56 {
		t.Fatalf("pending %d, golden holds %d, want 56", n, len(want))
	}
	got, err := ts.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes.Bytes()) {
		t.Fatalf("timer snapshot bytes changed:\n got %x\nwant %x", got, wantBytes.Bytes())
	}
	back := newTimerService()
	if err := back.restore(raw); err != nil {
		t.Fatal(err)
	}
	again, err := back.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("restoring the golden snapshot does not round-trip")
	}
}

// TestRescaleMovesEveryTimer: a rescale from 2 to 3 instances carries every
// timer, each to the instance owning its key's group.
func TestRescaleMovesEveryTimer(t *testing.T) {
	const numGroups = 16
	store := NewMemorySnapshotStore()
	total := 0
	for i := 0; i < 2; i++ {
		ts := newTimerService()
		lo, hi := state.GroupRange(numGroups, 2, i)
		for k := 0; k < 200; k++ {
			key := fmt.Sprintf("key-%d", k)
			if g := state.KeyGroupFor(key, numGroups); g >= lo && g < hi {
				ts.register(int64(k%7)*1000, key)
				ts.register(int64(k%3)*1000, key)
			}
		}
		total += ts.pending()
		timerImg, err := ts.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := encodeInstanceSnapshot(instanceSnapshot{Timers: timerImg})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(1, fmt.Sprintf("win-%d", i), raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"win-0", "win-1"}}); err != nil {
		t.Fatal(err)
	}
	stats, err := RescaleCheckpoint(store, 1, 2, "win", 3, numGroups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timers != total {
		t.Fatalf("rescale moved %d timers, want %d", stats.Timers, total)
	}
	moved := 0
	for i := 0; i < 3; i++ {
		raw, err := store.Load(2, fmt.Sprintf("win-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := decodeInstanceSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		ts := newTimerService()
		if err := ts.restore(snap.Timers); err != nil {
			t.Fatal(err)
		}
		lo, hi := state.GroupRange(numGroups, 3, i)
		ts.forEach(func(e timerEntry) {
			if g := state.KeyGroupFor(e.Key, numGroups); g < lo || g >= hi {
				t.Errorf("timer %v landed on instance %d, which owns groups [%d,%d)", e, i, lo, hi)
			}
		})
		moved += ts.pending()
	}
	if moved != total {
		t.Fatalf("new instances hold %d timers, want %d", moved, total)
	}
}
