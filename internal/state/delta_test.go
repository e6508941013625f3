package state

import (
	"fmt"
	"testing"
)

// snapshotEqual asserts two backends serialize to identical images.
func snapshotEqual(t *testing.T, a, b Backend) {
	t.Helper()
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := DecodeImage(sa)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := DecodeImage(sb)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ia) != fmt.Sprint(ib) {
		t.Fatalf("state diverged:\n a=%v\n b=%v", ia, ib)
	}
}

func TestMemoryDeltaRoundtrip(t *testing.T) {
	b := NewMemoryBackend(8)
	b.SetDeltaTracking(true)
	for i := 0; i < 50; i++ {
		b.SetCurrentKey(fmt.Sprintf("k%02d", i))
		b.Value("count").Set(int64(i))
	}
	full, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b.MarkFull(1)

	// Mutate a small subset: update, delete, and a map write (which bypasses
	// the central put path).
	b.SetCurrentKey("k03")
	b.Value("count").Set(int64(1003))
	b.SetCurrentKey("k07")
	b.Value("count").Clear()
	b.SetCurrentKey("k09")
	b.Map("seen").Put("x", int64(9))

	delta, ok, err := b.SnapshotDelta(1, 2)
	if err != nil || !ok {
		t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
	}
	ops, err := DecodeDeltaOps(delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("want 3 delta ops, got %d: %v", len(ops), ops)
	}

	restored := NewMemoryBackend(8)
	if err := restored.Restore(full); err != nil {
		t.Fatal(err)
	}
	if err := restored.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, b, restored)
}

func TestMemoryDeltaChain(t *testing.T) {
	b := NewMemoryBackend(4)
	b.SetDeltaTracking(true)
	write := func(key string, v int64) {
		b.SetCurrentKey(key)
		b.Value("v").Set(v)
	}
	write("a", 1)
	full, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b.MarkFull(1)

	write("b", 2)
	d1, ok, err := b.SnapshotDelta(1, 2)
	if err != nil || !ok {
		t.Fatalf("delta 2: ok=%v err=%v", ok, err)
	}
	write("a", 10)
	write("c", 3)
	d2, ok, err := b.SnapshotDelta(2, 3)
	if err != nil || !ok {
		t.Fatalf("delta 3: ok=%v err=%v", ok, err)
	}
	ops2, _ := DecodeDeltaOps(d2)
	if len(ops2) != 2 {
		t.Fatalf("delta 3 must only carry changes since checkpoint 2, got %v", ops2)
	}

	restored := NewMemoryBackend(4)
	if err := restored.Restore(full); err != nil {
		t.Fatal(err)
	}
	for _, d := range [][]byte{d1, d2} {
		if err := restored.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	snapshotEqual(t, b, restored)
}

func TestDeltaUnknownBaseFallsBack(t *testing.T) {
	b := NewMemoryBackend(4)
	b.SetDeltaTracking(true)
	b.SetCurrentKey("k")
	b.Value("v").Set(int64(1))
	if _, ok, err := b.SnapshotDelta(99, 100); ok || err != nil {
		t.Fatalf("delta from unknown base must report ok=false (ok=%v err=%v)", ok, err)
	}
	// Tracking off entirely: same contract.
	off := NewMemoryBackend(4)
	if _, ok, _ := off.SnapshotDelta(1, 2); ok {
		t.Fatal("delta with tracking off must report ok=false")
	}
}

func TestDeltaSublinearInTotalState(t *testing.T) {
	const total, changed = 5000, 10
	b := NewMemoryBackend(16)
	b.SetDeltaTracking(true)
	for i := 0; i < total; i++ {
		b.SetCurrentKey(fmt.Sprintf("key-%05d", i))
		b.Value("v").Set(int64(i))
	}
	full, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b.MarkFull(1)
	for i := 0; i < changed; i++ {
		b.SetCurrentKey(fmt.Sprintf("key-%05d", i*37))
		b.Value("v").Set(int64(-1))
	}
	delta, ok, err := b.SnapshotDelta(1, 2)
	if err != nil || !ok {
		t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
	}
	t.Logf("%d of %d keys changed: delta %d bytes, full image %d bytes", changed, total, len(delta), len(full))
	if len(delta)*100 > len(full) {
		t.Fatalf("delta not sublinear: %d bytes for %d changed keys vs %d bytes full (%d keys)",
			len(delta), changed, len(full), total)
	}
}

func TestDeltaTrackerCoalescingOverCaptures(t *testing.T) {
	d := newDeltaTracker()
	d.touch("s", "base-epoch")
	d.markFull(1)
	// Far more epochs than the bound: old boundaries merge away.
	for i := 0; i < maxDeltaEpochs*2; i++ {
		d.touch("s", fmt.Sprintf("k%03d", i))
		d.markFull(int64(i + 2))
	}
	dirty, ok := d.capture(1, 1000)
	if !ok {
		t.Fatal("capture from retained mark must succeed")
	}
	// Over-capture is allowed; losing a change is not.
	for i := 0; i < maxDeltaEpochs*2; i++ {
		if _, present := dirty[dirtyKey{"s", fmt.Sprintf("k%03d", i)}]; !present {
			t.Fatalf("change k%03d lost to epoch coalescing", i)
		}
	}
}

func TestDeltaTrackerPrunesOnCapture(t *testing.T) {
	d := newDeltaTracker()
	d.markFull(1)
	for i := 0; i < 10; i++ {
		d.touch("s", fmt.Sprintf("k%d", i))
		if _, ok := d.capture(int64(i+1), int64(i+2)); !ok {
			t.Fatalf("capture %d failed", i)
		}
	}
	if len(d.seq) > 2 {
		t.Fatalf("epochs not pruned after capture: %d retained", len(d.seq))
	}
	if len(d.marks) > 2 {
		t.Fatalf("marks not pruned after capture: %d retained", len(d.marks))
	}
}

func TestLSMDeltaRoundtrip(t *testing.T) {
	b, err := NewLSMBackend(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Dispose()
	b.SetDeltaTracking(true)
	for i := 0; i < 50; i++ {
		b.SetCurrentKey(fmt.Sprintf("k%02d", i))
		b.Value("count").Set(int64(i))
	}
	full, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b.MarkFull(1)
	b.SetCurrentKey("k03")
	b.Value("count").Set(int64(1003))
	b.SetCurrentKey("k07")
	b.Value("count").Clear()
	delta, ok, err := b.SnapshotDelta(1, 2)
	if err != nil || !ok {
		t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
	}

	restored := NewMemoryBackend(8)
	if err := restored.Restore(full); err != nil {
		t.Fatal(err)
	}
	if err := restored.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, b, restored)
}

func TestLSMSnapshotFilesRoundtrip(t *testing.T) {
	src, err := NewLSMBackend(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Dispose()
	for i := 0; i < 200; i++ {
		src.SetCurrentKey(fmt.Sprintf("k%03d", i))
		src.Value("v").Set(int64(i))
	}
	files, err := src.SnapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("SnapshotFiles returned no files for non-empty state")
	}

	dst, err := NewLSMBackend(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Dispose()
	dst.SetCurrentKey("stale")
	dst.Value("v").Set(int64(-1))
	if err := dst.RestoreFromFiles(files); err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, src, dst)
}

func TestChangelogTruncateTo(t *testing.T) {
	log := NewChangelog()
	for i := 0; i < 10; i++ {
		log.Append(ChangelogOp{Name: "v", Key: fmt.Sprintf("k%d", i), Value: int64(i)})
	}
	if log.AbsLen() != 10 {
		t.Fatalf("AbsLen = %d, want 10", log.AbsLen())
	}
	log.TruncateTo(6)
	if log.Len() != 4 {
		t.Fatalf("Len after truncate = %d, want 4", log.Len())
	}
	if log.AbsLen() != 10 {
		t.Fatalf("AbsLen must be stable under truncation, got %d", log.AbsLen())
	}
	log.TruncateTo(3) // older position: no-op
	if log.Len() != 4 {
		t.Fatalf("truncate to older position must be a no-op, got Len=%d", log.Len())
	}
	log.TruncateTo(999) // beyond end: clamps
	if log.Len() != 0 || log.AbsLen() != 10 {
		t.Fatalf("clamped truncate: Len=%d AbsLen=%d", log.Len(), log.AbsLen())
	}
}

func TestChangelogBackendBoundedByCheckpoints(t *testing.T) {
	const rounds, perRound = 20, 15
	log := NewChangelog()
	b := NewChangelogBackend(4, log)
	b.SetDeltaTracking(true)
	b.MarkFull(0)
	maxLen := 0
	cp := int64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i))
			b.Value("v").Set(int64(r*perRound + i))
		}
		if _, ok, err := b.SnapshotDelta(cp, cp+1); !ok || err != nil {
			t.Fatalf("round %d: ok=%v err=%v", r, ok, err)
		}
		cp++
		if log.Len() > maxLen {
			maxLen = log.Len()
		}
	}
	// Without truncation the log would hold rounds*perRound records. With
	// it, at most the records of the two most recent intervals survive (the
	// base checkpoint's interval is truncated one capture later).
	if maxLen > 2*perRound {
		t.Fatalf("changelog grew unboundedly: max %d records retained (interval writes %d)",
			maxLen, perRound)
	}
	if total := rounds * perRound; log.Len() >= total {
		t.Fatalf("no truncation happened: %d records", log.Len())
	}
}
