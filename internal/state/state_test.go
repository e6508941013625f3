package state

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/eventtime"
)

func TestKeyGroupForStableAndInRange(t *testing.T) {
	check := func(key string) bool {
		g := KeyGroupFor(key, DefaultKeyGroups)
		return g >= 0 && g < DefaultKeyGroups && g == KeyGroupFor(key, DefaultKeyGroups)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRangePartitionsExactly(t *testing.T) {
	// Property: for any parallelism, the group ranges tile [0, numGroups)
	// without gaps or overlaps.
	for par := 1; par <= 130; par++ {
		covered := make([]bool, DefaultKeyGroups)
		for i := 0; i < par; i++ {
			s, e := GroupRange(DefaultKeyGroups, par, i)
			for g := s; g < e; g++ {
				if covered[g] {
					t.Fatalf("par=%d: group %d covered twice", par, g)
				}
				covered[g] = true
			}
		}
		for g, c := range covered {
			if !c {
				t.Fatalf("par=%d: group %d not covered", par, g)
			}
		}
	}
}

func testBackendCRUD(t *testing.T, b Backend) {
	t.Helper()
	b.SetCurrentKey("alice")
	v := b.Value("balance")
	if _, ok := v.Get(); ok {
		t.Fatal("empty state should be absent")
	}
	v.Set(int64(100))
	got, ok := v.Get()
	if !ok || got.(int64) != 100 {
		t.Fatalf("value get: %v %v", got, ok)
	}

	// Different key sees different state.
	b.SetCurrentKey("bob")
	if _, ok := v.Get(); ok {
		t.Fatal("state leaked across keys")
	}
	v.Set(int64(7))

	b.SetCurrentKey("alice")
	got, _ = v.Get()
	if got.(int64) != 100 {
		t.Fatal("alice's state clobbered")
	}
	v.Clear()
	if _, ok := v.Get(); ok {
		t.Fatal("clear did not remove value")
	}

	// List state.
	l := b.List("events")
	l.Append("a")
	l.Append("b")
	if items := l.Get(); len(items) != 2 || items[0] != "a" {
		t.Fatalf("list state: %v", items)
	}
	l.Clear()
	if len(l.Get()) != 0 {
		t.Fatal("list clear failed")
	}

	// Map state.
	m := b.Map("attrs")
	m.Put("x", int64(1))
	m.Put("y", int64(2))
	if val, ok := m.Get("x"); !ok || val.(int64) != 1 {
		t.Fatalf("map get: %v %v", val, ok)
	}
	if keys := m.Keys(); len(keys) != 2 {
		t.Fatalf("map keys: %v", keys)
	}
	m.Remove("x")
	if _, ok := m.Get("x"); ok {
		t.Fatal("map remove failed")
	}

	// Reducing state.
	r := b.Reducing("sum", func(a, b any) any { return a.(int64) + b.(int64) })
	r.Add(int64(3))
	r.Add(int64(4))
	if val, ok := r.Get(); !ok || val.(int64) != 7 {
		t.Fatalf("reducing: %v %v", val, ok)
	}

	testMapKeysSnapshot(t, b)
}

// testMapKeysSnapshot pins MapState.Keys() snapshot semantics: the window
// operator removes entries (and session merges add merged ones) while
// ranging over Keys(), so a live view would skip or corrupt iteration.
func testMapKeysSnapshot(t *testing.T, b Backend) {
	t.Helper()
	b.SetCurrentKey("snapshot-key")
	m := b.Map("windows")
	const n = 8
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("w%d", i), int64(i))
	}
	keys := m.Keys()
	if len(keys) != n {
		t.Fatalf("keys before mutation: want %d, got %v", n, keys)
	}
	visited := 0
	for _, k := range keys {
		// Mutate mid-iteration the way addSession/OnTimer do: remove the
		// visited entry and insert a new one.
		m.Remove(k)
		m.Put("merged-"+k, int64(99))
		visited++
	}
	if visited != n {
		t.Fatalf("iteration skipped entries: visited %d of %d", visited, n)
	}
	if len(keys) != n {
		t.Fatalf("snapshot mutated under iteration: %v", keys)
	}
	for i, k := range keys {
		if k == "" {
			t.Fatalf("snapshot entry %d zeroed by mutation", i)
		}
		if _, ok := m.Get(k); ok {
			t.Fatalf("removed key %s still present", k)
		}
	}
	after := m.Keys()
	if len(after) != n {
		t.Fatalf("post-mutation keys: want %d merged entries, got %v", n, after)
	}
	for _, k := range after {
		m.Remove(k)
	}
}

func TestMemoryBackendCRUD(t *testing.T) {
	testBackendCRUD(t, NewMemoryBackend(0))
}

func TestLSMBackendCRUD(t *testing.T) {
	b, err := NewLSMBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Dispose()
	testBackendCRUD(t, b)
}

func TestChangelogBackendCRUD(t *testing.T) {
	testBackendCRUD(t, NewChangelogBackend(0, NewChangelog()))
}

// TestMapRemoveLastEntryDropsKey: a key whose map state has been emptied
// entry by entry (the window operator's fire path) leaves nothing behind in
// the next image.
func TestMapRemoveLastEntryDropsKey(t *testing.T) {
	lsm, err := NewLSMBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Dispose()
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"memory", NewMemoryBackend(0)},
		{"lsm", lsm},
		{"changelog", NewChangelogBackend(0, NewChangelog())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 10_000; i++ {
				tc.b.SetCurrentKey(fmt.Sprintf("k%d", i))
				m := tc.b.Map("windows")
				m.Put("w", int64(i))
				m.Remove("w")
				if keys := m.Keys(); len(keys) != 0 {
					t.Fatalf("k%d: keys %v after removing the only entry", i, keys)
				}
			}
			data, err := tc.b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			img, err := DecodeImage(data)
			if err != nil {
				t.Fatal(err)
			}
			left := 0
			for _, names := range img.Groups {
				for _, keys := range names {
					left += len(keys)
				}
			}
			if left != 0 {
				t.Fatalf("%d keys left in a %d-byte image after every map was emptied", left, len(data))
			}
		})
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	src := NewMemoryBackend(0)
	for i := 0; i < 200; i++ {
		src.SetCurrentKey(fmt.Sprintf("k%d", i))
		src.Value("v").Set(int64(i))
	}
	img, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMemoryBackend(0)
	if err := dst.Restore(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		dst.SetCurrentKey(fmt.Sprintf("k%d", i))
		got, ok := dst.Value("v").Get()
		if !ok || got.(int64) != int64(i) {
			t.Fatalf("restore lost k%d: %v %v", i, got, ok)
		}
	}
}

func TestSnapshotPortableAcrossBackends(t *testing.T) {
	// A memory snapshot restores into an LSM backend and vice versa —
	// guaranteed by the shared Image format.
	mem := NewMemoryBackend(0)
	mem.SetCurrentKey("k1")
	mem.Value("v").Set("hello")
	img, err := mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lsmB, err := NewLSMBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lsmB.Dispose()
	if err := lsmB.Restore(img); err != nil {
		t.Fatal(err)
	}
	lsmB.SetCurrentKey("k1")
	got, ok := lsmB.Value("v").Get()
	if !ok || got.(string) != "hello" {
		t.Fatalf("cross-backend restore: %v %v", got, ok)
	}

	img2, err := lsmB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mem2 := NewMemoryBackend(0)
	if err := mem2.Restore(img2); err != nil {
		t.Fatal(err)
	}
	mem2.SetCurrentKey("k1")
	if got, ok := mem2.Value("v").Get(); !ok || got.(string) != "hello" {
		t.Fatalf("lsm->mem restore: %v %v", got, ok)
	}
}

func TestExportImportGroups(t *testing.T) {
	src := NewMemoryBackend(0)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		src.SetCurrentKey(keys[i])
		src.Value("v").Set(int64(i))
	}
	// Export only the first half of the groups.
	var half []int
	for g := 0; g < DefaultKeyGroups/2; g++ {
		half = append(half, g)
	}
	data, err := src.ExportGroups(half)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMemoryBackend(0)
	if err := dst.ImportGroups(data); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		dst.SetCurrentKey(k)
		_, ok := dst.Value("v").Get()
		inHalf := KeyGroupFor(k, DefaultKeyGroups) < DefaultKeyGroups/2
		if ok != inHalf {
			t.Fatalf("key %s (group %d): present=%v want %v", k, KeyGroupFor(k, DefaultKeyGroups), ok, inHalf)
		}
		if ok {
			got, _ := dst.Value("v").Get()
			if got.(int64) != int64(i) {
				t.Fatalf("wrong value for %s", k)
			}
		}
	}
}

func TestFilterImage(t *testing.T) {
	src := NewMemoryBackend(0)
	for i := 0; i < 50; i++ {
		src.SetCurrentKey(fmt.Sprintf("k%d", i))
		src.Value("v").Set(int64(i))
	}
	full, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := FilterImage(full, func(g int) bool { return g%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	img, err := DecodeImage(filtered)
	if err != nil {
		t.Fatal(err)
	}
	for g := range img.Groups {
		if g%2 != 0 {
			t.Fatalf("filter kept group %d", g)
		}
	}
}

func TestImportGroupMismatchRejected(t *testing.T) {
	a := NewMemoryBackend(64)
	a.SetCurrentKey("x")
	a.Value("v").Set(int64(1))
	img, _ := a.Snapshot()
	b := NewMemoryBackend(128)
	if err := b.ImportGroups(img); err == nil {
		t.Fatal("mismatched key-group counts must be rejected")
	}
}

func TestChangelogReplayRebuildsState(t *testing.T) {
	log := NewChangelog()
	b := NewChangelogBackend(0, log)
	for i := 0; i < 100; i++ {
		b.SetCurrentKey(fmt.Sprintf("k%d", i%10))
		b.Value("v").Set(int64(i))
	}
	b.SetCurrentKey("k3")
	b.Value("v").Clear()

	rec := RecoverFromLog(0, log)
	for i := 0; i < 10; i++ {
		rec.SetCurrentKey(fmt.Sprintf("k%d", i))
		got, ok := rec.Value("v").Get()
		if i == 3 {
			if ok {
				t.Fatal("cleared key resurrected by replay")
			}
			continue
		}
		want := int64(90 + i) // last write per key
		if !ok || got.(int64) != want {
			t.Fatalf("replay k%d: got %v/%v want %d", i, got, ok, want)
		}
	}
}

func TestChangelogCompaction(t *testing.T) {
	log := NewChangelog()
	b := NewChangelogBackend(0, log)
	for i := 0; i < 1000; i++ {
		b.SetCurrentKey(fmt.Sprintf("k%d", i%5))
		b.Value("v").Set(int64(i))
	}
	if log.Len() != 1000 {
		t.Fatalf("log length: want 1000, got %d", log.Len())
	}
	log.Compact()
	if log.Len() != 5 {
		t.Fatalf("compacted length: want 5, got %d", log.Len())
	}
	rec := RecoverFromLog(0, log)
	rec.SetCurrentKey("k4")
	got, ok := rec.Value("v").Get()
	if !ok || got.(int64) != 999 {
		t.Fatalf("compacted replay: %v %v", got, ok)
	}
}

func TestChangelogEncodeDecode(t *testing.T) {
	log := NewChangelog()
	log.Append(ChangelogOp{Name: "v", Key: "a", Value: int64(1)})
	log.Append(ChangelogOp{Name: "v", Key: "b", Delete: true})
	data, err := log.Encode()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := DecodeChangelog(data)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 2 {
		t.Fatalf("decoded length: %d", log2.Len())
	}
}

// TestLSMBackendMatchesMemory is the cross-backend property test: random
// operations against both backends must read identically.
func TestLSMBackendMatchesMemory(t *testing.T) {
	lsmB, err := NewLSMBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lsmB.Dispose()
	mem := NewMemoryBackend(0)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(50))
		lsmB.SetCurrentKey(key)
		mem.SetCurrentKey(key)
		switch rng.Intn(4) {
		case 0, 1:
			v := int64(rng.Intn(1000))
			lsmB.Value("v").Set(v)
			mem.Value("v").Set(v)
		case 2:
			lsmB.Value("v").Clear()
			mem.Value("v").Clear()
		case 3:
			gl, okl := lsmB.Value("v").Get()
			gm, okm := mem.Value("v").Get()
			if okl != okm || (okl && gl.(int64) != gm.(int64)) {
				t.Fatalf("iter %d key %s: lsm=%v/%v mem=%v/%v", i, key, gl, okl, gm, okm)
			}
		}
	}
}

func TestForEachKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"memory", NewMemoryBackend(0)},
		{"changelog", NewChangelogBackend(0, NewChangelog())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				tc.b.SetCurrentKey(fmt.Sprintf("k%d", i))
				tc.b.Value("v").Set(int64(i))
			}
			seen := map[string]bool{}
			tc.b.ForEachKey("v", func(k string, v any) bool {
				seen[k] = true
				return true
			})
			if len(seen) != 20 {
				t.Fatalf("ForEachKey visited %d keys, want 20", len(seen))
			}
		})
	}
}

func TestTTLExpiresValues(t *testing.T) {
	clock := eventtime.NewVirtualClock(0)
	b := NewMemoryBackend(0)
	b.SetCurrentKey("k")
	v := NewTTLValue(b.Value("v"), 100, clock)
	v.Set("fresh")
	if got, ok := v.Get(); !ok || got.(string) != "fresh" {
		t.Fatalf("fresh read failed: %v %v", got, ok)
	}
	clock.Advance(99)
	if _, ok := v.Get(); !ok {
		t.Fatal("expired too early")
	}
	clock.Advance(1)
	if _, ok := v.Get(); ok {
		t.Fatal("value did not expire at TTL")
	}
	// Expired read lazily clears the underlying state.
	if _, ok := b.Value("v").Get(); ok {
		t.Fatal("expired entry not cleaned up")
	}
	// Re-set restarts the clock.
	v.Set("again")
	clock.Advance(50)
	if _, ok := v.Get(); !ok {
		t.Fatal("re-set value expired prematurely")
	}
}

type profileV0 struct{ Name string }
type profileV1 struct {
	Name  string
	Email string
}

func init() {
	RegisterType(profileV0{})
	RegisterType(profileV1{})
}

func TestSchemaVersioningMigratesOnRead(t *testing.T) {
	reg := NewSchemaRegistry()
	if err := reg.Register("profile", 0); err != nil {
		t.Fatal(err)
	}
	b := NewMemoryBackend(0)
	b.SetCurrentKey("u1")
	v0 := NewVersionedValue(b.Value("profile"), "profile", reg)
	v0.Set(profileV0{Name: "ada"})

	// Application upgrades: register v1 with a migration.
	if err := reg.Register("profile", 1); err != nil {
		t.Fatal(err)
	}
	reg.AddMigration("profile", 0, func(old any) (any, error) {
		p := old.(profileV0)
		return profileV1{Name: p.Name, Email: p.Name + "@example.com"}, nil
	})

	v1 := NewVersionedValue(b.Value("profile"), "profile", reg)
	got, ok := v1.Get()
	if !ok {
		t.Fatal("migrated read failed")
	}
	p := got.(profileV1)
	if p.Name != "ada" || p.Email != "ada@example.com" {
		t.Fatalf("migration wrong: %+v", p)
	}
	// Migration is persisted: raw payload is now at v1.
	got2, _ := v1.Get()
	if got2.(profileV1).Email != "ada@example.com" {
		t.Fatal("second read inconsistent")
	}
}

func TestSchemaVersioningMissingMigration(t *testing.T) {
	reg := NewSchemaRegistry()
	reg.Register("s", 0)
	b := NewMemoryBackend(0)
	b.SetCurrentKey("k")
	v := NewVersionedValue(b.Value("s"), "s", reg)
	v.Set("old")
	reg.Register("s", 2) // skip ahead with no migrations
	if _, ok := v.Get(); ok {
		t.Fatal("read should fail without a migration chain")
	}
	if v.LastError == nil {
		t.Fatal("missing migration should record an error")
	}
}

func TestSchemaDowngradeRejected(t *testing.T) {
	reg := NewSchemaRegistry()
	reg.Register("s", 3)
	if err := reg.Register("s", 2); err == nil {
		t.Fatal("downgrade accepted")
	}
	if len(reg.Versions()) != 1 {
		t.Fatalf("versions: %v", reg.Versions())
	}
}

func TestLSMBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := NewLSMBackend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCurrentKey("k")
	b.Value("v").Set(int64(42))
	if err := b.Dispose(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewLSMBackend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Dispose()
	b2.SetCurrentKey("k")
	got, ok := b2.Value("v").Get()
	if !ok || got.(int64) != 42 {
		t.Fatalf("state lost across reopen: %v %v", got, ok)
	}
}
