package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// recordingTap captures everything forwarded to it; callbacks arrive
// serialised but the job's Run goroutine differs from the test's, so it
// locks anyway.
type recordingTap struct {
	mu      sync.Mutex
	records []Event
	wms     []int64
	eos     int
}

func (r *recordingTap) OnRecord(e Event) {
	r.mu.Lock()
	r.records = append(r.records, e)
	r.mu.Unlock()
}

func (r *recordingTap) OnWatermark(wm int64) {
	r.mu.Lock()
	r.wms = append(r.wms, wm)
	r.mu.Unlock()
}

func (r *recordingTap) OnEOS() {
	r.mu.Lock()
	r.eos++
	r.mu.Unlock()
}

func tapTestEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Key: fmt.Sprintf("k%d", i%4), Timestamp: int64(i * 10), Value: int64(i)}
	}
	return evs
}

func runTapPipeline(t *testing.T, cfg Config, tap Tap) *CollectSink {
	t.Helper()
	sink := NewCollectSink()
	b := NewBuilder(cfg)
	s := b.Source("src", NewSliceSourceFactory(tapTestEvents(200)), WithBoundedDisorder(0))
	if tap != nil {
		s = s.TapInto("tap", tap)
	}
	s.Sink("out", sink.Factory())
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sink
}

func TestTapObservesRecordsWatermarksEOS(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "tap", WatermarkInterval: 16},
		{Name: "tap-batched", WatermarkInterval: 16, MaxBatchSize: 8},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			tap := &recordingTap{}
			sink := runTapPipeline(t, cfg, tap)

			tap.mu.Lock()
			defer tap.mu.Unlock()
			if len(tap.records) != 200 {
				t.Fatalf("tap saw %d records, want 200", len(tap.records))
			}
			for i, e := range tap.records {
				if e.Value.(int64) != int64(i) {
					t.Fatalf("tap record %d out of order: %v", i, e)
				}
			}
			if len(tap.wms) == 0 {
				t.Fatal("tap saw no watermarks")
			}
			last := int64(-1)
			for _, wm := range tap.wms {
				if wm < last {
					t.Fatalf("tap watermarks regressed: %v", tap.wms)
				}
				last = wm
			}
			if tap.eos != 1 {
				t.Fatalf("tap EOS fired %d times, want 1", tap.eos)
			}
			// The tap is pass-through: the sink output matches an untapped run.
			plain := runTapPipeline(t, Config{Name: "plain", WatermarkInterval: 16}, nil)
			got, want := sink.SortedByTimestamp(), plain.SortedByTimestamp()
			if len(got) != len(want) {
				t.Fatalf("tapped run output %d events, untapped %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output diverged at %d: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}
