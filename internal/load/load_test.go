package load

import (
	"math"
	"testing"
)

func TestRandomShedderApproximatesFraction(t *testing.T) {
	s := NewRandomShedder(1)
	kept := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Keep(0, 0.3) {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.67 || frac > 0.73 {
		t.Fatalf("random shedder kept %.3f, want ~0.70", frac)
	}
}

func TestSemanticShedderDropsLowUtilityFirst(t *testing.T) {
	s := NewSemanticShedder(1000)
	// Warm the sample with uniform utilities.
	for i := 0; i < 1000; i++ {
		s.Keep(float64(i%100), 0)
	}
	// With 30% drop, utilities clearly above the 30th percentile survive and
	// clearly below are dropped.
	if !s.Keep(90, 0.3) {
		t.Fatal("high-utility tuple dropped")
	}
	if s.Keep(5, 0.3) {
		t.Fatal("low-utility tuple kept")
	}
}

func TestSheddingControllerActivatesOnlyUnderOverload(t *testing.T) {
	c := NewSheddingController(100, 0.95)
	for i := 0; i < 20; i++ {
		if f := c.ObserveArrivals(50); f != 0 {
			t.Fatalf("shedding under low load: %v", f)
		}
	}
	var f float64
	for i := 0; i < 20; i++ {
		f = c.ObserveArrivals(200)
	}
	if f < 0.4 || f > 0.6 {
		t.Fatalf("drop fraction under 2x overload: want ~0.525, got %v", f)
	}
}

func TestRateEstimatorConverges(t *testing.T) {
	e := NewRateEstimator(0.5)
	for i := 0; i < 30; i++ {
		e.Observe(100)
	}
	if r := e.Rate(); r < 99 || r > 101 {
		t.Fatalf("EWMA did not converge: %v", r)
	}
}

func TestScalingPolicyComputesTarget(t *testing.T) {
	p := NewScalingPolicy(0.8, 1, 16)
	// 1000 events/s input, 150/s per instance at 80% target → ceil(8.33)=9.
	if got := p.Decide(1000, 150, 2); got != 9 {
		t.Fatalf("scale-out: want 9, got %d", got)
	}
}

func TestScalingPolicyHysteresisOnScaleDown(t *testing.T) {
	p := NewScalingPolicy(0.8, 1, 16)
	// Scale-down requires persistence.
	if got := p.Decide(100, 150, 8); got != 8 {
		t.Fatal("scaled down immediately")
	}
	p.Decide(100, 150, 8)
	if got := p.Decide(100, 150, 8); got == 8 {
		t.Fatal("did not scale down after hysteresis")
	}
}

func TestScalingPolicyClamps(t *testing.T) {
	p := NewScalingPolicy(0.8, 2, 4)
	if got := p.Decide(1e9, 1, 2); got != 4 {
		t.Fatalf("max clamp: want 4, got %d", got)
	}
}

func TestScalingPolicyHoldsOnNonFiniteRates(t *testing.T) {
	// Warm-up readings are not numbers: an EWMA meter reports NaN before its
	// first window closes, and a busy-time capacity estimate divides by zero
	// (±Inf) until the instance has processed anything. None of these may
	// move the operator — and none may advance the scale-down hysteresis
	// counter either.
	p := NewScalingPolicy(0.8, 1, 16)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct{ in, per float64 }{
		{nan, 150}, {1000, nan}, {nan, nan},
		{inf, 150}, {1000, inf}, {-inf, 150}, {1000, -inf}, {inf, nan},
	}
	for _, c := range cases {
		if got := p.Decide(c.in, c.per, 5); got != 5 {
			t.Fatalf("Decide(%v, %v, 5) = %d, want hold at 5", c.in, c.per, got)
		}
	}
	// A garbage burst between two valid low readings must not count toward
	// hysteresis: two finite below-target decisions plus a NaN in between is
	// still only two, so the third finite reading triggers the scale-in.
	p2 := NewScalingPolicy(0.8, 1, 16)
	p2.Decide(100, 150, 8)
	p2.Decide(nan, nan, 8)
	p2.Decide(100, 150, 8)
	if got := p2.Decide(100, 150, 8); got == 8 {
		t.Fatal("hysteresis window corrupted by non-finite sample")
	}
}

// TestOverloadSimulationShapes is the E8 shape test: the generational claims
// of §3.3 must hold on the standard workload.
func TestOverloadSimulationShapes(t *testing.T) {
	cfg := SimConfig{
		BaseRate:            100,
		BurstFactor:         2.5,
		BurstStart:          50,
		BurstEnd:            150,
		Ticks:               300,
		CapacityPerInstance: 120,
		QueueBound:          500,
		Instances:           1,
		MaxInstances:        8,
		Seed:                7,
	}
	results := map[Policy]SimResult{}
	for _, r := range CompareOverloadPolicies(cfg) {
		results[r.Policy] = r
	}

	shed := results[PolicyShedRandom]
	sem := results[PolicyShedSemantic]
	bp := results[PolicyBackpressure]
	el := results[PolicyElastic]

	// Shedding loses data; backpressure and elastic lose none.
	if shed.Dropped == 0 || sem.Dropped == 0 {
		t.Fatalf("shedding policies should drop under overload: %v / %v", shed, sem)
	}
	if bp.Dropped != 0 || el.Dropped != 0 {
		t.Fatalf("backpressure/elastic must not drop: %v / %v", bp, el)
	}
	// Everything offered is accounted for.
	for _, r := range []SimResult{shed, sem, bp, el} {
		if r.Delivered+r.Dropped != r.Offered {
			t.Fatalf("%s: delivered+dropped != offered: %v", r.Policy, r)
		}
	}
	// Shedding keeps latency low; backpressure pays with queueing latency.
	if shed.AvgLatency >= bp.AvgLatency {
		t.Fatalf("shedding latency (%v) should be below backpressure latency (%v)",
			shed.AvgLatency, bp.AvgLatency)
	}
	// Elasticity scales out and recovers latency versus fixed-capacity
	// backpressure.
	if el.FinalInstances <= 1 && el.Rescales == 0 {
		t.Fatalf("elastic policy never scaled: %v", el)
	}
	if el.AvgLatency >= bp.AvgLatency {
		t.Fatalf("elastic latency (%v) should beat fixed backpressure (%v)", el.AvgLatency, bp.AvgLatency)
	}
	// Semantic shedding preserves more utility than random shedding for the
	// same overload (it drops the cheapest tuples).
	if sem.UtilityLost >= shed.UtilityLost {
		t.Fatalf("semantic shedding should lose less utility: semantic=%v random=%v",
			sem.UtilityLost, shed.UtilityLost)
	}
}

func TestSimulationDrainsCompletely(t *testing.T) {
	cfg := SimConfig{BaseRate: 50, BurstFactor: 3, BurstStart: 10, BurstEnd: 60,
		Ticks: 100, CapacityPerInstance: 60, Instances: 1, MaxInstances: 4, Seed: 1}
	for _, r := range CompareOverloadPolicies(cfg) {
		if r.Delivered+r.Dropped != r.Offered {
			t.Fatalf("%s leaked events: %+v", r.Policy, r)
		}
	}
}

func drainBuffer(b *BoundedBuffer[int]) []int {
	var out []int
	for {
		v, ok := b.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestBoundedBufferDropOldest(t *testing.T) {
	b := NewBoundedBuffer[int](3, DropOldest)
	for i := 1; i <= 5; i++ {
		shed, kill := b.Push(i)
		if kill {
			t.Fatal("drop-oldest asked to disconnect")
		}
		if shed != (i > 3) {
			t.Fatalf("push %d: shed=%v", i, shed)
		}
	}
	got := drainBuffer(b)
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("drop-oldest kept %v, want [3 4 5]", got)
	}
	if b.Shed() != 2 {
		t.Fatalf("shed count %d, want 2", b.Shed())
	}
}

func TestBoundedBufferDropNewest(t *testing.T) {
	b := NewBoundedBuffer[int](3, DropNewest)
	for i := 1; i <= 5; i++ {
		b.Push(i)
	}
	got := drainBuffer(b)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drop-newest kept %v, want [1 2 3]", got)
	}
	if b.Shed() != 2 {
		t.Fatalf("shed count %d, want 2", b.Shed())
	}
}

func TestBoundedBufferDisconnect(t *testing.T) {
	b := NewBoundedBuffer[int](2, Disconnect)
	b.Push(1)
	b.Push(2)
	shed, kill := b.Push(3)
	if !shed || !kill {
		t.Fatalf("full disconnect buffer: shed=%v kill=%v", shed, kill)
	}
	if got := drainBuffer(b); len(got) != 2 {
		t.Fatalf("disconnect mutated queue: %v", got)
	}
}

func TestBoundedBufferWrapAround(t *testing.T) {
	b := NewBoundedBuffer[int](4, DropOldest)
	next := 0
	for round := 0; round < 7; round++ {
		for i := 0; i < 3; i++ {
			b.Push(next)
			next++
		}
		if v, ok := b.Pop(); !ok || v != next-b.Len()-1 {
			t.Fatalf("round %d: pop %d (len %d)", round, v, b.Len())
		}
	}
}

func TestParseOverflowPolicy(t *testing.T) {
	for s, want := range map[string]OverflowPolicy{
		"": DropOldest, "drop-oldest": DropOldest,
		"drop-newest": DropNewest, "disconnect": Disconnect,
	} {
		got, err := ParseOverflowPolicy(s)
		if err != nil || got != want {
			t.Fatalf("parse %q: %v %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("roundtrip %q -> %q", s, got.String())
		}
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
