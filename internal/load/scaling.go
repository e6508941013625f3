package load

import "math"

// ScalingPolicy computes the parallelism an operator needs from observed
// rates — the "three steps is all you need" (DS2) model: measure the true
// (useful-work) processing rate per instance and the input rate, and set
//
//	instances = ceil(inputRate / perInstanceRate / targetUtilisation)
//
// in a single step, instead of the stepwise trial-and-error of threshold
// controllers.
type ScalingPolicy struct {
	// TargetUtilisation is the desired busy fraction per instance (0, 1].
	TargetUtilisation float64
	// Min and Max clamp the decision.
	Min, Max int
	// ScaleDownHysteresis requires the computed target to stay below the
	// current parallelism for this many consecutive decisions before scaling
	// in, preventing oscillation.
	ScaleDownHysteresis int

	belowCount int
}

// NewScalingPolicy returns a policy with sensible defaults.
func NewScalingPolicy(targetUtilisation float64, min, max int) *ScalingPolicy {
	if targetUtilisation <= 0 || targetUtilisation > 1 {
		targetUtilisation = 0.8
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &ScalingPolicy{
		TargetUtilisation:   targetUtilisation,
		Min:                 min,
		Max:                 max,
		ScaleDownHysteresis: 3,
	}
}

// Decide returns the parallelism for the observed input rate and measured
// per-instance processing capacity, given the current parallelism.
//
// Non-finite rates hold the current parallelism: a windowed rate is NaN before
// its first sample window closes, and a busy-time-derived capacity divides
// by zero (→ ±Inf) until the instance has done any work. Feeding either into
// the ceil() below would produce a garbage target (int(math.Ceil(NaN)) is
// platform-dependent and typically a huge negative number), so warm-up
// readings must not move the operator.
func (p *ScalingPolicy) Decide(inputRate, perInstanceRate float64, current int) int {
	if math.IsNaN(inputRate) || math.IsInf(inputRate, 0) ||
		math.IsNaN(perInstanceRate) || math.IsInf(perInstanceRate, 0) {
		return current
	}
	if perInstanceRate <= 0 {
		return current
	}
	raw := int(math.Ceil(inputRate / (perInstanceRate * p.TargetUtilisation)))
	if raw < p.Min {
		raw = p.Min
	}
	if raw > p.Max {
		raw = p.Max
	}
	if raw > current {
		p.belowCount = 0
		return raw
	}
	if raw < current {
		p.belowCount++
		if p.belowCount >= p.ScaleDownHysteresis {
			p.belowCount = 0
			return raw
		}
		return current
	}
	p.belowCount = 0
	return current
}
