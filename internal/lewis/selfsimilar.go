package lewis

import (
	"fmt"
	"math"
)

// SelfSimilar draws from [lo, hi] with the classic self-similar (80/20)
// skew of Gray et al. ("Quickly generating billion-record synthetic
// databases", SIGMOD 1994): a fraction (1-Skew) of the draws land in the
// first Skew fraction of the interval, recursively at every scale. The
// default Skew of 0.2 gives the 80/20 rule. Useful as DIST5 to model hot
// transaction roots, or as DIST4 for hot reference targets.
type SelfSimilar struct {
	// Skew in (0, 0.5]; 0 selects 0.2 (the 80/20 rule).
	Skew float64
}

// Draw implements Distribution.
func (ss SelfSimilar) Draw(s *Source, lo, hi, _ int) int {
	h := ss.Skew
	if !(h > 0 && h <= 0.5) {
		h = 0.2
	}
	n := hi - lo + 1
	if n <= 1 {
		s.Uint32()
		return lo
	}
	u := s.Float64()
	// Inverse transform: with exponent e = log(h)/log(1-h),
	// P(X <= h*n) = h^(1/e) = 1-h — the (1-h)/h rule at every scale.
	exp := math.Log(h) / math.Log(1-h)
	// A skew so small that 1-h rounds to 1 makes the exponent infinite;
	// the clamp keeps such a draw inside the interval.
	return lo + clamp(int(float64(n)*math.Pow(u, exp)), 0, n-1)
}

// Name implements Distribution.
func (ss SelfSimilar) Name() string {
	h := ss.Skew
	if !(h > 0 && h <= 0.5) {
		h = 0.2
	}
	return fmt.Sprintf("selfsimilar:%g", h)
}
