package lewis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Distribution draws integers from an inclusive interval [lo, hi].
//
// OCB parameterizes five random choices (DIST1..DIST5): reference types,
// class references, class of each object, object references, and transaction
// roots. Each can independently be any Distribution.
//
// The center argument carries the "current position" for locality-aware
// distributions: when drawing object references for object #i, center is i,
// which lets RefZone reproduce OO1's [Id-RefZone, Id+RefZone] rule (the
// "Special" DIST4 of the paper's Table 3). Distributions without a locality
// notion ignore center.
type Distribution interface {
	// Draw returns a value in [lo, hi]. Implementations must clamp.
	Draw(s *Source, lo, hi, center int) int
	// Name returns the parseable name of the distribution.
	Name() string
}

// Uniform draws uniformly from [lo, hi]. This is the default for every
// OCB distribution parameter (Table 1 and Table 2).
type Uniform struct{}

// Draw implements Distribution.
func (Uniform) Draw(s *Source, lo, hi, _ int) int { return s.IntRange(lo, hi) }

// Name implements Distribution.
func (Uniform) Name() string { return "uniform" }

// Constant always returns the same value: lo + Offset, clamped to [lo, hi].
// The paper's Table 3 uses constant distributions to pin OCB's schema to
// DSTC-CluB's two-class OO1 schema.
type Constant struct {
	// Offset is added to lo before clamping.
	Offset int
}

// Draw implements Distribution.
func (c Constant) Draw(_ *Source, lo, hi, _ int) int {
	return clamp(lo+c.Offset, lo, hi)
}

// Name implements Distribution.
func (c Constant) Name() string { return fmt.Sprintf("constant:%d", c.Offset) }

// RoundRobin cycles deterministically through [lo, hi]. It backs the
// "constant" object-to-class assignment of the CluB preset, where classes
// must receive objects in a fixed proportion rather than at random.
// Next is exported so generated databases can be persisted with gob.
type RoundRobin struct {
	mu   sync.Mutex
	Next int
}

// Draw implements Distribution.
func (r *RoundRobin) Draw(_ *Source, lo, hi, _ int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := hi - lo + 1
	if n <= 0 {
		return lo
	}
	v := lo + r.Next%n
	r.Next++
	return v
}

// Name implements Distribution.
func (r *RoundRobin) Name() string { return "roundrobin" }

// Zipf draws ranks from [lo, hi] with probability proportional to
// 1/rank^Skew (rank 1 is lo). Skew must be > 0 and != 1 is not required.
// The normalization constant is cached per interval width.
type Zipf struct {
	Skew float64

	mu    sync.Mutex
	zetaN map[int]float64
}

// NewZipf returns a Zipf distribution with the given skew.
func NewZipf(skew float64) *Zipf {
	return &Zipf{Skew: skew, zetaN: make(map[int]float64)}
}

// Draw implements Distribution using inverse-CDF sampling over the exact
// discrete Zipf CDF (O(log n) per draw after an O(n) one-time zeta).
func (z *Zipf) Draw(s *Source, lo, hi, _ int) int {
	n := hi - lo + 1
	if n <= 1 {
		s.Uint32()
		return lo
	}
	u := s.Float64() * z.zeta(n)
	// Walk the CDF geometrically: binary search over cumulative sums is
	// not possible without storing them, so store them per width.
	cum := z.cumulative(n)
	i := binarySearchFloat(cum, u)
	return lo + i
}

// Name implements Distribution.
func (z *Zipf) Name() string { return fmt.Sprintf("zipf:%g", z.Skew) }

func (z *Zipf) zeta(n int) float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.zetaN == nil {
		z.zetaN = make(map[int]float64)
	}
	if v, ok := z.zetaN[n]; ok {
		return v
	}
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), z.Skew)
	}
	z.zetaN[n] = sum
	return sum
}

var zipfCumMu sync.Mutex
var zipfCum = map[string][]float64{}

func (z *Zipf) cumulative(n int) []float64 {
	key := fmt.Sprintf("%g/%d", z.Skew, n)
	zipfCumMu.Lock()
	defer zipfCumMu.Unlock()
	if c, ok := zipfCum[key]; ok {
		return c
	}
	c := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), z.Skew)
		c[k-1] = sum
	}
	zipfCum[key] = c
	return c
}

func binarySearchFloat(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Normal draws from a Gaussian centered at the middle of [lo, hi] (or at
// lo + MeanFrac*(hi-lo) if MeanFrac is set) with standard deviation
// StdFrac*(hi-lo), clamped to the interval. StdFrac defaults to 1/6 so that
// ±3σ spans the interval.
type Normal struct {
	MeanFrac float64 // 0 means 0.5
	StdFrac  float64 // 0 means 1/6
}

// Draw implements Distribution.
func (nd Normal) Draw(s *Source, lo, hi, _ int) int {
	mean := nd.MeanFrac
	if mean == 0 {
		mean = 0.5
	}
	std := nd.StdFrac
	if std == 0 {
		std = 1.0 / 6.0
	}
	span := float64(hi - lo)
	v := float64(lo) + mean*span + s.NormFloat64()*std*span
	return clamp(int(math.Round(v)), lo, hi)
}

// Name implements Distribution.
func (nd Normal) Name() string { return "normal" }

// NegExp draws lo + X where X is exponentially distributed with mean
// MeanFrac*(hi-lo), clamped to [lo, hi]. Models skew toward the start of
// the interval (young objects accessed more often).
type NegExp struct {
	MeanFrac float64 // 0 means 0.2
}

// Draw implements Distribution.
func (ne NegExp) Draw(s *Source, lo, hi, _ int) int {
	mean := ne.MeanFrac
	if mean == 0 {
		mean = 0.2
	}
	span := float64(hi - lo)
	v := float64(lo) + s.ExpFloat64()*mean*span
	return clamp(int(v), lo, hi)
}

// Name implements Distribution.
func (ne NegExp) Name() string { return "negexp" }

// RefZone reproduces OO1's locality-of-reference rule, the "Special"
// distribution of the paper's Table 3: with probability PLocal the value is
// drawn uniformly from [center-Zone, center+Zone] (clamped), otherwise
// uniformly from the whole interval. OO1 uses PLocal = 0.9.
type RefZone struct {
	Zone   int
	PLocal float64 // 0 means 0.9
}

// Draw implements Distribution.
func (rz RefZone) Draw(s *Source, lo, hi, center int) int {
	p := rz.PLocal
	if p == 0 {
		p = 0.9
	}
	if s.Bernoulli(p) {
		zlo := clamp(center-rz.Zone, lo, hi)
		zhi := clamp(center+rz.Zone, lo, hi)
		return s.IntRange(zlo, zhi)
	}
	return s.IntRange(lo, hi)
}

// Name implements Distribution.
func (rz RefZone) Name() string { return fmt.Sprintf("refzone:%d", rz.Zone) }

// NormFloat64 returns a standard normal variate (Box–Muller with spare).
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u, v, q float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(q) / q)
	s.spare = v * f
	s.haveSpare = true
	return u * f
}

// ExpFloat64 returns an exponential variate with mean 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// ParseDistribution builds a Distribution from a textual spec:
//
//	uniform | constant[:offset] | roundrobin | zipf[:skew] | normal |
//	negexp[:meanfrac] | selfsimilar[:skew] | refzone:zone[:plocal]
//
// Used by the command-line tools to set DIST1..DIST5.
func ParseDistribution(spec string) (Distribution, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), ":")
	switch parts[0] {
	case "uniform", "":
		return Uniform{}, nil
	case "constant":
		off := 0
		if len(parts) > 1 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("lewis: bad constant offset %q: %w", parts[1], err)
			}
			off = v
		}
		return Constant{Offset: off}, nil
	case "roundrobin":
		return &RoundRobin{}, nil
	case "zipf":
		skew := 1.0
		if len(parts) > 1 {
			v, err := parseFloat("zipf skew", parts[1])
			if err != nil {
				return nil, err
			}
			skew = v
		}
		return NewZipf(skew), nil
	case "normal":
		return Normal{}, nil
	case "negexp":
		ne := NegExp{}
		if len(parts) > 1 {
			v, err := parseFloat("negexp mean", parts[1])
			if err != nil {
				return nil, err
			}
			ne.MeanFrac = v
		}
		return ne, nil
	case "selfsimilar":
		ss := SelfSimilar{}
		if len(parts) > 1 {
			v, err := parseFloat("selfsimilar skew", parts[1])
			if err != nil {
				return nil, err
			}
			ss.Skew = v
		}
		return ss, nil
	case "refzone":
		if len(parts) < 2 {
			return nil, fmt.Errorf("lewis: refzone requires a zone, e.g. refzone:100")
		}
		zone, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("lewis: bad refzone zone %q: %w", parts[1], err)
		}
		rz := RefZone{Zone: zone}
		if len(parts) > 2 {
			p, err := parseFloat("refzone plocal", parts[2])
			if err != nil {
				return nil, err
			}
			rz.PLocal = p
		}
		return rz, nil
	default:
		return nil, fmt.Errorf("lewis: unknown distribution %q", spec)
	}
}

// parseFloat parses a distribution's float parameter. NaN and the
// infinities parse as floats but defeat every range guard a Draw applies,
// so they are rejected here.
func parseFloat(what, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("lewis: bad %s %q: %w", what, s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("lewis: bad %s %q: not a finite number", what, s)
	}
	return v, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
