package lewis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// 1/rank^Skew (rank 1 is lo). Any finite Skew is accepted; 0 is uniform.
// Skew must not change after the first draw. Every Zipf of one skew
// samples from the same process-wide cumulative table (zipfTable), so a
// draw takes no lock, does no map lookup and allocates nothing once the
// table covers its width.
type Zipf struct {
	Skew float64

	tab atomic.Pointer[zipfTable]
}

// NewZipf returns a Zipf distribution with the given skew.
func NewZipf(skew float64) *Zipf { return &Zipf{Skew: skew} }

// Draw implements Distribution by inverse-CDF sampling over the exact
// discrete Zipf CDF: u is uniform over the mass of ranks 1..n, and the
// rank is the first whose cumulative mass reaches u (O(log n) per draw).
//
//ocblint:allocfree
func (z *Zipf) Draw(s *Source, lo, hi, _ int) int {
	n := hi - lo + 1
	if n <= 1 {
		s.Uint32()
		return lo
	}
	t := z.tab.Load()
	if t == nil {
		t = z.table()
	}
	cum := *t.cum.Load()
	if len(cum) < n {
		cum = t.grow(n)
	}
	cum = cum[:n]
	return lo + binarySearchFloat(cum, s.Float64()*cum[n-1])
}

// Name implements Distribution.
func (z *Zipf) Name() string { return fmt.Sprintf("zipf:%g", z.Skew) }

// zipfTable is the cumulative series of one skew: cum[k-1] is the sum of
// 1/j^skew for j = 1..k, added left to right. A width-n draw reads the
// prefix cum[:n]. The table only ever grows, continuing the running sum,
// and entries once published never change, so a reader holding an older,
// shorter slice stays valid and the table's size is bounded by the widest
// width drawn.
type zipfTable struct {
	skew float64

	mu  sync.Mutex // serializes grow
	cum atomic.Pointer[[]float64]
}

// zipfTables holds one table per skew, keyed by the skew's bits, for the
// life of the process: the set-ups and experiments that share a skew
// build its series once.
var (
	zipfTablesMu sync.Mutex
	zipfTables   = map[uint64]*zipfTable{}
)

// table finds (or creates) the shared table for z.Skew and caches it in z.
func (z *Zipf) table() *zipfTable {
	key := math.Float64bits(z.Skew)
	zipfTablesMu.Lock()
	defer zipfTablesMu.Unlock()
	t := zipfTables[key]
	if t == nil {
		t = newZipfTable(z.Skew)
		zipfTables[key] = t
	}
	z.tab.Store(t)
	return t
}

func newZipfTable(skew float64) *zipfTable {
	t := &zipfTable{skew: skew}
	t.cum.Store(new([]float64))
	return t
}

// grow extends the table to at least n entries and returns it. The first
// build allocates exactly n; later ones append.
func (t *zipfTable) grow(n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	cum := *t.cum.Load()
	if len(cum) >= n {
		return cum
	}
	sum := 0.0
	if len(cum) == 0 {
		cum = make([]float64, 0, n)
	} else {
		sum = cum[len(cum)-1]
	}
	for k := len(cum) + 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), t.skew)
		cum = append(cum, sum)
	}
	t.cum.Store(&cum)
	return cum
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
