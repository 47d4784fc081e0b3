package workload

import "fmt"

// SweepPoint is one grid cell of a Sweep: the load level it ran at, the
// full Result, and the SLO violations at that level (empty when the spec
// declares no SLO or the point met it).
type SweepPoint struct {
	// Clients and Rate are the point's load level. Rate 0 means the
	// spec's own pacing (Think, or saturation).
	Clients int
	Rate    float64
	Result  *Result
	// Violations is the spec SLO evaluated at this point. A sweep does
	// not stop on a violation — the shape of the curve past the knee is
	// the point of sweeping.
	Violations []Violation
}

// SweepOptions selects the grid a Sweep visits.
type SweepOptions struct {
	// Clients lists the client counts to visit; empty means the spec's
	// own count. The clients experiment (internal/exp) sweeps the OCB
	// phase over CLIENTN this way; any Spec can be swept the same way.
	Clients []int
	// Rates lists arrival-rate targets (ops/sec across all clients) to
	// visit at each client count; empty means one pass with the spec's
	// own pacing. A non-zero rate overrides the spec's Think.
	Rates []float64
	// Reset, when set, runs before every point — drop caches, reset
	// counters, re-prime state — so points measure the same system, not
	// the residue of the previous point.
	Reset func(clients int, rate float64) error
}

// Sweep runs one Spec across a CLIENTN × rate grid, client counts outer,
// rates inner, and returns one point per cell in visit order. The spec is
// copied per point: the caller's Spec is never mutated, and every point
// re-derives its per-client streams from the same seed — a point's op
// stream depends on its own client count only, not on its position in
// the sweep.
//
// The caller owns cross-point state. Mutating workloads accumulate in
// the backend from point to point unless Reset undoes them; suites whose
// NewClient pre-sizes per-client state (oo1's insert streams) must have
// been built for the largest client count in the grid.
func Sweep(spec *Spec, o SweepOptions) ([]SweepPoint, error) {
	clients := o.Clients
	if len(clients) == 0 {
		clients = []int{spec.clients()}
	}
	rates := o.Rates
	if len(rates) == 0 {
		rates = []float64{spec.Rate}
	}
	points := make([]SweepPoint, 0, len(clients)*len(rates))
	for _, n := range clients {
		if n < 1 {
			return nil, fmt.Errorf("workload %q: sweep: client count %d < 1", spec.Name, n)
		}
		for _, rate := range rates {
			if rate < 0 {
				return nil, fmt.Errorf("workload %q: sweep: negative rate %g", spec.Name, rate)
			}
			if o.Reset != nil {
				if err := o.Reset(n, rate); err != nil {
					return nil, fmt.Errorf("workload %q: sweep reset (%d clients, rate %g): %w", spec.Name, n, rate, err)
				}
			}
			pt := *spec
			pt.Clients = n
			if rate > 0 {
				pt.Rate = rate
				pt.Think = 0
			}
			res, err := Run(&pt)
			if err != nil {
				return nil, fmt.Errorf("workload %q: sweep (%d clients, rate %g): %w", spec.Name, n, rate, err)
			}
			points = append(points, SweepPoint{
				Clients:    n,
				Rate:       rate,
				Result:     res,
				Violations: spec.SLO.Evaluate(res),
			})
		}
	}
	return points, nil
}

// RateSearch configures FindMaxRate: the latency bound to hold and the
// bracket to search within.
type RateSearch struct {
	// P95BoundUs is the latency criterion, in microseconds: a rate is
	// sustainable only while the measured P95 stays at or under it.
	P95BoundUs float64
	// MinRate and MaxRate bracket the search, in ops/sec. MinRate
	// defaults to MaxRate/64.
	MinRate, MaxRate float64
	// Tolerance is the relative bracket width at which the search stops:
	// (fail - pass) / pass <= Tolerance. Default 0.1.
	Tolerance float64
	// MaxProbes caps the total number of measured runs. Default 12.
	MaxProbes int
	// SustainedFrac is the throughput criterion: a probe at target rate R
	// must achieve at least SustainedFrac*R ops/sec, or the system is
	// saturated — arrivals are queueing faster than they complete, and
	// the target is not sustained no matter what the recorded latencies
	// say. Default 0.9.
	SustainedFrac float64
}

// RateProbe is one measured run of the search.
type RateProbe struct {
	Rate   float64
	Result *Result
	// P95 echoes the probe's 95th-percentile latency (µs); Sustained
	// reports the throughput criterion; Pass is the conjunction that
	// drives the search.
	P95       float64
	Sustained bool
	Pass      bool
}

// RateSearchResult is the search outcome.
type RateSearchResult struct {
	// MaxRate is the highest probed rate that passed — the capacity
	// answer. Zero when even MinRate failed.
	MaxRate float64
	// Probes lists every measured run in probe order.
	Probes []RateProbe
}

// FindMaxRate binary-searches for the highest open-loop arrival rate the
// spec's backend sustains with P95 at or under the bound. Each probe runs
// the full spec (warmup included) at a candidate rate; a probe passes
// when its P95 meets the bound and its achieved throughput reaches
// SustainedFrac of the target. The search never reports a rate it did
// not measure as passing: the result is the largest passing probe, so it
// cannot exceed the knee even when the bracket or tolerance is coarse.
//
// The spec must have Measured > 0 (a fixed program has a fixed op count
// per client, which at low rates stretches unboundedly) and enough
// measured ops for a stable P95 at the highest rate probed.
func FindMaxRate(spec *Spec, s RateSearch) (*RateSearchResult, error) {
	if s.P95BoundUs <= 0 {
		return nil, fmt.Errorf("workload %q: rate search needs a positive P95 bound", spec.Name)
	}
	if s.MaxRate <= 0 {
		return nil, fmt.Errorf("workload %q: rate search needs a positive MaxRate bracket", spec.Name)
	}
	if spec.Measured <= 0 {
		return nil, fmt.Errorf("workload %q: rate search needs a mixed-mode spec (Measured > 0)", spec.Name)
	}
	min := s.MinRate
	if min <= 0 {
		min = s.MaxRate / 64
	}
	if min > s.MaxRate {
		return nil, fmt.Errorf("workload %q: rate search bracket inverted (min %g > max %g)", spec.Name, min, s.MaxRate)
	}
	tol := s.Tolerance
	if tol <= 0 {
		tol = 0.1
	}
	maxProbes := s.MaxProbes
	if maxProbes <= 0 {
		maxProbes = 12
	}
	frac := s.SustainedFrac
	if frac <= 0 {
		frac = 0.9
	}

	out := &RateSearchResult{}
	probe := func(rate float64) (*RateProbe, error) {
		pt := *spec
		pt.Rate = rate
		pt.Think = 0
		res, err := Run(&pt)
		if err != nil {
			return nil, fmt.Errorf("workload %q: rate probe at %g ops/s: %w", spec.Name, rate, err)
		}
		p := RateProbe{
			Rate:      rate,
			Result:    res,
			P95:       res.P95(),
			Sustained: res.Throughput >= frac*rate,
		}
		p.Pass = p.Sustained && p.P95 <= s.P95BoundUs
		out.Probes = append(out.Probes, p)
		return &p, nil
	}

	// Anchor the bracket: a failing floor ends the search at zero; a
	// passing ceiling is the answer outright.
	low, err := probe(min)
	if err != nil {
		return nil, err
	}
	if !low.Pass {
		return out, nil
	}
	pass := min
	high, err := probe(s.MaxRate)
	if err != nil {
		return nil, err
	}
	if high.Pass {
		out.MaxRate = s.MaxRate
		return out, nil
	}
	fail := s.MaxRate

	for len(out.Probes) < maxProbes && (fail-pass)/pass > tol {
		mid := (pass + fail) / 2
		p, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if p.Pass {
			pass = mid
		} else {
			fail = mid
		}
	}
	out.MaxRate = pass
	return out, nil
}
