// Package dstc implements the Dynamic, Statistical and Tunable Clustering
// technique (Bullat, Blaise Pascal University, 1996) that the OCB paper
// benchmarks on top of the Texas store.
//
// DSTC observes database usage (inter-object link crossings) at run time
// and reorganizes placement from the gathered statistics. Section 4.1 of
// the paper decomposes the strategy into five phases, all implemented here:
//
//  1. Observation: during an Observation Period, link crossings are counted
//     in a transient Observation Matrix.
//  2. Selection: at the end of the period, only significant statistics
//     (count >= Tfa) are kept.
//  3. Consolidation: selected counts update the persistent Consolidated
//     Matrix, whose previous content ages by a multiplicative factor;
//     entries falling below Tfe are dropped.
//  4. Dynamic Cluster Reorganization: consolidated statistics build new
//     Clustering Units or modify existing ones — connected groups of
//     objects bounded by a byte budget, assembled heaviest-link first.
//  5. Physical Clustering Organization: units are applied to the store
//     (triggered when the system is idle; here, by calling Reorganize),
//     charging the I/O cost to the clustering-overhead class.
//
// Every threshold is a tunable, as the technique's name promises.
package dstc

import (
	"sort"

	"ocb/internal/backend"
)

// Params are DSTC's tunables. Zero values select defaults.
type Params struct {
	// ObservationPeriod is the number of transactions per observation
	// phase; selection + consolidation run at each period end. Default 100.
	ObservationPeriod int
	// Tfa is the minimum in-period crossing count for a link to survive
	// the Selection phase. Default 2.
	Tfa float64
	// Tfe is the minimum consolidated weight for an entry to stay in the
	// Consolidated Matrix. Default 1.
	Tfe float64
	// Tfc is the minimum consolidated weight for a link to contribute to a
	// Clustering Unit. Default 2.
	Tfc float64
	// Aging multiplies existing consolidated weights at each consolidation
	// (0 < Aging <= 1). Default 0.9.
	Aging float64
	// MaxUnitBytes bounds a Clustering Unit's total object bytes; 0 means
	// the store's page size at reorganization time.
	MaxUnitBytes int
	// MaxUnits caps how many units are applied per reorganization,
	// heaviest first; 0 means no cap.
	MaxUnits int
}

func (p Params) withDefaults() Params {
	if p.ObservationPeriod <= 0 {
		p.ObservationPeriod = 100
	}
	if p.Tfa <= 0 {
		p.Tfa = 2
	}
	if p.Tfe <= 0 {
		p.Tfe = 1
	}
	if p.Tfc <= 0 {
		p.Tfc = 2
	}
	if p.Aging <= 0 || p.Aging > 1 {
		p.Aging = 0.9
	}
	return p
}

// Stats exposes DSTC's internal activity for reports and tests.
type Stats struct {
	LinksObserved    uint64 // total ObserveLink calls
	Transactions     uint64 // total EndTransaction calls
	Periods          uint64 // completed observation periods
	SelectedEntries  uint64 // entries surviving all Selection phases
	ConsolidatedSize int    // current Consolidated Matrix entries
	UnitsBuilt       int    // units built by the last reorganization
	ObjectsInUnits   int    // objects covered by the last reorganization
	Reorganizations  uint64 // Reorganize calls that applied a layout
	LastRelocation   backend.RelocStats
}

type pair struct{ src, dst backend.OID }

// DSTC is the clustering policy. It implements cluster.Policy.
// It is not safe for concurrent use; the benchmark runner serializes
// observation (matching DSTC's in-process observation modules).
type DSTC struct {
	params Params

	observation  map[pair]float64 // transient Observation Matrix
	consolidated map[pair]float64 // persistent Consolidated Matrix
	txInPeriod   int
	stats        Stats
}

// New returns a DSTC policy with the given tunables.
func New(p Params) *DSTC {
	return &DSTC{
		params:       p.withDefaults(),
		observation:  make(map[pair]float64),
		consolidated: make(map[pair]float64),
	}
}

// NewCluBStyle returns DSTC as the clustering experiments tune it for
// CluB-style stereotyped workloads: one observation period spanning the
// whole observation phase (statistics consolidate once, at
// reorganization), the standard selection and clustering thresholds
// Tfa = Tfc = 2, and clustering units of up to 16 pages.
func NewCluBStyle() *DSTC {
	return New(Params{ObservationPeriod: 1 << 30, Tfa: 2, Tfc: 2, MaxUnitBytes: 1 << 16})
}

// Name implements cluster.Policy.
func (d *DSTC) Name() string { return "dstc" }

// Params returns the effective (defaulted) tunables.
func (d *DSTC) Params() Params { return d.params }

// Stats returns a snapshot of DSTC's activity counters.
func (d *DSTC) Stats() Stats {
	s := d.stats
	s.ConsolidatedSize = len(d.consolidated)
	return s
}

// ObserveLink implements cluster.Policy — Observation phase (1).
func (d *DSTC) ObserveLink(src, dst backend.OID) {
	if src == backend.NilOID || dst == backend.NilOID || src == dst {
		return
	}
	d.observation[pair{src, dst}]++
	d.stats.LinksObserved++
}

// ObserveRoot implements cluster.Policy. DSTC derives its statistics from
// link crossings only, so roots are not recorded.
func (d *DSTC) ObserveRoot(backend.OID) {}

// EndTransaction implements cluster.Policy. Completing an observation
// period triggers Selection (2) and Consolidation (3).
func (d *DSTC) EndTransaction() {
	d.stats.Transactions++
	d.txInPeriod++
	if d.txInPeriod >= d.params.ObservationPeriod {
		d.endPeriod()
	}
}

// endPeriod runs Selection and Consolidation on the current Observation
// Matrix, then clears it.
func (d *DSTC) endPeriod() {
	if d.txInPeriod == 0 {
		return
	}
	d.txInPeriod = 0
	d.stats.Periods++

	// Selection phase: keep only significant statistics.
	selected := make(map[pair]float64)
	for p, c := range d.observation {
		if c >= d.params.Tfa {
			selected[p] = c
			d.stats.SelectedEntries++
		}
	}
	d.observation = make(map[pair]float64)

	// Consolidation phase: age previous knowledge, merge the new, evict
	// entries that decayed below Tfe.
	for p, w := range d.consolidated {
		w *= d.params.Aging
		if add, ok := selected[p]; ok {
			w += add
			delete(selected, p)
		}
		if w < d.params.Tfe {
			delete(d.consolidated, p)
			continue
		}
		d.consolidated[p] = w
	}
	for p, c := range selected {
		if c >= d.params.Tfe {
			d.consolidated[p] = c
		}
	}
}

// Reset implements cluster.Policy: both matrices and counters are cleared.
func (d *DSTC) Reset() {
	d.observation = make(map[pair]float64)
	d.consolidated = make(map[pair]float64)
	d.txInPeriod = 0
	d.stats = Stats{}
}

// unit is a Clustering Unit under construction.
type unit struct {
	members []backend.OID
	in      map[backend.OID]bool
	bytes   int
	weight  float64
	dead    bool
}

// Reorganize implements cluster.Policy — phases 4 and 5. Any partial
// observation period is first flushed through Selection/Consolidation.
// On a backend without physical relocation the gathered statistics are
// kept (observation is still meaningful) but the reorganization reports
// backend.ErrNotSupported.
func (d *DSTC) Reorganize(st backend.Backend) (backend.RelocStats, error) {
	rel, err := backend.AsRelocator(st)
	if err != nil {
		return backend.RelocStats{}, err
	}
	if d.txInPeriod > 0 {
		d.endPeriod()
	}
	units := d.buildUnits(st)
	d.stats.UnitsBuilt = len(units)
	objects := 0
	layout := make([][]backend.OID, 0, len(units))
	for _, u := range units {
		objects += len(u.members)
		layout = append(layout, u.members)
	}
	d.stats.ObjectsInUnits = objects
	if len(layout) == 0 {
		return backend.RelocStats{}, nil
	}
	rs, err := rel.Relocate(layout)
	if err != nil {
		return rs, err
	}
	d.stats.Reorganizations++
	d.stats.LastRelocation = rs
	return rs, nil
}

// buildUnits runs the Dynamic Cluster Reorganization phase: heaviest
// consolidated links first, objects agglomerate into byte-bounded units.
func (d *DSTC) buildUnits(st backend.Backend) []*unit {
	maxBytes := d.params.MaxUnitBytes
	if maxBytes <= 0 {
		maxBytes = backend.PageSizeOf(st)
	}

	type wlink struct {
		p pair
		w float64
	}
	links := make([]wlink, 0, len(d.consolidated))
	for p, w := range d.consolidated {
		if w >= d.params.Tfc {
			links = append(links, wlink{p, w})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].w != links[j].w {
			return links[i].w > links[j].w
		}
		if links[i].p.src != links[j].p.src {
			return links[i].p.src < links[j].p.src
		}
		return links[i].p.dst < links[j].p.dst
	})

	sizeOf := func(oid backend.OID) int {
		sz, ok := st.SizeOf(oid)
		if !ok {
			return -1
		}
		return sz
	}

	unitOf := make(map[backend.OID]*unit)
	var units []*unit
	newUnit := func() *unit {
		u := &unit{in: make(map[backend.OID]bool)}
		units = append(units, u)
		return u
	}
	addTo := func(u *unit, oid backend.OID, size int) {
		u.members = append(u.members, oid)
		u.in[oid] = true
		u.bytes += size
		unitOf[oid] = u
	}

	for _, l := range links {
		sa, sb := sizeOf(l.p.src), sizeOf(l.p.dst)
		if sa < 0 || sb < 0 {
			continue // deleted objects leave stale statistics behind
		}
		ua, ub := unitOf[l.p.src], unitOf[l.p.dst]
		switch {
		case ua == nil && ub == nil:
			if sa+sb > maxBytes {
				continue
			}
			u := newUnit()
			addTo(u, l.p.src, sa)
			addTo(u, l.p.dst, sb)
			u.weight += l.w
		case ua != nil && ub == nil:
			if ua.bytes+sb <= maxBytes {
				addTo(ua, l.p.dst, sb)
				ua.weight += l.w
			}
		case ua == nil && ub != nil:
			if ub.bytes+sa <= maxBytes {
				addTo(ub, l.p.src, sa)
				ub.weight += l.w
			}
		case ua != ub:
			// Merge two existing units when the budget allows: the link
			// between them is strong enough to justify one unit.
			if ua.bytes+ub.bytes <= maxBytes {
				for _, m := range ub.members {
					ua.members = append(ua.members, m)
					ua.in[m] = true
					unitOf[m] = ua
				}
				ua.bytes += ub.bytes
				ua.weight += ub.weight + l.w
				ub.dead = true
			}
		default: // both already in the same unit
			ua.weight += l.w
		}
	}

	live := units[:0]
	for _, u := range units {
		if !u.dead && len(u.members) > 1 {
			live = append(live, u)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].weight != live[j].weight {
			return live[i].weight > live[j].weight
		}
		return live[i].members[0] < live[j].members[0]
	})
	if d.params.MaxUnits > 0 && len(live) > d.params.MaxUnits {
		live = live[:d.params.MaxUnits]
	}
	return live
}

// ConsolidatedWeight returns the current consolidated weight of the link
// src->dst (0 if absent). Exposed for tests and diagnostics.
func (d *DSTC) ConsolidatedWeight(src, dst backend.OID) float64 {
	return d.consolidated[pair{src, dst}]
}
