// Package cluster defines the clustering-policy abstraction OCB evaluates,
// plus reference baseline policies.
//
// The paper's motivation (§1) is to "compare clustering policies together,
// instead of comparing them to a non-clustering policy", on the same basis.
// This package provides that basis: a Policy observes the workload (link
// crossings and transaction roots — exactly the statistics DSTC gathers)
// and, when asked, computes a new physical placement that the store applies
// via Relocate, with the I/O cost charged to the clustering-overhead class.
//
// The non-clustering control every experiment needs is the nil Policy:
// it observes nothing (runners skip observation) and Reorganize with it
// moves nothing. Baselines provided here:
//
//   - Sequential: defragmentation in OID order (placement ignores usage).
//   - ByClass: type-based clustering (groups instances of a class), the
//     classic static strategy of early OODBs (ORION, O2).
//   - Greedy: weighted-graph partitioning over observed link statistics, in
//     the spirit of Tsangaris & Naughton's stochastic clustering baselines.
//
// The DSTC technique itself lives in package dstc; it implements the same
// Policy interface.
package cluster

import (
	"fmt"
	"sort"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// Policy is a database clustering strategy under benchmark.
//
// Implementations observe the running workload through ObserveLink,
// ObserveRoot and EndTransaction, and reorganize the database when
// Reorganize is called (OCB triggers it "when the system is idle" between
// measurement phases).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// ObserveLink records a navigation from src to dst along an
	// inter-object reference.
	ObserveLink(src, dst backend.OID)
	// ObserveRoot records the root object of a transaction.
	ObserveRoot(root backend.OID)
	// EndTransaction marks a transaction boundary (DSTC's observation
	// periods are counted in transactions).
	EndTransaction()
	// Reorganize computes a placement from gathered statistics and applies
	// it to the backend (which charges the I/O to the clustering class).
	// On a backend without the backend.Relocator capability it returns an
	// error wrapping backend.ErrNotSupported; experiments report the skip
	// instead of failing.
	Reorganize(s backend.Backend) (backend.RelocStats, error)
	// Reset discards all gathered statistics.
	Reset()
}

// Reorganize runs the policy's physical reorganization on b — the step
// OCB triggers "when the system is idle" between measurement phases — and
// returns its cost. A nil policy reorganizes nothing. Everything the step
// does is clustering overhead, so its I/O is charged to disk.Clustering
// for the duration on backends that expose the classification hook (the
// paged driver also classifies inside Relocate itself; this covers
// drivers that do not).
func Reorganize(p Policy, b backend.Backend) (backend.RelocStats, error) {
	if p == nil {
		return backend.RelocStats{}, nil
	}
	backend.SetIOClass(b, disk.Clustering)
	defer backend.SetIOClass(b, disk.Transaction)
	return p.Reorganize(b)
}

// Enumerator lists all live objects, in a stable order, for placement
// policies that relocate the whole database.
type Enumerator func() []backend.OID

// Sequential reorganizes the whole database into ascending OID order. It
// uses no usage statistics; it models plain defragmentation.
type Sequential struct {
	Objects Enumerator
}

// Name implements Policy.
func (*Sequential) Name() string { return "sequential" }

// ObserveLink implements Policy.
func (*Sequential) ObserveLink(_, _ backend.OID) {}

// ObserveRoot implements Policy.
func (*Sequential) ObserveRoot(backend.OID) {}

// EndTransaction implements Policy.
func (*Sequential) EndTransaction() {}

// Reset implements Policy.
func (*Sequential) Reset() {}

// Reorganize implements Policy.
func (s *Sequential) Reorganize(st backend.Backend) (backend.RelocStats, error) {
	rel, err := backend.AsRelocator(st)
	if err != nil {
		return backend.RelocStats{}, err
	}
	if s.Objects == nil {
		return backend.RelocStats{}, fmt.Errorf("cluster: Sequential needs an object enumerator")
	}
	oids := append([]backend.OID(nil), s.Objects()...)
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return rel.Relocate([][]backend.OID{oids})
}

// ByClass clusters all instances of the same class contiguously — static
// type-based clustering. Label maps an object to its class identifier.
type ByClass struct {
	Objects Enumerator
	Label   func(backend.OID) (int, bool)
}

// Name implements Policy.
func (*ByClass) Name() string { return "byclass" }

// ObserveLink implements Policy.
func (*ByClass) ObserveLink(_, _ backend.OID) {}

// ObserveRoot implements Policy.
func (*ByClass) ObserveRoot(backend.OID) {}

// EndTransaction implements Policy.
func (*ByClass) EndTransaction() {}

// Reset implements Policy.
func (*ByClass) Reset() {}

// Reorganize implements Policy.
func (b *ByClass) Reorganize(st backend.Backend) (backend.RelocStats, error) {
	rel, err := backend.AsRelocator(st)
	if err != nil {
		return backend.RelocStats{}, err
	}
	if b.Objects == nil || b.Label == nil {
		return backend.RelocStats{}, fmt.Errorf("cluster: ByClass needs an enumerator and a labeler")
	}
	groups := make(map[int][]backend.OID)
	var classes []int
	for _, oid := range b.Objects() {
		c, ok := b.Label(oid)
		if !ok {
			continue
		}
		if _, seen := groups[c]; !seen {
			classes = append(classes, c)
		}
		groups[c] = append(groups[c], oid)
	}
	sort.Ints(classes)
	layout := make([][]backend.OID, 0, len(classes))
	for _, c := range classes {
		g := groups[c]
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		layout = append(layout, g)
	}
	return rel.Relocate(layout)
}
