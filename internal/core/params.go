// Package core implements the Object Clustering Benchmark (OCB) itself:
// the parameterized database of Section 3.2 (Fig. 1 and Fig. 2, Table 1),
// the clustering-oriented workload of Section 3.3 (Fig. 3, Table 2), the
// multi-client cold/warm execution protocol, and the metrics OCB reports
// (response time, accessed objects and I/Os, globally and per transaction
// type).
package core

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// Params carries every OCB parameter: the database parameters of Table 1,
// the workload parameters of Table 2, and the testbed geometry (page size,
// buffer) that the paper fixes by hardware choice.
//
// Classes are numbered 1..NC; class 0 is the NIL class (reachable when
// INFCLASS = 0, which makes NIL references possible, as in the paper's
// Table 3 preset). Objects are numbered 1..NO.
type Params struct {
	// ---- Database parameters (Table 1) ----

	// NC is the number of classes in the database. Default 20.
	NC int
	// MaxNRef is MAXNREF(i), the maximum number of references per class.
	// MaxNRefPerClass overrides it per class (1-based index, entry 0
	// unused) when non-nil. Default 10.
	MaxNRef         int
	MaxNRefPerClass []int
	// BaseSize is BASESIZE(i), the per-class increment size in bytes used
	// to compute InstanceSize after the inheritance graph is processed.
	// BaseSizePerClass overrides it per class when non-nil. Default 50.
	BaseSize         int
	BaseSizePerClass []int
	// NO is the total number of objects. Default 20000.
	NO int
	// NRefT is the number of reference types (inheritance, aggregation,
	// user associations, ...). Default 4.
	NRefT int
	// NumAcyclicTypes declares reference types 1..NumAcyclicTypes as
	// hierarchies that do not allow cycles (the consistency step of the
	// generation algorithm suppresses cycles from them). Type 1 is the
	// inheritance type whose edges propagate BASESIZE into InstanceSize.
	// Default 2 (inheritance + composition).
	NumAcyclicTypes int
	// InfClass and SupClass bound the set of referenced classes, modeling
	// locality of reference at the class level. Defaults 1 and NC.
	// InfClass = 0 allows NIL class references.
	InfClass, SupClass int
	// InfRef and SupRef bound the set of referenced objects (OO1-style
	// locality of reference). Defaults 1 and NO.
	InfRef, SupRef int
	// Dist1..Dist4 are the random distributions of Table 1:
	// reference types, class references, objects in classes, and object
	// references. All default to uniform.
	Dist1, Dist2, Dist3, Dist4 lewis.Distribution

	// ---- Workload parameters (Table 2) ----

	// SetDepth, SimDepth, HieDepth, StoDepth are the depths of the four
	// transaction types. Defaults 3, 3, 5, 50.
	SetDepth, SimDepth, HieDepth, StoDepth int
	// ColdN and HotN are the transaction counts of the cold and warm runs.
	// Defaults 1000 and 10000.
	ColdN, HotN int
	// Think is the average latency between transactions. Default 0.
	Think time.Duration
	// PSet, PSimple, PHier, PStoch are the occurrence probabilities of the
	// four transaction types; they must sum to 1. Defaults 0.25 each.
	PSet, PSimple, PHier, PStoch float64
	// PReverse is the probability that a transaction runs reversed,
	// ascending the graphs through backward references. Default 0
	// (an OCB extension hook; the paper's §3.3 defines reversibility).
	PReverse float64
	// PUpdate, PInsert, PDelete, PScan and PRange are the occurrence
	// probabilities of the generic transaction set of the paper's
	// Section 5 extension (operations initially discarded because they
	// cannot benefit from clustering: updates, creations/deletions,
	// HyperModel's Sequential Scan and Range Lookup). All default to 0,
	// which keeps the workload the paper's clustering-oriented one; the
	// sum of all nine probabilities must be 1.
	PUpdate, PInsert, PDelete, PScan, PRange float64
	// Dist5 is RAND5, the transaction root object distribution.
	// Default uniform.
	Dist5 lewis.Distribution
	// ClientN is the number of concurrent benchmark clients. Default 1.
	ClientN int

	// ---- Testbed geometry (Section 4.2 material conditions) ----

	// Backend names the system-under-test driver the database is built
	// on ("" selects "paged", the benchmark's own store). Any driver
	// registered with the backend package is valid; the workload runs
	// unchanged against all of them.
	Backend string
	// BackendOptions are driver-specific key=value settings, validated by
	// the driver (unknown keys are rejected naming the valid ones). They
	// take precedence over the typed geometry fields below.
	BackendOptions map[string]string
	// PageSize is the disk page size in bytes for paged backends.
	// Default 4096. Backends without pages ignore it.
	PageSize int
	// BufferPages is the number of page frames of main memory. Default 512.
	BufferPages int

	// Seed drives all random generation. Runs with equal Params (including
	// Seed) are identical bit for bit.
	Seed int64
}

// DefaultParams returns the paper's default parameterization: Table 1 for
// the database, Table 2 for the workload, Section 4.2 for the testbed.
func DefaultParams() Params {
	return Params{
		NC:              20,
		MaxNRef:         10,
		BaseSize:        50,
		NO:              20000,
		NRefT:           4,
		NumAcyclicTypes: 2,
		InfClass:        1,
		SupClass:        20,
		InfRef:          1,
		SupRef:          20000,
		Dist1:           lewis.Uniform{},
		Dist2:           lewis.Uniform{},
		Dist3:           lewis.Uniform{},
		Dist4:           lewis.Uniform{},

		SetDepth: 3,
		SimDepth: 3,
		HieDepth: 5,
		StoDepth: 50,
		ColdN:    1000,
		HotN:     10000,
		Think:    0,
		PSet:     0.25,
		PSimple:  0.25,
		PHier:    0.25,
		PStoch:   0.25,
		Dist5:    lewis.Uniform{},
		ClientN:  1,

		PageSize:    4096,
		BufferPages: 512,

		Seed: 1998, // EDBT '98
	}
}

// CluBParams returns the Table 3 parameterization that tunes OCB's database
// to approximate DSTC-CluB's (itself derived from OO1): two classes (Part,
// Connection), three references of constant type, constant class targeting,
// round-robin class membership, and the OO1 "special" reference-zone object
// distribution. Used by the Table 4 genericity experiment.
func CluBParams() Params {
	p := DefaultParams()
	p.NC = 2
	p.MaxNRef = 3
	p.BaseSize = 50
	p.NO = 20000
	p.NRefT = 3
	p.InfClass = 0 // NIL references possible, per Table 3
	p.SupClass = 2
	// OO1's RefZone: parts connect to parts with ids in
	// [Id-RefZone, Id+RefZone] with probability 0.9.
	p.InfRef = 1
	p.SupRef = 20000
	// All references are of type 3 — a user association, the one kind the
	// consistency step leaves cyclic, matching OO1's part-connection graph.
	p.Dist1 = lewis.Constant{Offset: 2}
	p.Dist2 = lewis.Constant{Offset: 1} // all classes reference class 1 (parts)
	p.Dist3 = &lewis.RoundRobin{}       // objects spread over classes in fixed proportion
	// OO1's locality of reference: 90% of links land within RefZone of the
	// referencing part's id. OO1 sizes the zone at 1% of the database.
	p.Dist4 = lewis.RefZone{Zone: p.NO / 100, PLocal: 0.9}

	// CluB runs a single transaction type: OO1's depth-first traversal
	// (depth 7 from the root part).
	p.PSet = 0
	p.PSimple = 1
	p.PHier = 0
	p.PStoch = 0
	p.SimDepth = 7
	return p
}

// Validate reports the first inconsistency in the parameter set.
func (p Params) Validate() error {
	switch {
	case p.NC < 1:
		return fmt.Errorf("ocb: NC = %d, need >= 1", p.NC)
	case p.NO < 1:
		return fmt.Errorf("ocb: NO = %d, need >= 1", p.NO)
	case p.MaxNRef < 0:
		return fmt.Errorf("ocb: MAXNREF = %d, need >= 0", p.MaxNRef)
	case p.NRefT < 1:
		return fmt.Errorf("ocb: NREFT = %d, need >= 1", p.NRefT)
	case p.NumAcyclicTypes < 0 || p.NumAcyclicTypes > p.NRefT:
		return fmt.Errorf("ocb: NumAcyclicTypes = %d, need 0..NREFT", p.NumAcyclicTypes)
	case p.InfClass < 0 || p.InfClass > p.SupClass || p.SupClass > p.NC:
		return fmt.Errorf("ocb: class interval [%d, %d] invalid for NC = %d", p.InfClass, p.SupClass, p.NC)
	case p.InfRef < 1 || p.InfRef > p.SupRef || p.SupRef > p.NO:
		return fmt.Errorf("ocb: object interval [%d, %d] invalid for NO = %d", p.InfRef, p.SupRef, p.NO)
	case p.BaseSize < 0:
		return fmt.Errorf("ocb: BASESIZE = %d, need >= 0", p.BaseSize)
	}
	if p.MaxNRefPerClass != nil && len(p.MaxNRefPerClass) != p.NC+1 {
		return fmt.Errorf("ocb: MaxNRefPerClass needs length NC+1 = %d, got %d", p.NC+1, len(p.MaxNRefPerClass))
	}
	if p.BaseSizePerClass != nil && len(p.BaseSizePerClass) != p.NC+1 {
		return fmt.Errorf("ocb: BaseSizePerClass needs length NC+1 = %d, got %d", p.NC+1, len(p.BaseSizePerClass))
	}
	if p.Dist1 == nil || p.Dist2 == nil || p.Dist3 == nil || p.Dist4 == nil || p.Dist5 == nil {
		return fmt.Errorf("ocb: all five distributions must be set (use DefaultParams as base)")
	}
	switch {
	case p.SetDepth < 0 || p.SimDepth < 0 || p.HieDepth < 0 || p.StoDepth < 0:
		return fmt.Errorf("ocb: negative transaction depth")
	case p.ColdN < 1 || p.HotN < 1:
		return fmt.Errorf("ocb: COLDN = %d, HOTN = %d, need >= 1 each", p.ColdN, p.HotN)
	case p.ClientN < 1:
		return fmt.Errorf("ocb: CLIENTN = %d, need >= 1", p.ClientN)
	case p.Think < 0:
		return fmt.Errorf("ocb: negative THINK time")
	case p.PReverse < 0 || p.PReverse > 1:
		return fmt.Errorf("ocb: PReverse = %v, need [0, 1]", p.PReverse)
	}
	sum := p.PSet + p.PSimple + p.PHier + p.PStoch +
		p.PUpdate + p.PInsert + p.PDelete + p.PScan + p.PRange
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ocb: transaction probabilities sum to %v, need 1", sum)
	}
	for _, pr := range []float64{p.PSet, p.PSimple, p.PHier, p.PStoch,
		p.PUpdate, p.PInsert, p.PDelete, p.PScan, p.PRange} {
		if pr < 0 {
			return fmt.Errorf("ocb: negative transaction probability")
		}
	}
	if p.PageSize < 0 || p.BufferPages < 0 {
		return fmt.Errorf("ocb: negative testbed geometry")
	}
	return nil
}

// backendName resolves the effective backend driver name.
func (p Params) backendName() string {
	if p.Backend == "" {
		return backend.DefaultName
	}
	return p.Backend
}

// MaxNRefOf returns MAXNREF(class).
func (p Params) MaxNRefOf(class int) int {
	if p.MaxNRefPerClass != nil {
		return p.MaxNRefPerClass[class]
	}
	return p.MaxNRef
}

// BaseSizeOf returns BASESIZE(class).
func (p Params) BaseSizeOf(class int) int {
	if p.BaseSizePerClass != nil {
		return p.BaseSizePerClass[class]
	}
	return p.BaseSize
}

// isAcyclicType reports whether reference type t is a hierarchy that must
// stay cycle-free.
func (p Params) isAcyclicType(t int) bool { return t >= 1 && t <= p.NumAcyclicTypes }

// isInheritanceType reports whether reference type t propagates BASESIZE
// through the inheritance graph.
func (p Params) isInheritanceType(t int) bool { return t == 1 && p.NumAcyclicTypes >= 1 }
