// Package query implements the ordered-index workload category: the
// operations a backend can only serve well with a Ranger — OID range
// scans, attribute-predicate selections over the keyed index, and
// skewed point lookups resolved through the index rather than the
// dictionary. It is the benchmark face of the Ranger capability the
// same way package oo1 is the benchmark face of plain navigation.
//
// The database is deliberately structureless: NumObjects plain objects
// with sizes drawn uniformly from [ObjMin, ObjMax] and an integer
// attribute key drawn uniformly from [1, Classes]. Both draws come from
// one seed-derived stream and are consumed identically on every
// backend, so the generated object base — OIDs, sizes, keys — is
// bit-identical across drivers; only whether the keys also land in an
// ordered index depends on the Ranger capability.
//
// The workload is three operations, each repeated NRuns times per
// client in fixed-program mode:
//
//   - range-scan: scan a ScanSpan-wide OID window off the ordered
//     index, then fault every result (index reads charge no I/O; the
//     AccessBatch prices the pointed-to objects).
//   - attr-select: the predicate "key between k and k+KeySpan-1" off
//     the attribute index, then fault the selected objects.
//   - hot-lookup: Lookups point lookups per run, targets drawn from a
//     Zipf distribution with skew HotSkew (rank 1 is OID 1), each
//     resolved with Seek and queued on the client's access stream, which
//     faults the run's lookups in one AccessBatch — the hot-key pattern
//     an ordered index serves from its upper levels.
//
// On a backend without the Ranger capability every operation reports a
// capability skip (backend.ErrNoRanger wraps backend.ErrNotSupported,
// which the engine records as "skipped" rather than failing the run).
package query

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// Params sizes the query database and workload.
type Params struct {
	// NumObjects is the object count. Default 20000.
	NumObjects int
	// Classes is the attribute-key domain: keys are drawn uniformly from
	// [1, Classes]. Default 50 (so ~400 objects share a key at defaults).
	Classes int
	// ObjMin and ObjMax bound the uniform object-size draw. Default
	// 50..200 bytes.
	ObjMin, ObjMax int
	// ScanSpan is the OID width of one range scan. Default 200.
	ScanSpan int
	// KeySpan is the key width of one attribute selection. Default 3.
	KeySpan int
	// Lookups is the number of point lookups one hot-lookup run performs.
	// Default 100.
	Lookups int
	// HotSkew is the Zipf skew of the hot-lookup target distribution.
	// Default 0.86 (the classic "80/20" skew).
	HotSkew float64
	// NRuns is how many times each operation is repeated. Default 10.
	NRuns int

	// Backend selects the system-under-test driver ("" = "paged");
	// BackendOptions are driver-specific key=value settings. The geometry
	// fields below apply to paged backends and are ignored by others.
	Backend        string
	BackendOptions map[string]string
	PageSize       int
	BufferPages    int

	// Seed drives all generation and workload randomness.
	Seed int64
}

// DefaultParams returns the canonical query-workload configuration.
func DefaultParams() Params {
	return Params{
		NumObjects:  20000,
		Classes:     50,
		ObjMin:      50,
		ObjMax:      200,
		ScanSpan:    200,
		KeySpan:     3,
		Lookups:     100,
		HotSkew:     0.86,
		NRuns:       10,
		PageSize:    4096,
		BufferPages: 512,
		Seed:        47,
	}
}

// Validate reports the first bad parameter.
func (p Params) Validate() error {
	switch {
	case p.NumObjects < 2:
		return fmt.Errorf("query: NumObjects = %d", p.NumObjects)
	case p.Classes < 1:
		return fmt.Errorf("query: Classes = %d", p.Classes)
	case p.ObjMin < 1 || p.ObjMax < p.ObjMin:
		return fmt.Errorf("query: object sizes [%d, %d]", p.ObjMin, p.ObjMax)
	case p.ScanSpan < 1 || p.ScanSpan > p.NumObjects:
		return fmt.Errorf("query: ScanSpan = %d with %d objects", p.ScanSpan, p.NumObjects)
	case p.KeySpan < 1 || p.KeySpan > p.Classes:
		return fmt.Errorf("query: KeySpan = %d with %d classes", p.KeySpan, p.Classes)
	case p.Lookups < 1 || p.NRuns < 1:
		return fmt.Errorf("query: bad workload counts")
	case p.HotSkew <= 0:
		return fmt.Errorf("query: HotSkew = %v", p.HotSkew)
	}
	return nil
}

// Database is a generated query object base.
type Database struct {
	P     Params
	Store backend.Backend
	// GenTime is the database creation wall-clock time.
	GenTime time.Duration

	// rg is the store's ordered index, nil when the backend has no
	// Ranger capability (every op then reports a skip).
	rg   backend.Ranger
	zipf *lewis.Zipf
	src  *lewis.Source
}

// Indexed reports whether the store keeps an ordered index — when
// false, every workload operation will record a capability skip.
func (db *Database) Indexed() bool { return db.rg != nil }

// Generate builds the query database: NumObjects objects with sizes and
// attribute keys drawn from one seed-derived stream. The draws are
// consumed identically whether or not the backend keeps an ordered
// index, so the object base is bit-identical across drivers; keys are
// installed into the index only when the Ranger capability is present.
func Generate(p Params) (db *Database, err error) {
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st, err := backend.Open(p.Backend, backend.Config{
		PageSize:    p.PageSize,
		BufferPages: p.BufferPages,
		Options:     p.BackendOptions,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = backend.Shutdown(st)
		}
	}()
	db = &Database{
		P:     p,
		Store: st,
		zipf:  lewis.NewZipf(p.HotSkew),
		src:   lewis.New(p.Seed),
	}
	if rg, err := backend.AsRanger(st); err == nil {
		db.rg = rg
	}
	for i := 1; i <= p.NumObjects; i++ {
		// Both draws happen on every backend so the stream stays aligned.
		size := db.src.IntRange(p.ObjMin, p.ObjMax)
		key := int64(db.src.IntRange(1, p.Classes))
		oid, err := st.Create(size)
		if err != nil {
			return nil, fmt.Errorf("query: creating object %d: %w", i, err)
		}
		if db.rg != nil {
			if err := db.rg.SetKey(oid, key); err != nil {
				return nil, fmt.Errorf("query: keying object %d: %w", oid, err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		return nil, err
	}
	//ocblint:allow determinism -- harness timing, not op logic
	db.GenTime = time.Since(start)
	st.ResetStats()
	return db, nil
}

// Scenario expresses the query workload as an engine spec: three
// capability-gated read-only operations, each NRuns times per client.
// All randomness comes from the client's private stream, so per-client
// op draws are pure functions of the seed regardless of scheduling; the
// ops never mutate the store or the database, so the spec needs no lock.
func (db *Database) Scenario(clients int) *workload.Spec {
	p := db.P
	ops := []workload.Op{
		{Name: "range-scan", Weight: 1, Count: p.NRuns, Run: func(ctx *workload.Ctx) (int, error) {
			if db.rg == nil {
				return 0, backend.ErrNoRanger
			}
			lo := backend.OID(ctx.Src.IntRange(1, p.NumObjects-p.ScanSpan+1))
			res, err := db.rg.Scan(lo, lo+backend.OID(p.ScanSpan)-1, 0, false, ctx.Batch[:0])
			if err != nil {
				return 0, err
			}
			ctx.Batch = res[:0]
			return db.Store.AccessBatch(res)
		}},
		{Name: "attr-select", Weight: 1, Count: p.NRuns, Run: func(ctx *workload.Ctx) (int, error) {
			if db.rg == nil {
				return 0, backend.ErrNoRanger
			}
			loK := int64(ctx.Src.IntRange(1, p.Classes-p.KeySpan+1))
			res, err := db.rg.ScanKey(loK, loK+int64(p.KeySpan)-1, 0, ctx.Batch[:0])
			if err != nil {
				return 0, err
			}
			ctx.Batch = res[:0]
			return db.Store.AccessBatch(res)
		}},
		{Name: "hot-lookup", Weight: 1, Count: p.NRuns, Run: func(ctx *workload.Ctx) (int, error) {
			if db.rg == nil {
				return 0, backend.ErrNoRanger
			}
			s := ctx.State.(*workload.AccessStream)
			for i := 0; i < p.Lookups; i++ {
				target := backend.OID(db.zipf.Draw(ctx.Src, 1, p.NumObjects, 0))
				oid, ok := db.rg.Seek(target, false)
				if !ok {
					// Past the maximum live OID: resolve to the largest.
					if oid, ok = db.rg.Seek(target, true); !ok {
						return s.End(fmt.Errorf("query: index is empty at lookup %d", i))
					}
				}
				if err := s.Visit(backend.NilOID, oid); err != nil {
					return s.End(err)
				}
			}
			return s.End(nil)
		}},
	}
	return &workload.Spec{
		Name: "query",
		Description: "ordered-index queries: range scans, attribute selections, " +
			"zipfian hot-key lookups (capability-gated on Ranger)",
		Clients: clients,
		Seed:    p.Seed,
		Backend: db.Store,
		Ops:     ops,
		NewClient: func(int, *lewis.Source) any {
			return &workload.AccessStream{Store: db.Store}
		},
	}
}
