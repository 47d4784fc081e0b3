package main

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
	"ocb/internal/stats"
)

// tracedName is the driver the benchmark registers for traced runs. It opens
// the driver named by its "inner" option with the remaining options and times
// every Backend and Ranger call that crosses it.
const tracedName = "traced"

func init() {
	backend.Register(tracedName, openTraced)
}

// method indexes the calls the tracer times. The order is the order the
// metrics are printed in.
type method int

const (
	mAccess method = iota
	mAccessBatch
	mUpdate
	mCreate
	mDelete
	mCommit
	mDiskStats
	mScan
	mScanKey
	mSeek
	mSetKey
	numMethods
)

var methodNames = [numMethods]string{
	"access", "access_batch", "update", "create", "delete", "commit",
	"diskstats", "scan", "scan_key", "seek", "set_key",
}

// tracer aggregates spans per method: a traverse-paged run makes millions of
// backend calls, so a span is folded into a count and a total as it ends
// rather than stored. Commit alone keeps a sample, for its tail.
type tracer struct {
	calls [numMethods]atomic.Int64
	ns    [numMethods]atomic.Int64

	mu     sync.Mutex
	commit stats.Sample // µs
}

func (t *tracer) done(m method, start time.Time) {
	d := time.Since(start)
	t.calls[m].Add(1)
	t.ns[m].Add(int64(d))
	if m == mCommit {
		t.mu.Lock()
		t.commit.Add(float64(d) / 1e3)
		t.mu.Unlock()
	}
}

// reset zeroes the tracer, so that what it holds afterwards covers the
// measured phase alone.
func (t *tracer) reset() {
	for m := range t.calls {
		t.calls[m].Store(0)
		t.ns[m].Store(0)
	}
	t.mu.Lock()
	t.commit = stats.Sample{}
	t.mu.Unlock()
}

// spans is a tracer's content at one moment.
type spans struct {
	calls, ns   [numMethods]int64
	commitP99us float64
}

// snapshot copies the tracer, nil for a nil tracer. The checks that follow a
// measured phase call the store too; the snapshot is taken before them.
func (t *tracer) snapshot() *spans {
	if t == nil {
		return nil
	}
	s := new(spans)
	for m := range t.calls {
		s.calls[m], s.ns[m] = t.calls[m].Load(), t.ns[m].Load()
	}
	t.mu.Lock()
	if t.commit.N() > 0 {
		s.commitP99us = t.commit.P99()
	}
	t.mu.Unlock()
	return s
}

func (s *spans) totalCalls() (n int64) {
	for _, c := range s.calls {
		n += c
	}
	return n
}

func (s *spans) totalNs() (n int64) {
	for _, d := range s.ns {
		n += d
	}
	return n
}

// meanNs is the mean duration of one call of m, 0 when there was none.
func (s *spans) meanNs(m method) float64 {
	if s.calls[m] == 0 {
		return 0
	}
	return float64(s.ns[m]) / float64(s.calls[m])
}

// traced is the timing wrapper around one store.
type traced struct {
	inner backend.Backend
	t     *tracer
}

// tracerOf returns the tracer of a store opened through the traced driver,
// nil for any other store.
func tracerOf(b backend.Backend) *tracer {
	if h, ok := b.(interface{ tr() *tracer }); ok {
		return h.tr()
	}
	return nil
}

func openTraced(cfg backend.Config) (backend.Backend, error) {
	inner := cfg.Options["inner"]
	if inner == "" || inner == tracedName {
		return nil, fmt.Errorf("backend %q: option inner=<driver> is required", tracedName)
	}
	cfg.Options = maps.Clone(cfg.Options)
	delete(cfg.Options, "inner")
	b, err := backend.Open(inner, cfg)
	if err != nil {
		return nil, err
	}
	return wrapTraced(b, new(tracer)), nil
}

func (b *traced) tr() *tracer { return b.t }

func (b *traced) Create(payloadSize int) (backend.OID, error) {
	start := time.Now()
	oid, err := b.inner.Create(payloadSize)
	b.t.done(mCreate, start)
	return oid, err
}

func (b *traced) Access(oid backend.OID) error {
	start := time.Now()
	err := b.inner.Access(oid)
	b.t.done(mAccess, start)
	return err
}

func (b *traced) AccessBatch(oids []backend.OID) (int, error) {
	start := time.Now()
	n, err := b.inner.AccessBatch(oids)
	b.t.done(mAccessBatch, start)
	return n, err
}

func (b *traced) Update(oid backend.OID) error {
	start := time.Now()
	err := b.inner.Update(oid)
	b.t.done(mUpdate, start)
	return err
}

func (b *traced) Delete(oid backend.OID) error {
	start := time.Now()
	err := b.inner.Delete(oid)
	b.t.done(mDelete, start)
	return err
}

func (b *traced) Commit() error {
	start := time.Now()
	err := b.inner.Commit()
	b.t.done(mCommit, start)
	return err
}

func (b *traced) DiskStats() disk.Stats {
	start := time.Now()
	s := b.inner.DiskStats()
	b.t.done(mDiskStats, start)
	return s
}

// The remaining Backend methods are off the measured path and pass through
// untimed.
func (b *traced) Exists(oid backend.OID) bool        { return b.inner.Exists(oid) }
func (b *traced) SizeOf(oid backend.OID) (int, bool) { return b.inner.SizeOf(oid) }
func (b *traced) DropCache()                         { b.inner.DropCache() }
func (b *traced) Stats() backend.Stats               { return b.inner.Stats() }
func (b *traced) ResetStats()                        { b.inner.ResetStats() }

// The optional capabilities. Each is a type of its own, embedded only when the
// inner store has the capability: were traced to embed backend.Backend, or to
// carry all of these methods itself, a type assertion on the wrapper would
// answer differently from one on the store it wraps, and a workload would skip
// an operation, or attempt one, that it does not on the untraced store.
// Checker and IOClassifier are not timed, so the interfaces themselves are
// embedded.

type tracedRanger struct {
	rg backend.Ranger
	t  *tracer
}

func (r tracedRanger) Scan(lo, hi backend.OID, limit int, desc bool, dst []backend.OID) ([]backend.OID, error) {
	start := time.Now()
	res, err := r.rg.Scan(lo, hi, limit, desc, dst)
	r.t.done(mScan, start)
	return res, err
}

func (r tracedRanger) Seek(oid backend.OID, desc bool) (backend.OID, bool) {
	start := time.Now()
	res, ok := r.rg.Seek(oid, desc)
	r.t.done(mSeek, start)
	return res, ok
}

func (r tracedRanger) SetKey(oid backend.OID, key int64) error {
	start := time.Now()
	err := r.rg.SetKey(oid, key)
	r.t.done(mSetKey, start)
	return err
}

func (r tracedRanger) ScanKey(lo, hi int64, limit int, dst []backend.OID) ([]backend.OID, error) {
	start := time.Now()
	res, err := r.rg.ScanKey(lo, hi, limit, dst)
	r.t.done(mScanKey, start)
	return res, err
}

// tracedDurable reopens into a wrapper that shares the tracer, so a store
// keeps its counts across Close and Reopen.
type tracedDurable struct {
	d backend.Durable
	t *tracer
}

func (d tracedDurable) Close() error { return d.d.Close() }

func (d tracedDurable) Reopen() (backend.Backend, error) {
	b, err := d.d.Reopen()
	if err != nil {
		return nil, err
	}
	return wrapTraced(b, d.t), nil
}

// wrapTraced wraps b so that the result has exactly b's optional capabilities
// among Ranger, Checker, Durable and IOClassifier: one struct type per subset.
func wrapTraced(b backend.Backend, t *tracer) backend.Backend {
	base := &traced{inner: b, t: t}
	rg, hasR := b.(backend.Ranger)
	ck, hasC := b.(backend.Checker)
	du, hasD := b.(backend.Durable)
	cl, hasI := b.(backend.IOClassifier)
	r, c, d, i := tracedRanger{rg, t}, ck, tracedDurable{du, t}, cl
	key := 0
	for bit, has := range []bool{hasR, hasC, hasD, hasI} {
		if has {
			key |= 1 << bit
		}
	}
	switch key {
	case 0:
		return base
	case 1:
		return struct {
			*traced
			tracedRanger
		}{base, r}
	case 2:
		return struct {
			*traced
			backend.Checker
		}{base, c}
	case 3:
		return struct {
			*traced
			tracedRanger
			backend.Checker
		}{base, r, c}
	case 4:
		return struct {
			*traced
			tracedDurable
		}{base, d}
	case 5:
		return struct {
			*traced
			tracedRanger
			tracedDurable
		}{base, r, d}
	case 6:
		return struct {
			*traced
			backend.Checker
			tracedDurable
		}{base, c, d}
	case 7:
		return struct {
			*traced
			tracedRanger
			backend.Checker
			tracedDurable
		}{base, r, c, d}
	case 8:
		return struct {
			*traced
			backend.IOClassifier
		}{base, i}
	case 9:
		return struct {
			*traced
			tracedRanger
			backend.IOClassifier
		}{base, r, i}
	case 10:
		return struct {
			*traced
			backend.Checker
			backend.IOClassifier
		}{base, c, i}
	case 11:
		return struct {
			*traced
			tracedRanger
			backend.Checker
			backend.IOClassifier
		}{base, r, c, i}
	case 12:
		return struct {
			*traced
			tracedDurable
			backend.IOClassifier
		}{base, d, i}
	case 13:
		return struct {
			*traced
			tracedRanger
			tracedDurable
			backend.IOClassifier
		}{base, r, d, i}
	case 14:
		return struct {
			*traced
			backend.Checker
			tracedDurable
			backend.IOClassifier
		}{base, c, d, i}
	default:
		return struct {
			*traced
			tracedRanger
			backend.Checker
			tracedDurable
			backend.IOClassifier
		}{base, r, c, d, i}
	}
}
