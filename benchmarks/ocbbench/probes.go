package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/disk"
	"ocb/internal/stats"
	"ocb/internal/store"
	"ocb/internal/wire"
	"ocb/internal/workload"
)

// probeObjects and probePayload size the stores the probes build: 20 000
// objects of 216 bytes with their header, 18 to a 4 KB page, 1112 pages.
const (
	probeObjects = 20000
	probePayload = 200
)

// probe times fixed-count loops over the layers' exported functions.
type probe struct {
	// rounds is how many times each loop runs; the median round is
	// reported. scale divides the loop lengths for the smoke test.
	rounds, scale int
	m             map[string]float64
}

// nsPerCall runs f(0..n-1) p.rounds times and returns the median round's
// mean time per call, in ns.
func (p *probe) nsPerCall(n int, f func(i int)) float64 {
	if n /= p.scale; n < 1 {
		n = 1
	}
	per := make([]float64, p.rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// spread maps i onto 1..n so that successive values are far apart: the
// probes' stand-in for a random access pattern, the same on every run.
func spread(i, n int) int { return (i*7919)%n + 1 }

// runProbes returns every probe metric. The probes do not depend on the
// workload or the seed: they show what one call into a layer costs on this
// machine, so that a change in a workload's numbers can be laid beside the
// change in its layers'.
func runProbes(quick bool) (map[string]float64, error) {
	p := &probe{rounds: 5, scale: 1, m: make(map[string]float64)}
	if quick {
		p.rounds, p.scale = 1, 20
	}
	for _, f := range []func() error{
		p.engine, p.stats, p.store, p.buffer, p.waldisk, p.wire, p.btree,
	} {
		if err := f(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return p.m, nil
}

// engine times the workload engine's step around an operation that does
// nothing, on a store that does nothing.
func (p *probe) engine() error {
	b, err := backend.Open("flatmem", backend.Config{})
	if err != nil {
		return err
	}
	n := 1000000 / p.scale
	per := make([]float64, p.rounds)
	for r := range per {
		res, err := workload.Run(&workload.Spec{
			Name: "step-probe", Backend: b, Measured: n,
			Ops: []workload.Op{{Name: "noop", Weight: 1, Run: func(*workload.Ctx) (int, error) { return 0, nil }}},
		})
		if err != nil {
			return err
		}
		per[r] = float64(res.Duration.Nanoseconds()) / float64(n)
	}
	p.m["workload.step_ns"] = median(per)
	return nil
}

// stats times what the engine adds to per operation, and the first quantile
// of a full reservoir, which sorts it.
func (p *probe) stats() error {
	const n = stats.DefaultSampleCap
	var adds, quantiles []float64
	for r := 0; r < 4*p.rounds; r++ {
		var s stats.Sample
		start := time.Now()
		for i := 0; i < n; i++ {
			s.Add(float64(spread(i, n)))
		}
		adds = append(adds, float64(time.Since(start).Nanoseconds())/n)
		start = time.Now()
		s.Quantile(0.99)
		quantiles = append(quantiles, float64(time.Since(start).Nanoseconds())/1e3)
	}
	p.m["stats.sample_add_ns"] = median(adds)
	p.m["stats.quantile_us"] = median(quantiles)
	var w stats.Welford
	p.m["stats.welford_add_ns"] = p.nsPerCall(1<<20, func(i int) { w.Add(float64(i & 1023)) })
	return nil
}

// probeStore opens the paged store with the given buffer and fills it.
func probeStore(bufferPages int) (*store.Store, error) {
	s, err := store.Open(store.Config{PageSize: disk.DefaultPageSize, BufferPages: bufferPages})
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeObjects; i++ {
		if _, err := s.Create(probePayload); err != nil {
			return nil, err
		}
	}
	return s, s.Commit()
}

// store times the paged store's Access with every page resident and with
// almost none, its batch path, and the rebuild of the ordered index that the
// first scan after a delete pays.
func (p *probe) store() error {
	hit, err := probeStore(2048)
	if err != nil {
		return err
	}
	miss, err := probeStore(16)
	if err != nil {
		return err
	}
	var failed error
	access := func(s *store.Store) func(int) {
		return func(i int) {
			if err := s.Access(backend.OID(spread(i, probeObjects))); err != nil {
				failed = err
			}
		}
	}
	for i := 0; i < probeObjects; i++ {
		access(hit)(i) // fault every page in
	}
	p.m["store.access_hit_ns"] = p.nsPerCall(200000, access(hit))
	p.m["store.access_miss_ns"] = p.nsPerCall(100000, access(miss))

	batch := make([]backend.OID, 512)
	p.m["store.access_batch_ns_per_oid"] = p.nsPerCall(400, func(i int) {
		for k := range batch {
			batch[k] = backend.OID(spread(i*len(batch)+k, probeObjects))
		}
		if _, err := hit.AccessBatch(batch); err != nil {
			failed = err
		}
	}) / float64(len(batch))

	var rebuilds []float64
	dst := make([]backend.OID, 0, 1)
	for r := 0; r < 3*p.rounds; r++ {
		if err := hit.Delete(backend.OID(probeObjects - r)); err != nil {
			return err
		}
		start := time.Now()
		if _, err := hit.Scan(1, backend.NilOID, 1, false, dst); err != nil {
			return err
		}
		rebuilds = append(rebuilds, float64(time.Since(start).Nanoseconds())/1e3)
	}
	p.m["store.ranger_rebuild_us"] = median(rebuilds)
	return failed
}

// buffer times the page pool's Get on a resident page and on an absent one,
// over a disk it also times alone, and the object cache's lookup and its
// insert when every insert evicts.
func (p *probe) buffer() error {
	const pages = 1024
	d := disk.New(disk.DefaultPageSize)
	for i := 0; i < pages; i++ {
		if err := d.Write(d.Allocate()); err != nil {
			return err
		}
	}
	var failed error
	page := func(i int) disk.PageID { return disk.PageID(spread(i, pages)) }
	p.m["disk.read_ns"] = p.nsPerCall(1000000, func(i int) {
		if _, err := d.Read(page(i)); err != nil {
			failed = err
		}
	})
	for _, c := range []struct {
		name   string
		frames int
	}{{"buffer.get_hit_ns", 2 * pages}, {"buffer.get_miss_ns", 16}} {
		pool, err := buffer.NewSharded(d, c.frames, buffer.LRU, 1)
		if err != nil {
			return err
		}
		get := func(i int) {
			if _, err := pool.Get(page(i)); err != nil {
				failed = err
			}
		}
		for i := 0; i < pages; i++ {
			get(i) // fault every page in, where they fit
		}
		p.m[c.name] = p.nsPerCall(500000, get)
	}

	const objects, size = 4096, 256
	resident, err := buffer.NewObjectCache(2*objects*size, 1)
	if err != nil {
		return err
	}
	for k := 1; k <= objects; k++ {
		resident.Add(uint64(k), size)
	}
	p.m["buffer.objcache_probe_ns"] = p.nsPerCall(1000000, func(i int) {
		if !resident.Probe(uint64(spread(i, objects))) {
			failed = fmt.Errorf("object cache lost a resident key")
		}
	})
	churning, err := buffer.NewObjectCache(64*size, 1)
	if err != nil {
		return err
	}
	key := uint64(0)
	p.m["buffer.objcache_add_evict_ns"] = p.nsPerCall(1000000, func(int) {
		key++
		churning.Add(key, size)
	})
	return failed
}

// waldisk times Create and Commit on an idle store with a flush per commit
// and with none. The difference is what a flush costs in this sandbox.
func (p *probe) waldisk() error {
	perCommit := func(fsync string) (float64, error) {
		dir, err := os.MkdirTemp("", "ocbbench-fsync-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		b, err := backend.Open("waldisk", backend.Config{Options: map[string]string{"dir": dir, "fsync": fsync}})
		if err != nil {
			return 0, err
		}
		defer backend.Shutdown(b)
		var failed error
		ns := p.nsPerCall(400, func(int) {
			if _, err := b.Create(probePayload); err != nil {
				failed = err
			}
			if err := b.Commit(); err != nil {
				failed = err
			}
		})
		return ns, failed
	}
	always, err := perCommit("always")
	if err != nil {
		return err
	}
	none, err := perCommit("none")
	if err != nil {
		return err
	}
	p.m["waldisk.fsync_probe_us"] = (always - none) / 1e3
	return nil
}

// wire times building and sending one request frame, reading and decoding
// one, and building a 512-object batch request.
func (p *probe) wire() error {
	var out wire.Buf
	var failed error
	p.m["wire.encode_ns"] = p.nsPerCall(2000000, func(i int) {
		out.Start(wire.OpAccess)
		out.U64(uint64(i))
		if err := out.Send(io.Discard); err != nil {
			failed = err
		}
	})

	var frame bytes.Buffer
	out.Start(wire.OpAccess)
	out.U64(1998)
	if err := out.Send(&frame); err != nil {
		return err
	}
	var rd bytes.Reader
	var buf []byte
	p.m["wire.decode_ns"] = p.nsPerCall(2000000, func(int) {
		rd.Reset(frame.Bytes())
		tag, payload, grown, err := wire.ReadFrame(&rd, buf)
		buf = grown
		r := wire.NewReader(payload)
		if oid := r.U64(); err != nil || tag != wire.OpAccess || oid != 1998 || r.Err() != nil {
			failed = fmt.Errorf("frame did not survive the round trip")
		}
	})

	batch := make([]backend.OID, 512)
	for k := range batch {
		batch[k] = backend.OID(spread(k, probeObjects))
	}
	p.m["wire.batch_encode_ns_per_oid"] = p.nsPerCall(20000, func(int) {
		out.Start(wire.OpAccessBatch)
		out.OIDs(batch)
		if err := out.Send(io.Discard); err != nil {
			failed = err
		}
	}) / float64(len(batch))
	return failed
}

// btree times the in-memory B+tree driver's 200-object scan, its seek and
// its delete: what the paged store's ordered index could reach by sharing the
// tree.
func (p *probe) btree() error {
	b, err := backend.Open("btree", backend.Config{})
	if err != nil {
		return err
	}
	rg, err := backend.AsRanger(b)
	if err != nil {
		return err
	}
	for i := 0; i < probeObjects; i++ {
		if _, err := b.Create(probePayload); err != nil {
			return err
		}
	}
	const span = 200
	var failed error
	dst := make([]backend.OID, 0, span)
	p.m["btree.scan_ns"] = p.nsPerCall(50000, func(i int) {
		lo := backend.OID(spread(i, probeObjects-span))
		if res, err := rg.Scan(lo, lo+span-1, 0, false, dst); err != nil || len(res) != span {
			failed = fmt.Errorf("scan of %d objects from %d returned %d: %v", span, lo, len(res), err)
		}
	})
	p.m["btree.seek_ns"] = p.nsPerCall(1000000, func(i int) {
		if _, ok := rg.Seek(backend.OID(spread(i, probeObjects)), false); !ok {
			failed = fmt.Errorf("seek found nothing")
		}
	})
	// One round: a deleted object cannot be deleted again.
	next := backend.OID(probeObjects)
	deletes := &probe{rounds: 1, scale: p.scale}
	p.m["btree.delete_ns"] = deletes.nsPerCall(probeObjects/2, func(int) {
		if err := b.Delete(next); err != nil {
			failed = err
		}
		next--
	})
	return failed
}
