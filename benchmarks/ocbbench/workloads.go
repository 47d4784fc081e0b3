package main

import (
	"fmt"
	"maps"
	"net"
	"os"
	"strconv"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/query"
	"ocb/internal/wire"
	"ocb/internal/workload"
)

// workloadDef is one named workload. Every one is a closed loop at
// saturation: each client sends its next operation when the previous one has
// returned.
type workloadDef struct {
	name string
	// why says which layers the workload loads and which it leaves idle; it
	// is printed with the results and copied into BENCHMARK.json.
	why     string
	clients int
	// conns is the size of the remote client's connection pool, 0 when the
	// store is in this process.
	conns int
	// warmup is the number of untimed operations per client that set-up runs
	// on the fresh store. perSec is the number of measured operations per
	// client for each second of -seconds: counts, not a clock, end the
	// measured phase, so that a seed gives the same operations on every
	// commit.
	warmup, perSec int
	// replayed has the measured phase run again on flatmem, where it must
	// access the same objects: the paper's claim that the workload does not
	// depend on the store. It holds for a single client that only reads.
	replayed bool
	open     func(e env) (*instance, error)
}

// env is what a repetition is run with.
type env struct {
	// seed is added to the seeds of the operation streams. The database is
	// always the preset's own: two OCB databases of equal parameters differ
	// by a tenth in I/Os per transaction, more than any bound here, so a
	// seed that redrew the database would measure the draw.
	seed int64
	// traced routes every store through the tracing driver.
	traced bool
}

// driver returns the driver name and options that open inner, through the
// tracing driver when the repetition is traced.
func (e env) driver(inner string, opts map[string]string) (string, map[string]string) {
	if !e.traced {
		return inner, opts
	}
	opts["inner"] = inner
	return tracedName, opts
}

// instance is one opened and generated workload.
type instance struct {
	// store is the store the engine drives.
	store backend.Backend
	// phase builds the spec of one phase of perClient operations per client.
	phase func(name string, perClient int, seed int64) *workload.Spec
	// seed is the preset's generation seed. The warmup and measured phases
	// draw their operations from seed+1 and seed+2, as core.Runner.Run does
	// for its cold and warm runs, plus the invocation's offset.
	seed int64
	// ocb is the database behind the OCB workloads, nil for the query one.
	ocb      *core.Database
	generate time.Duration
	// driver and options are recorded with the results.
	driver  string
	options map[string]string
	// host is the store behind the server, nil when the store is local.
	host backend.Backend
	// dir is waldisk's data directory, "" for the stores that keep none.
	dir string
	// live reports the number of live objects.
	live  func() int
	close func() error
}

// workloads are the five named workloads, in the order they are reported.
// Later issues cite them by name.
var workloads = []*workloadDef{
	{
		name: "traverse-paged",
		why: "the paper's Table 1/2 workload on the paged store with a buffer 8x smaller than the database: " +
			"core, store, buffer miss/evict and disk do the work; wire, remote and waldisk do none",
		clients: 1, warmup: 5000, perSec: 6000, replayed: true,
		open: func(e env) (*instance, error) { return openOCB(traverseParams(e)) },
	},
	{
		name: "engine-flatmem",
		why: "11-object transactions on flatmem, about 1 us each: the workload engine's step and stats are a large " +
			"share; a buffer, disk, waldisk or wire change must not move it",
		clients: 1, warmup: 500000, perSec: 800000,
		open: func(e env) (*instance, error) {
			p := core.DefaultParams()
			p.PSet, p.PSimple, p.PHier, p.PStoch = 0, 0, 0, 1
			p.StoDepth = 10
			p.Backend, p.BackendOptions = e.driver("flatmem", map[string]string{})
			return openOCB(p)
		},
	},
	{
		name: "write-waldisk",
		why: "updates, inserts and deletes beside reads on the durable engine with group commit and real files: " +
			"commit and fsync dominate; compaction and the object cache show here and nowhere else",
		clients: 2, warmup: 1500, perSec: 2000,
		open: openWaldisk,
	},
	{
		name: "serve-remote",
		why: "the paged store, fitting its buffer, behind an in-process wire server and a 2-connection remote client: " +
			"wire and remote do the work; the hit-only counterpart of traverse-paged",
		clients: 2, conns: 2, warmup: 1000, perSec: 1200,
		open: openRemote,
	},
	{
		name: "query-churn-paged",
		why: "range scans, key selections and hot lookups interleaved with about 6% inserts and deletes on paged: " +
			"each write invalidates the lazily rebuilt ordered index of store/ranger.go",
		clients: 1, warmup: 2000, perSec: 3000,
		open: openQueryChurn,
	},
}

func workloadByName(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

// traverseParams is the paper's default parameterization on the paged store:
// 4 KB pages and 512 frames against a database of about 4100 pages.
func traverseParams(e env) core.Params {
	p := core.DefaultParams()
	p.Backend, p.BackendOptions = e.driver("paged", map[string]string{"pagesize": "4096", "buffer": "512"})
	return p
}

// openOCB generates an OCB database and returns it as an instance.
func openOCB(p core.Params) (*instance, error) {
	db, err := core.Generate(p)
	if err != nil {
		return nil, err
	}
	runner := core.NewRunner(db, nil)
	return &instance{
		store:    db.Store,
		phase:    runner.PhaseSpec,
		seed:     p.Seed,
		ocb:      db,
		generate: db.GenTime,
		driver:   p.Backend,
		options:  maps.Clone(p.BackendOptions),
		live:     db.NumLive,
		close:    db.Close,
	}, nil
}

// openWaldisk is the default database on waldisk, in a fresh directory, under
// a mix of half updates, a fifth inserts, a tenth deletes and a fifth reads.
// The flush policy is fixed: group commit, 256 KB segments.
func openWaldisk(e env) (*instance, error) {
	dir, err := os.MkdirTemp("", "ocbbench-waldisk-")
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	p.ClientN = 2
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0, 0, 0.1, 0
	p.PUpdate, p.PInsert, p.PDelete, p.PRange = 0.5, 0.2, 0.1, 0.1
	p.Backend, p.BackendOptions = e.driver("waldisk", map[string]string{
		"dir": dir, "fsync": "group", "segsize": "262144",
	})
	in, err := openOCB(p)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.dir = dir
	closeDB := in.close
	in.close = func() error {
		err := closeDB()
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		return err
	}
	return in, nil
}

// hostedBuffer is the buffer of the store behind the server: twice the
// database's pages, so the hosted store never misses.
const hostedBuffer = 8192

// openRemote hosts the paged store behind a wire server on a loopback port
// of this process and generates the default database through a remote client
// with two connections. The mix puts one-round-trip batches (set access)
// beside one round trip per object (hierarchy and stochastic traversals)
// beside update and commit.
func openRemote(e env) (*instance, error) {
	hostDriver, hostOpts := e.driver("paged", map[string]string{
		"pagesize": "4096", "buffer": strconv.Itoa(hostedBuffer), "shards": "16",
	})
	host, err := backend.Open(hostDriver, backend.Config{Options: hostOpts})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := wire.NewServer(host, "paged", nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	stop := func() error {
		srv.Shutdown()
		return <-served
	}

	p := core.DefaultParams()
	p.ClientN = 2
	p.PSet, p.PSimple, p.PHier, p.PStoch, p.PUpdate = 0.25, 0, 0.25, 0.25, 0.25
	p.Backend, p.BackendOptions = e.driver("remote", map[string]string{
		"addr": l.Addr().String(), "conns": "2",
	})
	in, err := openOCB(p)
	if err != nil {
		stop()
		return nil, err
	}
	in.host = host
	for k, v := range hostOpts {
		in.options["hosted."+k] = v
	}
	closeDB := in.close
	in.close = func() error {
		err := closeDB()
		if stopErr := stop(); err == nil {
			err = stopErr
		}
		return err
	}
	return in, nil
}

// churnWeight is the weight of each of the two writing operations beside the
// three reading ones at weight 1: 0.2 in 3.2, about 6% of the operations.
const churnWeight = 0.1

// openQueryChurn is the query package's default database and its three
// reading operations, with an insert and a delete added. Unlike a static
// query run, each write invalidates the paged store's ordered index, so the
// read that follows pays for rebuilding it.
func openQueryChurn(e env) (*instance, error) {
	p := query.DefaultParams()
	p.Backend, p.BackendOptions = e.driver("paged", map[string]string{"pagesize": "4096", "buffer": "512"})
	db, err := query.Generate(p)
	if err != nil {
		return nil, err
	}
	rg, err := backend.AsRanger(db.Store)
	if err != nil {
		return nil, err
	}
	churn := []workload.Op{
		{Name: "churn-insert", Weight: churnWeight, Mutating: true, Run: func(ctx *workload.Ctx) (int, error) {
			oid, err := db.Store.Create(ctx.Src.IntRange(p.ObjMin, p.ObjMax))
			if err != nil {
				return 0, err
			}
			if err := rg.SetKey(oid, int64(ctx.Src.IntRange(1, p.Classes))); err != nil {
				return 0, err
			}
			return 1, db.Store.Commit()
		}},
		// Deletes draw from the upper half of the generated OIDs, so the
		// objects the skewed lookups favour, the low OIDs, stay.
		{Name: "churn-delete", Weight: churnWeight, Mutating: true, Run: func(ctx *workload.Ctx) (int, error) {
			target := backend.OID(ctx.Src.IntRange(p.NumObjects/2+1, p.NumObjects))
			oid, ok := rg.Seek(target, false)
			if !ok {
				if oid, ok = rg.Seek(target, true); !ok {
					return 0, fmt.Errorf("churn-delete: the index is empty")
				}
			}
			if err := db.Store.Delete(oid); err != nil {
				return 0, err
			}
			return 1, db.Store.Commit()
		}},
	}
	return &instance{
		store: db.Store,
		phase: func(name string, perClient int, seed int64) *workload.Spec {
			spec := db.Scenario(1)
			spec.Name = name
			spec.Ops = append(spec.Ops, churn...)
			spec.Measured = perClient
			spec.Seed = seed
			return spec
		},
		seed:     p.Seed,
		generate: db.GenTime,
		driver:   p.Backend,
		options:  maps.Clone(p.BackendOptions),
		live:     func() int { return db.Store.Stats().Objects },
		close:    func() error { return backend.Shutdown(db.Store) },
	}, nil
}
