package remote_test

import (
	"net"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/wire"
	"ocb/internal/workload"
)

// goldenParams is a CI-sized OCB configuration; both runs of the golden
// comparison use it verbatim.
func goldenParams() core.Params {
	p := core.DefaultParams()
	p.NC = 10
	p.SupClass = 10
	p.NO = 500
	p.SupRef = 500
	p.BufferPages = 16
	p.ColdN = 30
	p.HotN = 80
	return p
}

// ocbRun is one full cold/warm protocol run and the store's counters
// after it.
type ocbRun struct {
	Cold, Warm *workload.Result
	Store      backend.Stats
}

// runOCB generates a database for p and runs the full cold/warm protocol.
func runOCB(t *testing.T, p core.Params) ocbRun {
	t.Helper()
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	r := core.NewRunner(db, nil)
	cold, err := r.RunPhase("cold", p.ColdN, p.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunPhase("warm", p.HotN, p.Seed+2)
	if err != nil {
		t.Fatal(err)
	}
	return ocbRun{Cold: cold, Warm: warm, Store: db.Store.Stats()}
}

// TestGoldenOCBOverRemoteMatchesInProcess pins the transparency of the
// wire layer: a CLIENTN=1 OCB protocol run against a paged store served
// over loopback must produce bit-identical workload metrics — phase
// transaction counts, per-type counts, accessed-object statistics, per-op
// I/O statistics and each phase's disk delta — to the same run against an
// in-process paged store. The I/O columns hold because at one client the
// newest reply's trailer carries exactly the counters an in-process
// DiskStats read would. Only latency differs (the wire adds it), so it is
// deliberately not compared.
func TestGoldenOCBOverRemoteMatchesInProcess(t *testing.T) {
	p := goldenParams()

	local := p
	local.Backend = "paged"
	want := runOCB(t, local)

	// Host a paged store opened exactly as core.Generate opens the
	// in-process one.
	hosted, err := backend.Open("paged", backend.Config{
		PageSize:    p.PageSize,
		BufferPages: p.BufferPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(hosted, "paged", nil)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		_ = backend.Shutdown(hosted)
	})

	rp := p
	rp.Backend = "remote"
	rp.BackendOptions = map[string]string{"addr": ln.Addr().String()}
	got := runOCB(t, rp)
	if want.Cold.Total.IOsTotal == 0 || want.Warm.DiskDelta.TransactionIOs() == 0 {
		t.Fatal("the in-process run made no I/O, so the I/O columns compare zeros")
	}

	for _, phase := range []struct {
		name      string
		got, want *workload.Result
	}{
		{"cold", got.Cold, want.Cold},
		{"warm", got.Warm, want.Warm},
	} {
		if phase.got.Executed != phase.want.Executed {
			t.Errorf("%s: %d transactions over remote, %d in process",
				phase.name, phase.got.Executed, phase.want.Executed)
		}
		if g, w := phase.got.Total.Objects, phase.want.Total.Objects; g != w {
			t.Errorf("%s: global objects welford diverges: got %+v, want %+v", phase.name, g, w)
		}
		if g, w := phase.got.DiskDelta, phase.want.DiskDelta; g != w {
			t.Errorf("%s: disk delta %+v over remote, %+v in process", phase.name, g, w)
		}
		for ty := range phase.want.PerOp {
			g, w := &phase.got.PerOp[ty], &phase.want.PerOp[ty]
			if g.Count != w.Count {
				t.Errorf("%s type %d: count %d over remote, %d in process", phase.name, ty, g.Count, w.Count)
			}
			if g.Objects != w.Objects {
				t.Errorf("%s type %d: objects welford diverges: got %+v, want %+v", phase.name, ty, g.Objects, w.Objects)
			}
			if g.IOs != w.IOs || g.IOsTotal != w.IOsTotal {
				t.Errorf("%s type %d: I/Os diverge: got %+v (total %d), want %+v (total %d)",
					phase.name, ty, g.IOs, g.IOsTotal, w.IOs, w.IOsTotal)
			}
		}
	}
	// The stores themselves must agree on what the workload built.
	if got.Store.Objects != want.Store.Objects || got.Store.ObjectsAccessed != want.Store.ObjectsAccessed {
		t.Errorf("store counters diverge: remote %d objects / %d accessed, in-process %d / %d",
			got.Store.Objects, got.Store.ObjectsAccessed, want.Store.Objects, want.Store.ObjectsAccessed)
	}
}
