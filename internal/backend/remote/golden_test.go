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

// runOCB generates a database for p and runs the full cold/warm protocol.
func runOCB(t *testing.T, p core.Params) *core.Result {
	t.Helper()
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	res, err := core.NewRunner(db, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenOCBOverRemoteMatchesInProcess pins the transparency of the
// wire layer: a CLIENTN=1 OCB protocol run against a paged store served
// over loopback must produce bit-identical workload metrics — phase
// transaction counts, per-type counts and accessed-object statistics —
// to the same run against an in-process paged store. Only the I/O
// attribution and latency columns are allowed to differ (the engine
// samples shared disk counters around each op, and the wire adds
// latency), so they are deliberately not compared.
func TestGoldenOCBOverRemoteMatchesInProcess(t *testing.T) {
	p := goldenParams()

	local := p
	local.Backend = "paged"
	want := runOCB(t, local)

	// Host a paged store opened exactly as core.Generate opens the
	// in-process one (ClientN=1 resolves to a single shard).
	hosted, err := backend.Open("paged", backend.Config{
		PageSize:    p.PageSize,
		BufferPages: p.BufferPages,
		Policy:      p.BufferPolicy,
		Shards:      1,
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
		for ty := range phase.want.PerOp {
			g, w := &phase.got.PerOp[ty], &phase.want.PerOp[ty]
			if g.Count != w.Count {
				t.Errorf("%s type %d: count %d over remote, %d in process", phase.name, ty, g.Count, w.Count)
			}
			if g.Objects != w.Objects {
				t.Errorf("%s type %d: objects welford diverges: got %+v, want %+v", phase.name, ty, g.Objects, w.Objects)
			}
		}
	}
	// The stores themselves must agree on what the workload built.
	if got.Store.Objects != want.Store.Objects || got.Store.ObjectsAccessed != want.Store.ObjectsAccessed {
		t.Errorf("store counters diverge: remote %d objects / %d accessed, in-process %d / %d",
			got.Store.Objects, got.Store.ObjectsAccessed, want.Store.Objects, want.Store.ObjectsAccessed)
	}
}
