package workload

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/lewis"
)

// testBackend opens a small flatmem store with n objects.
func testBackend(t *testing.T, n int) backend.Backend {
	t.Helper()
	be, err := backend.Open("flatmem", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := be.Create(50); err != nil {
			t.Fatal(err)
		}
	}
	return be
}

// accessOp returns an op accessing one random object per run.
func accessOp(name string, be backend.Backend, n int, weight float64, count int) Op {
	return Op{
		Name:   name,
		Weight: weight,
		Count:  count,
		Run: func(ctx *Ctx) (int, error) {
			oid := backend.OID(ctx.Src.IntRange(1, n))
			if err := be.Access(oid); err != nil {
				return 0, err
			}
			return 1, nil
		},
	}
}

func TestFixedProgramCountsAndOrder(t *testing.T) {
	be := testBackend(t, 10)
	var order []string
	spec := &Spec{
		Name:    "prog",
		Backend: be,
		Ops: []Op{
			{Name: "a", Count: 3, Run: func(*Ctx) (int, error) { order = append(order, "a"); return 1, nil }},
			{Name: "b", Run: func(*Ctx) (int, error) { order = append(order, "b"); return 2, nil }},
			{Name: "c", Count: 2, Run: func(*Ctx) (int, error) { order = append(order, "c"); return 3, nil }},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "aaabcc" {
		t.Fatalf("program order = %q, want aaabcc", got)
	}
	if res.Executed != 6 {
		t.Fatalf("executed = %d, want 6", res.Executed)
	}
	if res.PerOp[0].Count != 3 || res.PerOp[1].Count != 1 || res.PerOp[2].Count != 2 {
		t.Fatalf("per-op counts = %d/%d/%d", res.PerOp[0].Count, res.PerOp[1].Count, res.PerOp[2].Count)
	}
	if res.PerOp[2].ObjectsTotal != 6 || res.Total.ObjectsTotal != 3+2+6 {
		t.Fatalf("objects totals = %d/%d", res.PerOp[2].ObjectsTotal, res.Total.ObjectsTotal)
	}
	if res.Throughput <= 0 || res.Duration <= 0 {
		t.Fatal("throughput/duration not measured")
	}
}

func TestMixedModeFollowsWeights(t *testing.T) {
	be := testBackend(t, 100)
	spec := &Spec{
		Name:     "mix",
		Backend:  be,
		Measured: 2000,
		Seed:     7,
		Ops: []Op{
			accessOp("hot", be, 100, 3, 0),
			accessOp("cold", be, 100, 1, 0),
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 2000 {
		t.Fatalf("executed = %d", res.Executed)
	}
	frac := float64(res.PerOp[0].Count) / float64(res.Executed)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("hot fraction = %v, want ~0.75", frac)
	}
}

func TestMixedModeDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		be := testBackend(t, 50)
		res, err := Run(&Spec{
			Name: "det", Backend: be, Measured: 500, Seed: 42, Clients: 2,
			Ops: []Op{accessOp("x", be, 50, 1, 0), accessOp("y", be, 50, 2, 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.PerOp {
		if a.PerOp[i].Count != b.PerOp[i].Count || a.PerOp[i].ObjectsTotal != b.PerOp[i].ObjectsTotal {
			t.Fatalf("op %s differs across identical runs", a.PerOp[i].Name)
		}
	}
}

func TestMultiClientFanOut(t *testing.T) {
	be := testBackend(t, 20)
	var maxSeen int32
	var cur int32
	spec := &Spec{
		Name:     "fan",
		Backend:  be,
		Clients:  4,
		Measured: 50,
		Ops: []Op{{Name: "pause", Weight: 1, Run: func(*Ctx) (int, error) {
			n := atomic.AddInt32(&cur, 1)
			for {
				m := atomic.LoadInt32(&maxSeen)
				if n <= m || atomic.CompareAndSwapInt32(&maxSeen, m, n) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			atomic.AddInt32(&cur, -1)
			return 1, nil
		}}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4*50 {
		t.Fatalf("executed = %d, want 200", res.Executed)
	}
	if atomic.LoadInt32(&maxSeen) < 2 {
		t.Fatalf("clients never overlapped (max concurrent = %d)", maxSeen)
	}
}

func TestSkipRecordedNotFailed(t *testing.T) {
	be := testBackend(t, 10)
	spec := &Spec{
		Name:    "skips",
		Backend: be,
		Ops: []Op{
			{Name: "ok", Run: func(*Ctx) (int, error) { return 1, nil }},
			{Name: "nocap", Count: 2, Run: func(*Ctx) (int, error) {
				return 0, fmt.Errorf("%w: physical relocation", backend.ErrNotSupported)
			}},
			{Name: "explicit", Run: func(*Ctx) (int, error) { return 0, ErrSkip }},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 1 {
		t.Fatalf("executed = %d, want 1", res.Executed)
	}
	if res.PerOp[1].Skipped != 2 || res.PerOp[2].Skipped != 1 {
		t.Fatalf("skip counts = %d/%d", res.PerOp[1].Skipped, res.PerOp[2].Skipped)
	}
	if len(res.Skips) != 2 {
		t.Fatalf("skip notes = %v", res.Skips)
	}
	if !strings.Contains(res.Skips[0], "nocap") {
		t.Fatalf("skip note %q does not name the op", res.Skips[0])
	}
}

func TestErrorNamesClientAndTransaction(t *testing.T) {
	be := testBackend(t, 10)
	boom := errors.New("boom")
	spec := &Spec{
		Name:    "fail",
		Backend: be,
		Ops: []Op{
			{Name: "ok", Count: 2, Run: func(*Ctx) (int, error) { return 1, nil }},
			{Name: "bad", Run: func(*Ctx) (int, error) { return 0, boom }},
		},
	}
	_, err := Run(spec)
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	for _, want := range []string{"client 0", "transaction 2", "bad"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestPreRunsUntimed(t *testing.T) {
	be := testBackend(t, 10)
	preCalls := 0
	spec := &Spec{
		Name:    "pre",
		Backend: be,
		Ops: []Op{{
			Name:  "op",
			Count: 3,
			Pre: func(*Ctx) error {
				preCalls++
				return nil
			},
			Run: func(*Ctx) (int, error) { return 1, nil },
		}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if preCalls != 3 {
		t.Fatalf("pre ran %d times, want 3", preCalls)
	}
	if res.PerOp[0].Count != 3 {
		t.Fatalf("count = %d", res.PerOp[0].Count)
	}
}

func TestValidationErrors(t *testing.T) {
	be := testBackend(t, 1)
	run := func(*Ctx) (int, error) { return 1, nil }
	cases := []*Spec{
		{Name: "nobackend", Ops: []Op{{Name: "a", Run: run}}},
		{Name: "noops", Backend: be},
		{Name: "anon", Backend: be, Ops: []Op{{Run: run}}},
		{Name: "norun", Backend: be, Ops: []Op{{Name: "a"}}},
		{Name: "dup", Backend: be, Ops: []Op{{Name: "a", Run: run}, {Name: "a", Run: run}}},
		{Name: "noweight", Backend: be, Measured: 10, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "warmupprog", Backend: be, Warmup: 5, Ops: []Op{{Name: "a", Weight: 1, Run: run}}},
		{Name: "negthink", Backend: be, Think: -1, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "nextprog", Backend: be, Ops: []Op{{Name: "a", Run: run}}, Next: func(*Ctx) int { return 0 }},
	}
	for _, spec := range cases {
		if _, err := Run(spec); err == nil {
			t.Fatalf("spec %q accepted", spec.Name)
		}
	}
}

func TestWarmupNotRecorded(t *testing.T) {
	be := testBackend(t, 10)
	total := 0
	spec := &Spec{
		Name:     "warm",
		Backend:  be,
		Warmup:   20,
		Measured: 30,
		Seed:     3,
		Ops: []Op{{Name: "op", Weight: 1, Run: func(*Ctx) (int, error) {
			total++
			return 1, nil
		}}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if total != 50 {
		t.Fatalf("op ran %d times, want 50 (20 warmup + 30 measured)", total)
	}
	if res.Executed != 30 {
		t.Fatalf("executed = %d, want 30 measured only", res.Executed)
	}
}

// TestWarmupExcludedFromPhaseClock pins the phase-measurement contract:
// Duration and the disk delta cover the measured phase only, with every
// client's warmup finished (via the barrier) before the clock starts.
func TestWarmupExcludedFromPhaseClock(t *testing.T) {
	be := testBackend(t, 10)
	for _, clients := range []int{1, 4} {
		// Every op sleeps 2ms. Each client runs 5 warmup + 5 measured ops
		// (clients sleep in parallel), so a phase duration near 10ms means
		// the warmup sleeps were excluded from the clock; near 20ms means
		// they leaked in.
		res, err := Run(&Spec{
			Name:     "warmclock",
			Backend:  be,
			Clients:  clients,
			Warmup:   5,
			Measured: 5,
			Seed:     11,
			Ops: []Op{{Name: "op", Weight: 1, Run: func(ctx *Ctx) (int, error) {
				time.Sleep(2 * time.Millisecond)
				return 1, nil
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != int64(clients*5) {
			t.Fatalf("clients=%d: executed = %d", clients, res.Executed)
		}
		if res.Duration > 17*time.Millisecond {
			t.Fatalf("clients=%d: phase duration %v includes warmup (want ~10ms of measured sleeps)",
				clients, res.Duration)
		}
		if res.Duration < 8*time.Millisecond {
			t.Fatalf("clients=%d: phase duration %v too short; measured ops not timed", clients, res.Duration)
		}
	}
}

func TestRatePacingCatchesUp(t *testing.T) {
	be := testBackend(t, 10)
	start := time.Now()
	res, err := Run(&Spec{
		Name:     "rate",
		Backend:  be,
		Measured: 10,
		Rate:     1000,
		Ops:      []Op{accessOp("x", be, 10, 1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 10 {
		t.Fatalf("executed = %d", res.Executed)
	}
	// Ten 1ms arrival slots: the run takes at least ~9ms of schedule.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("rate run finished in %v; pacing not applied", elapsed)
	}
}

func TestCustomNextAndState(t *testing.T) {
	be := testBackend(t, 10)
	type st struct{ next int }
	res, err := Run(&Spec{
		Name:     "next",
		Backend:  be,
		Measured: 9,
		NewClient: func(int, *lewis.Source) any {
			return &st{}
		},
		Next: func(ctx *Ctx) int {
			s := ctx.State.(*st)
			s.next = (s.next + 1) % 3
			return s.next // round robin 1, 2, 0, ...
		},
		Ops: []Op{
			{Name: "a", Run: func(*Ctx) (int, error) { return 1, nil }},
			{Name: "b", Run: func(*Ctx) (int, error) { return 1, nil }},
			{Name: "c", Run: func(*Ctx) (int, error) { return 1, nil }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, om := range res.PerOp {
		if om.Count != 3 {
			t.Fatalf("op %d count = %d, want 3 (round robin)", i, om.Count)
		}
	}
}

func TestColdStartDropsCache(t *testing.T) {
	// On the paged backend a ColdStart run re-faults its working set.
	be, err := backend.Open("paged", backend.Config{PageSize: 4096, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := be.Create(400); err != nil {
			t.Fatal(err)
		}
	}
	scan := Op{Name: "scan", Run: func(ctx *Ctx) (int, error) {
		n := 0
		for oid := backend.OID(1); oid <= 100; oid++ {
			if err := be.Access(oid); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}}
	warm, err := Run(&Spec{Name: "warm", Backend: be, Ops: []Op{scan}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(&Spec{Name: "cold", Backend: be, ColdStart: true, Ops: []Op{scan}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.DiskDelta.TotalReads() <= warm.DiskDelta.TotalReads() {
		t.Fatalf("cold start read %d pages, warm %d; cache not dropped",
			cold.DiskDelta.TotalReads(), warm.DiskDelta.TotalReads())
	}
}
