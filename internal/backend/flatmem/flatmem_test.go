package flatmem_test

import (
	"errors"
	"sync"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
	"ocb/internal/backend/flatmem"
)

func open(t *testing.T) backend.Backend {
	t.Helper()
	b, err := backend.Open(flatmem.Name, backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConformance runs the shared backend conformance suite.
func TestConformance(t *testing.T) {
	backendtest.Conformance(t, open)
}

// TestNoOptions pins the strict option validation: the flat heap accepts
// no options, and says so.
func TestNoOptions(t *testing.T) {
	// The typed geometry hints are ignored, not rejected: a Params-driven
	// open passes its paged geometry everywhere.
	if _, err := backend.Open(flatmem.Name, backend.Config{PageSize: 4096, BufferPages: 512}); err != nil {
		t.Fatalf("typed geometry hints must be ignored: %v", err)
	}
	_, err := backend.Open(flatmem.Name, backend.Config{Options: map[string]string{"pagesize": "4096"}})
	var unknown *backend.UnknownOptionError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want UnknownOptionError", err)
	}
}

// TestNoPhysicalCapabilities pins what makes flatmem the degradation test
// case: no pages, no relocation, no I/O classes, no persistence.
func TestNoPhysicalCapabilities(t *testing.T) {
	b := open(t)
	if _, err := backend.AsRelocator(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsRelocator: err = %v, want ErrNotSupported", err)
	}
	if _, err := backend.AsPlacer(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsPlacer: err = %v, want ErrNotSupported", err)
	}
	if _, ok := b.(backend.Snapshotter); ok {
		t.Fatal("flatmem claims Snapshotter")
	}
	if got := backend.PageSizeOf(b); got != 4096 {
		t.Fatalf("PageSizeOf fallback = %d, want the 4096 default", got)
	}
	// And zero I/O, always — the infinitely-fast-I/O control property.
	for i := 0; i < 100; i++ {
		if _, err := b.Create(100); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(1); oid <= 100; oid++ {
		if err := b.Access(oid); err != nil {
			t.Fatal(err)
		}
	}
	if ios := b.DiskStats().TransactionIOs(); ios != 0 {
		t.Fatalf("flatmem charged %d I/Os", ios)
	}
}

// TestPerObjectCounters covers the per-object atomic access counters.
func TestPerObjectCounters(t *testing.T) {
	m := flatmem.New()
	var oids []backend.OID
	for i := 0; i < 5; i++ {
		oid, err := m.Create(10)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	for i, oid := range oids {
		for r := 0; r <= i; r++ {
			if err := m.Access(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, oid := range oids {
		if got := m.Accesses(oid); got != uint64(i+1) {
			t.Fatalf("Accesses(%d) = %d, want %d", oid, got, i+1)
		}
	}
	m.ResetStats()
	for _, oid := range oids {
		if got := m.Accesses(oid); got != 0 {
			t.Fatalf("Accesses(%d) after reset = %d", oid, got)
		}
	}
	if got := m.Accesses(backend.NilOID); got != 0 {
		t.Fatalf("Accesses(NilOID) = %d", got)
	}
}

// TestConcurrentHammer drives creates, accesses, batches and deletes from
// many goroutines; with -race this is the driver's data-race gate, and the
// final counters must balance regardless of schedule.
func TestConcurrentHammer(t *testing.T) {
	m := flatmem.New()
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []backend.OID
			for i := 0; i < perW; i++ {
				oid, err := m.Create(64)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, oid)
				if err := m.Access(oid); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 && len(mine) > 1 {
					if _, err := m.AccessBatch(mine[len(mine)-2:]); err != nil {
						t.Error(err)
						return
					}
				}
				if i%11 == 0 {
					victim := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := m.Delete(victim); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	deleted := workers * (1 + (perW-1)/11)
	st := m.Stats()
	if st.Objects != workers*perW-deleted {
		t.Fatalf("live objects = %d, want %d", st.Objects, workers*perW-deleted)
	}
	// Every issued OID is distinct and sequential: the next create gets
	// exactly workers*perW + 1.
	next, err := m.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if next != backend.OID(workers*perW+1) {
		t.Fatalf("next OID = %d, want %d", next, workers*perW+1)
	}
}

// BenchmarkFlatAccess sizes the hot path (and its zero allocations).
func BenchmarkFlatAccess(b *testing.B) {
	backendtest.BenchmarkAccess(b, flatmem.New(), 10000)
}
