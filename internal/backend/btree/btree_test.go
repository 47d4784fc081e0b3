package btree_test

import (
	"errors"
	"sync"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
	"ocb/internal/backend/btree"
)

func open(t *testing.T) backend.Backend {
	t.Helper()
	b, err := backend.Open(btree.Name, backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConformance runs the shared backend conformance suite, including
// the Ranger section — btree's reason to exist.
func TestConformance(t *testing.T) {
	backendtest.Conformance(t, open)
}

// TestConformanceSmallFanout reruns the suite at the minimum fanout, so
// every tree operation exercises multi-level descent and node splits
// instead of living in one giant root leaf.
func TestConformanceSmallFanout(t *testing.T) {
	backendtest.Conformance(t, func(t *testing.T) backend.Backend {
		t.Helper()
		b, err := backend.Open(btree.Name, backend.Config{Options: map[string]string{"fanout": "4"}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// TestOptions pins the option surface: fanout tunes the node width,
// anything else is rejected with the valid set named, and garbage values
// fail at Open.
func TestOptions(t *testing.T) {
	if _, err := backend.Open(btree.Name, backend.Config{Options: map[string]string{"fanout": "32"}}); err != nil {
		t.Fatalf("fanout=32: %v", err)
	}
	var unknown *backend.UnknownOptionError
	if _, err := backend.Open(btree.Name, backend.Config{Options: map[string]string{"order": "8"}}); !errors.As(err, &unknown) {
		t.Fatalf("unknown option: err = %v, want UnknownOptionError", err)
	}
	for _, bad := range []string{"x", "0", "3", "-8", ""} {
		if _, err := backend.Open(btree.Name, backend.Config{Options: map[string]string{"fanout": bad}}); err == nil {
			t.Fatalf("fanout=%q: want an error", bad)
		}
	}
	// The typed page-size hint sizes the default fanout and is never an
	// error, like every other driver's treatment of the geometry hints.
	if _, err := backend.Open(btree.Name, backend.Config{PageSize: 256, BufferPages: 64}); err != nil {
		t.Fatalf("typed geometry hints must be accepted: %v", err)
	}
}

// TestCapabilities pins the capability surface: Ranger and Checker, and
// nothing physical — no pages, no relocation, no durability.
func TestCapabilities(t *testing.T) {
	b := open(t)
	if _, err := backend.AsRanger(b); err != nil {
		t.Fatalf("AsRanger: %v", err)
	}
	if _, ok := b.(backend.Checker); !ok {
		t.Fatal("btree lost its Checker capability")
	}
	if _, err := backend.AsPlacer(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsPlacer: err = %v, want ErrNotSupported", err)
	}
	if _, err := backend.AsRelocator(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsRelocator: err = %v, want ErrNotSupported", err)
	}
	if _, ok := b.(backend.Durable); ok {
		t.Fatal("btree claims Durable but keeps state in memory")
	}
	if ios := b.DiskStats().TransactionIOs(); ios != 0 {
		t.Fatalf("btree charged %d I/Os", ios)
	}
}

// TestDeepTreeIntegrity grows a deliberately deep tree (tiny fanout, many
// objects), deletes a stripe, and audits: the split and chain machinery
// must survive thousands of structural edits.
func TestDeepTreeIntegrity(t *testing.T) {
	s := btree.New(4)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := s.Create(32); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(3); oid <= n; oid += 7 {
		if err := s.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(1); oid <= n; oid++ {
		if err := s.SetKey(oid, int64(oid%97)); err != nil {
			if oid%7 == 3 {
				if !errors.Is(err, backend.ErrNoSuchObject) {
					t.Fatalf("SetKey(dead %d): %v", oid, err)
				}
				continue
			}
			t.Fatalf("SetKey(%d): %v", oid, err)
		}
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
	// The scan agrees with arithmetic: live OIDs are those not ≡ 3 mod 7.
	got, err := s.Scan(1, backend.NilOID, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for oid := 1; oid <= n; oid++ {
		if oid%7 != 3 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("full scan found %d live objects, want %d", len(got), want)
	}
	if st := s.Stats(); st.Objects != want {
		t.Fatalf("Stats.Objects = %d, want %d", st.Objects, want)
	}
}

// TestAllocFreeLookup gates the steady-state lookup and seek paths at 0
// allocs/op — the measurement-discipline contract the //ocblint:allocfree
// annotations declare.
func TestAllocFreeLookup(t *testing.T) {
	s := btree.New(64)
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := s.Create(100); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]backend.OID, 0, 32)
	for oid := backend.OID(500); oid < 532; oid++ {
		batch = append(batch, oid)
	}
	scanBuf := make([]backend.OID, 0, 256)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Access", func() {
			if err := s.Access(4242); err != nil {
				t.Fatal(err)
			}
		}},
		{"AccessBatch", func() {
			if _, err := s.AccessBatch(batch); err != nil {
				t.Fatal(err)
			}
		}},
		{"Seek", func() {
			if _, ok := s.Seek(7000, false); !ok {
				t.Fatal("Seek lost a live OID")
			}
		}},
		{"Exists", func() {
			if !s.Exists(9999) {
				t.Fatal("Exists lost a live OID")
			}
		}},
		{"ScanPrealloc", func() {
			got, err := s.Scan(1000, 1199, 0, false, scanBuf[:0])
			if err != nil || len(got) != 200 {
				t.Fatalf("Scan = %d oids, %v", len(got), err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
				t.Fatalf("%s allocates %.1f per op in steady state, want 0", tc.name, avg)
			}
		})
	}
}

// TestConcurrentHammer drives creates, lookups, scans, keyed updates and
// deletes from many goroutines; with -race this is the driver's data-race
// gate, and the tree must audit clean afterwards.
func TestConcurrentHammer(t *testing.T) {
	s := btree.New(16)
	const (
		workers = 8
		perW    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []backend.OID
			buf := make([]backend.OID, 0, 64)
			for i := 0; i < perW; i++ {
				oid, err := s.Create(64)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, oid)
				if err := s.Access(oid); err != nil {
					t.Error(err)
					return
				}
				if err := s.SetKey(oid, int64(i%13)); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					if _, err := s.Scan(1, backend.NilOID, 32, i%2 == 0, buf[:0]); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.ScanKey(0, 6, 32, buf[:0]); err != nil {
						t.Error(err)
						return
					}
				}
				if i%11 == 0 {
					victim := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Delete(victim); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity after hammer: %v", err)
	}
	deleted := workers * (1 + (perW-1)/11)
	if st := s.Stats(); st.Objects != workers*perW-deleted {
		t.Fatalf("live objects = %d, want %d", st.Objects, workers*perW-deleted)
	}
}

// BenchmarkBtreeAccess sizes the point-lookup hot path (and its zero
// allocations).
func BenchmarkBtreeAccess(b *testing.B) {
	backendtest.BenchmarkAccess(b, btree.New(170), 10000)
}

// BenchmarkBtreeScan sizes the range-scan path: 200-object windows over a
// 100k-object tree.
func BenchmarkBtreeScan(b *testing.B) {
	s := btree.New(170)
	const n = 100000
	for i := 0; i < n; i++ {
		if _, err := s.Create(100); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]backend.OID, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := backend.OID(i%(n-200) + 1)
		got, err := s.Scan(lo, lo+199, 0, false, buf[:0])
		if err != nil || len(got) != 200 {
			b.Fatalf("Scan = %d, %v", len(got), err)
		}
	}
}
