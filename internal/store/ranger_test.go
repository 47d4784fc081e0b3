package store

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"ocb/internal/disk"
)

// populateKeyed creates n objects and binds object i to key i%classes.
func populateKeyed(t *testing.T, s *Store, n, classes int) []OID {
	t.Helper()
	oids := make([]OID, n)
	for i := range oids {
		oid, err := s.Create(40)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetKey(oid, int64(i%classes)); err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	return oids
}

// TestIndexBuiltOnFirstOrderedCall pins the laziness the unordered
// workloads rely on — no ordered call, no index — and that an index built
// late, over a directory that already saw creates and deletes, is the
// same as one maintained from the start.
func TestIndexBuiltOnFirstOrderedCall(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 64})
	var want []OID
	for i := 0; i < 300; i++ {
		oid, err := s.Create(40)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want = append(want, oid)
	}
	if err := s.Access(want[0]); err != nil {
		t.Fatal(err)
	}
	if s.idx.tree != nil {
		t.Fatal("creates, deletes and accesses built the ordered index")
	}
	got, err := s.Scan(1, NilOID, 0, false, nil)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("first Scan = %d objects, %v; want %d", len(got), err, len(want))
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAfterOrderedRead is the regression test for the stale index:
// an ordered read on the empty store, then Restore, then another ordered
// read must see the restored objects.
func TestRestoreAfterOrderedRead(t *testing.T) {
	src := MustOpen(Config{PageSize: 512, BufferPages: 16})
	oids := populateKeyed(t, src, 10, 3)
	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}

	s := MustOpen(Config{PageSize: 512, BufferPages: 16})
	if got, _ := s.Scan(1, NilOID, 0, false, nil); len(got) != 0 {
		t.Fatalf("empty store scans %d objects", len(got))
	}
	if err := s.Restore(img); err != nil {
		t.Fatal(err)
	}
	got, err := s.Scan(1, NilOID, 0, false, nil)
	if err != nil || !slices.Equal(got, oids) {
		t.Fatalf("Scan after Restore = %v, %v; want %v", got, err, oids)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRollbackKeepsKey pins the other half of Delete's first-page
// rollback: the reinstated object is back in the ordered index under the
// attribute key it held.
func TestDeleteRollbackKeepsKey(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 16})
	oids := populateKeyed(t, s, 6, 2)
	victim := oids[3] // bound to key 1
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache() // the delete must fault the page back in

	injected := errors.New("injected fault")
	s.Disk().FailureHook = func(disk.Op, disk.PageID) error { return injected }
	if err := s.Delete(victim); !errors.Is(err, injected) {
		t.Fatalf("Delete with faulting disk: err = %v, want injected fault", err)
	}
	s.Disk().FailureHook = nil

	if got, _ := s.Scan(1, NilOID, 0, false, nil); !slices.Equal(got, oids) {
		t.Fatalf("Scan after failed delete = %v, want %v", got, oids)
	}
	want := []OID{oids[1], oids[3], oids[5]}
	if got, _ := s.ScanKey(1, 1, 0, nil); !slices.Equal(got, want) {
		t.Fatalf("ScanKey(1) after failed delete = %v, want %v", got, want)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(victim); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if got, _ := s.ScanKey(1, 1, 0, nil); !slices.Equal(got, []OID{oids[1], oids[5]}) {
		t.Fatalf("ScanKey(1) after delete = %v", got)
	}
}

// TestCheckIntegrityAuditsIndex breaks the index behind the store's back:
// the audit must notice an object the index lost and one it kept too long.
func TestCheckIntegrityAuditsIndex(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 16})
	oids := populateKeyed(t, s, 20, 4)
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	s.idx.tree.Delete(oids[7])
	if err := s.CheckIntegrity(); err == nil {
		t.Fatal("an object missing from the ordered index passed the audit")
	}
	s.idx.tree.Insert(oids[7], 0)
	s.idx.tree.Insert(oids[19]+1, 0)
	if err := s.CheckIntegrity(); err == nil {
		t.Fatal("a dead object in the ordered index passed the audit")
	}
}

// TestOrderedReadsAllocFree gates the steady-state ordered reads at 0
// allocs/op with a preallocated dst.
func TestOrderedReadsAllocFree(t *testing.T) {
	s := MustOpen(Config{BufferPages: 64})
	populateKeyed(t, s, 5000, 20)
	dst := make([]OID, 0, 256)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Seek", func() {
			if _, ok := s.Seek(2500, true); !ok {
				t.Fatal("Seek lost a live OID")
			}
		}},
		{"Scan", func() {
			if got, err := s.Scan(1000, 1199, 0, false, dst[:0]); err != nil || len(got) != 200 {
				t.Fatalf("Scan = %d oids, %v", len(got), err)
			}
		}},
		{"ScanKey", func() {
			if got, err := s.ScanKey(7, 7, 0, dst[:0]); err != nil || len(got) != 250 {
				t.Fatalf("ScanKey = %d oids, %v", len(got), err)
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

// TestConcurrentOrderedHammer drives creates, deletes, key bindings and
// ordered reads from 8 goroutines against a store whose index is built by
// whichever ordered call comes first. While it runs, every Scan must be
// strictly ascending and every ScanKey strictly ascending in (key, OID) —
// so duplicate-free; at quiescence the index must equal the sorted
// directory. Under -race this is the ordered index's data-race gate.
func TestConcurrentOrderedHammer(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 256})
	const (
		workers = 8
		iters   = 300
		classes = 5
	)
	keyOf := func(oid OID) int64 { return int64(oid % classes) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []OID
			buf := make([]OID, 0, 4096)
			for i := 0; i < iters; i++ {
				oid, err := s.Create(24 + (w+i)%64)
				if err != nil {
					t.Errorf("worker %d create: %v", w, err)
					return
				}
				mine = append(mine, oid)
				if err := s.SetKey(oid, keyOf(oid)); err != nil {
					t.Errorf("worker %d SetKey(%d): %v", w, oid, err)
					return
				}
				if i%7 == 3 {
					victim := mine[len(mine)/2]
					mine = slices.Delete(mine, len(mine)/2, len(mine)/2+1)
					if err := s.Delete(victim); err != nil {
						t.Errorf("worker %d delete: %v", w, err)
						return
					}
				}
				if i%5 != 0 {
					continue
				}
				got, _ := s.Scan(1, NilOID, 0, i%2 == 0, buf[:0])
				if i%2 == 0 {
					slices.Reverse(got)
				}
				for j := 1; j < len(got); j++ {
					if got[j-1] >= got[j] {
						t.Errorf("Scan out of order or duplicated: %d before %d", got[j-1], got[j])
						return
					}
				}
				got, _ = s.ScanKey(0, classes-1, 0, buf[:0])
				for j := 1; j < len(got); j++ {
					a, b := got[j-1], got[j]
					if keyOf(a) > keyOf(b) || keyOf(a) == keyOf(b) && a >= b {
						t.Errorf("ScanKey out of (key, OID) order or duplicated: %d before %d", a, b)
						return
					}
				}
				if at, ok := s.Seek(oid, false); !ok || at != oid {
					t.Errorf("Seek(%d) = %d, %v on a live object", oid, at, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var want []OID
	_ = s.forEachLoc(func(oid OID, _ loc) error {
		want = append(want, oid)
		return nil
	})
	slices.Sort(want)
	if got, _ := s.Scan(1, NilOID, 0, false, nil); !slices.Equal(got, want) {
		t.Fatalf("Scan at quiescence lists %d objects, the directory %d", len(got), len(want))
	}
	// Every live object was keyed by its creator.
	slices.SortFunc(want, func(a, b OID) int {
		if keyOf(a) != keyOf(b) {
			return int(keyOf(a) - keyOf(b))
		}
		return int(a) - int(b)
	})
	if got, _ := s.ScanKey(0, classes-1, 0, nil); !slices.Equal(got, want) {
		t.Fatalf("ScanKey at quiescence lists %d objects, the directory %d", len(got), len(want))
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRollbackDuringIndexBuild plays the one interleaving in which
// the rollback has index work to do: the first ordered call builds the
// index while the doomed delete holds the object out of the table.
func TestDeleteRollbackDuringIndexBuild(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 16})
	var oids []OID
	for i := 0; i < 4; i++ {
		oid, err := s.Create(40)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()

	injected := errors.New("injected fault")
	s.Disk().FailureHook = func(disk.Op, disk.PageID) error {
		if got, _ := s.Scan(1, NilOID, 0, false, nil); len(got) != len(oids)-1 {
			t.Errorf("Scan during the delete lists %d objects, want %d", len(got), len(oids)-1)
		}
		return injected
	}
	if err := s.Delete(oids[2]); !errors.Is(err, injected) {
		t.Fatalf("Delete with faulting disk: err = %v, want injected fault", err)
	}
	s.Disk().FailureHook = nil
	if got, _ := s.Scan(1, NilOID, 0, false, nil); !slices.Equal(got, oids) {
		t.Fatalf("Scan after failed delete = %v, want %v", got, oids)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
