package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ocb/internal/disk"
)

// These tests hammer the sharded store from many goroutines; the CI race
// shard runs them under -race. Each goroutine owns the objects it creates
// and deletes, while a shared prefix of objects is read by everyone, so
// the tests exercise every lock layer (structural RWMutex, table shards,
// pool lock, placement mutex) without relying on cross-goroutine
// delete/access ordering.

func TestConcurrentCreateAccessDelete(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 256, Shards: 8})

	// A shared read-only prefix everyone accesses.
	const sharedN = 64
	shared := make([]OID, sharedN)
	for i := range shared {
		oid, err := s.Create(40)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = oid
	}

	const workers = 8
	const iters = 200
	keep := make([][]OID, workers) // objects each worker leaves live
	gone := make([][]OID, workers) // objects each worker deleted
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []OID
			for i := 0; i < iters; i++ {
				// Large objects every 16th iteration exercise dedicated
				// page runs; everything else fills shared pages.
				size := 24 + (w+i)%96
				if i%16 == 15 {
					size = 600 + w // > page size: spans dedicated pages
				}
				oid, err := s.Create(size)
				if err != nil {
					errCh <- fmt.Errorf("worker %d create: %w", w, err)
					return
				}
				mine = append(mine, oid)
				if err := s.Access(shared[(w*31+i)%sharedN]); err != nil {
					errCh <- fmt.Errorf("worker %d shared access: %w", w, err)
					return
				}
				if err := s.Update(oid); err != nil {
					errCh <- fmt.Errorf("worker %d update: %w", w, err)
					return
				}
				// Delete every other object we created two steps ago.
				if i%2 == 1 && len(mine) > 2 {
					victim := mine[len(mine)-3]
					if err := s.Delete(victim); err != nil {
						errCh <- fmt.Errorf("worker %d delete: %w", w, err)
						return
					}
					gone[w] = append(gone[w], victim)
					mine = append(mine[:len(mine)-3], mine[len(mine)-2:]...)
				}
			}
			keep[w] = mine
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	wantLive := sharedN
	for w := 0; w < workers; w++ {
		wantLive += len(keep[w])
	}
	if got := s.NumObjects(); got != wantLive {
		t.Fatalf("NumObjects = %d, want %d", got, wantLive)
	}

	// No OID resurrection: deleted objects stay dead and inaccessible.
	for w := 0; w < workers; w++ {
		for _, oid := range gone[w] {
			if s.Exists(oid) {
				t.Fatalf("deleted object %d resurrected", oid)
			}
			if err := s.Access(oid); !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("accessing deleted object %d: err = %v, want ErrNoSuchObject", oid, err)
			}
		}
		for _, oid := range keep[w] {
			if !s.Exists(oid) {
				t.Fatalf("live object %d missing", oid)
			}
		}
	}

	// Table/page invariants: slot directories, byte accounting, table
	// agreement, pool residency.
	if err := s.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after hammer: %v", err)
	}
	// Every page in the layout belongs to a live object and is non-empty
	// (emptied pages are freed, not leaked).
	layout := s.Layout()
	if len(layout) != s.NumPages() {
		t.Fatalf("layout covers %d pages, disk has %d", len(layout), s.NumPages())
	}
	for pid, oids := range layout {
		if len(oids) == 0 {
			t.Fatalf("page %d leaked empty", pid)
		}
	}
}

// TestConcurrentAccessCounts pins the atomic counters: concurrent readers
// must not lose object-access or I/O counts.
func TestConcurrentAccessCounts(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 1024, Shards: 16})
	const n = 200
	oids := make([]OID, n)
	for i := range oids {
		oid, err := s.Create(40)
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := s.Access(oids[(w*17+i)%n]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.ObjectsAccessed != workers*perWorker {
		t.Fatalf("ObjectsAccessed = %d, want %d", st.ObjectsAccessed, workers*perWorker)
	}
	// Buffer big enough for everything: each distinct page reads exactly
	// once, and hits+misses account for every fault attempt.
	if got := st.Pool.Hits + st.Pool.Misses; got != workers*perWorker {
		t.Fatalf("pool hits+misses = %d, want %d", got, workers*perWorker)
	}
	if st.Pool.Evictions != 0 {
		t.Fatalf("unexpected evictions: %d", st.Pool.Evictions)
	}
	if st.Disk.TotalReads() != st.Pool.Misses {
		t.Fatalf("disk reads %d != pool misses %d", st.Disk.TotalReads(), st.Pool.Misses)
	}
}

// TestShardedMatchesSingle replays one deterministic workload on a
// single-shard store and a sharded store and checks that the object-level
// outcomes (live set, sizes, integrity) and the buffer's I/O agree —
// sharding changes table locking, never the stored state or the one
// buffer's replacement order.
func TestShardedMatchesSingle(t *testing.T) {
	run := func(shards int) *Store {
		s := MustOpen(Config{PageSize: 512, BufferPages: 16, Shards: shards})
		var live []OID
		for i := 0; i < 300; i++ {
			oid, err := s.Create(20 + i%150)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, oid)
			if i%3 == 2 {
				victim := live[len(live)/2]
				if err := s.Delete(victim); err != nil {
					t.Fatal(err)
				}
				live = append(live[:len(live)/2], live[len(live)/2+1:]...)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	single := run(1)
	sharded := run(8)
	if single.NumObjects() != sharded.NumObjects() {
		t.Fatalf("live objects: single %d vs sharded %d", single.NumObjects(), sharded.NumObjects())
	}
	if st1, st2 := single.Stats(), sharded.Stats(); st1.Pool != st2.Pool || st1.Disk != st2.Disk {
		t.Fatalf("I/O: single pool %+v disk %+v vs sharded pool %+v disk %+v", st1.Pool, st1.Disk, st2.Pool, st2.Disk)
	}
	for oid := OID(1); oid < 300; oid++ {
		s1, ok1 := single.SizeOf(oid)
		s2, ok2 := sharded.SizeOf(oid)
		if ok1 != ok2 || s1 != s2 {
			t.Fatalf("object %d: single (%d,%v) vs sharded (%d,%v)", oid, s1, ok1, s2, ok2)
		}
	}
	for _, s := range []*Store{single, sharded} {
		if err := s.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAccessDeleteRaceErrorMapping pins the race contract: a page fault
// that loses against a concurrent Delete surfaces as ErrNoSuchObject, as
// if the delete had completed first, never as a raw disk error.
func TestAccessDeleteRaceErrorMapping(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 16, Shards: 4})
	oid, err := s.Create(40)
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := s.PageOf(oid)
	pageErr := fmt.Errorf("wrapped: %w: %d", disk.ErrNoSuchPage, pid)

	// Object still present: the fault error passes through untranslated.
	if got := s.faultErr(oid, pageErr); !errors.Is(got, disk.ErrNoSuchPage) || errors.Is(got, ErrNoSuchObject) {
		t.Fatalf("live object: faultErr = %v, want the page error", got)
	}
	// Object gone (the delete won): the caller sees ErrNoSuchObject.
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if got := s.faultErr(oid, pageErr); !errors.Is(got, ErrNoSuchObject) {
		t.Fatalf("deleted object: faultErr = %v, want ErrNoSuchObject", got)
	}
}

// TestDeleteRollbackOnFault pins the error path: when the very first page
// operation of a Delete fails (fault injection), the table entry is
// reinstated and the object stays intact and retriable.
func TestDeleteRollbackOnFault(t *testing.T) {
	s := MustOpen(Config{PageSize: 512, BufferPages: 16, Shards: 4})
	oid, err := s.Create(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache() // the delete must fault the page back in

	injected := errors.New("injected fault")
	s.Disk().FailureHook = func(op disk.Op, id disk.PageID) error { return injected }
	if err := s.Delete(oid); !errors.Is(err, injected) {
		t.Fatalf("Delete with faulting disk: err = %v, want injected fault", err)
	}
	s.Disk().FailureHook = nil

	if !s.Exists(oid) {
		t.Fatal("failed delete lost the object")
	}
	if err := s.Access(oid); err != nil {
		t.Fatalf("object not retriable after failed delete: %v", err)
	}
	if err := s.Delete(oid); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
