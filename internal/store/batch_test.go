package store

import (
	"errors"
	"testing"
)

// populate creates n objects of the given payload size.
func populate(t *testing.T, s *Store, n, size int) []OID {
	t.Helper()
	oids := make([]OID, 0, n)
	for i := 0; i < n; i++ {
		oid, err := s.Create(size)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

// TestAccessBatchMatchesSequential replays the same access sequence
// through per-object Access on one store and AccessBatch chunks on an
// identically built one: every counter — disk reads, pool hits/misses,
// objects accessed — must agree, since the batch path promises the exact
// fault schedule of the sequential path.
func TestAccessBatchMatchesSequential(t *testing.T) {
	mk := func() (*Store, []OID) {
		s, err := Open(Config{PageSize: 256, BufferPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s, populate(t, s, 60, 50)
	}
	seq, seqOIDs := mk()
	bat, batOIDs := mk()

	// A working set larger than the pool, revisits included.
	var access []int
	for i := 0; i < 300; i++ {
		access = append(access, (i*13)%60)
	}
	for _, i := range access {
		if err := seq.Access(seqOIDs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for start := 0; start < len(access); start += 7 {
		end := start + 7
		if end > len(access) {
			end = len(access)
		}
		chunk := make([]OID, 0, 7)
		for _, i := range access[start:end] {
			chunk = append(chunk, batOIDs[i])
		}
		n, err := bat.AccessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(chunk) {
			t.Fatalf("batch accessed %d of %d", n, len(chunk))
		}
	}

	ss, bs := seq.Stats(), bat.Stats()
	if ss != bs {
		t.Fatalf("sequential stats %+v, batched stats %+v", ss, bs)
	}
}

// TestAccessBatchMissingObject checks sequential error semantics: the
// prefix before a missing object is accessed and charged, the rest is not.
func TestAccessBatchMissingObject(t *testing.T) {
	s := openSmall(t)
	oids := populate(t, s, 6, 50)
	before := s.ObjectsAccessed()
	n, err := s.AccessBatch([]OID{oids[0], oids[1], OID(999), oids[2]})
	if !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v, want ErrNoSuchObject", err)
	}
	if n != 2 {
		t.Fatalf("accessed %d objects before the miss, want 2", n)
	}
	if got := s.ObjectsAccessed() - before; got != 2 {
		t.Fatalf("counter advanced by %d, want 2", got)
	}
}

// TestAccessBatchEmpty is the trivial edge.
func TestAccessBatchEmpty(t *testing.T) {
	s := openSmall(t)
	if n, err := s.AccessBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty batch: n=%d err=%v", n, err)
	}
}

// TestAccessBatchLargeObject faults a multi-page object's whole run.
func TestAccessBatchLargeObject(t *testing.T) {
	s, err := Open(Config{PageSize: 256, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Create(50)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Create(600) // spans three 256-byte pages
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()
	n, err := s.AccessBatch([]OID{small, large})
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if got := s.Stats().Disk.TotalReads(); got != 4 {
		t.Fatalf("read %d pages, want 4 (1 small + 3 large)", got)
	}
}

// TestAccessBatchReuseAllocFree checks that the pooled scratch keeps the
// batched fault path allocation-free once warm and the pool resident.
func TestAccessBatchReuseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	s, err := Open(Config{PageSize: 4096, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	oids := populate(t, s, 100, 50)
	if _, err := s.AccessBatch(oids); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.AccessBatch(oids); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("AccessBatch allocates %.1f per call, want 0", avg)
	}
}
