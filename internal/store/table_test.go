package store

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ocb/internal/disk"
)

// tableLens returns the length of every shard's directory slice.
func tableLens(s *Store) []int {
	lens := make([]int, len(s.tables))
	for i := range s.tables {
		lens[i] = len(s.tables[i].m)
	}
	return lens
}

// TestOutsideOIDsNeverGrowTable: only OIDs the store issued size the object
// table; every lookup of an OID from outside reports it absent.
func TestOutsideOIDsNeverGrowTable(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := MustOpen(Config{PageSize: 256, BufferPages: 4, Shards: shards})
		oids := populate(t, s, 10, 20)
		want := tableLens(s)
		for _, oid := range []OID{NilOID, oids[9] + 1, 1 << 60, ^OID(0)} {
			for name, err := range map[string]error{
				"Access": s.Access(oid),
				"Update": s.Update(oid),
				"Delete": s.Delete(oid),
			} {
				if !errors.Is(err, ErrNoSuchObject) {
					t.Fatalf("shards=%d %s(%d) = %v, want ErrNoSuchObject", shards, name, oid, err)
				}
			}
			if n, err := s.AccessBatch([]OID{oids[0], oid, oids[1]}); n != 1 || !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("shards=%d AccessBatch around %d = %d, %v; want 1, ErrNoSuchObject", shards, oid, n, err)
			}
			if s.Exists(oid) {
				t.Fatalf("shards=%d Exists(%d) = true", shards, oid)
			}
			if _, ok := s.SizeOf(oid); ok {
				t.Fatalf("shards=%d SizeOf(%d) found an object", shards, oid)
			}
			if _, ok := s.PageOf(oid); ok {
				t.Fatalf("shards=%d PageOf(%d) found an object", shards, oid)
			}
			if _, ok := s.PagesOf(oid); ok {
				t.Fatalf("shards=%d PagesOf(%d) found an object", shards, oid)
			}
			if got := tableLens(s); !slices.Equal(got, want) {
				t.Fatalf("shards=%d OID %d grew the table: %v, want %v", shards, oid, got, want)
			}
		}
		if s.NumObjects() != 10 {
			t.Fatalf("shards=%d NumObjects = %d after absent lookups, want 10", shards, s.NumObjects())
		}
	}
}

// TestRestoreRejectsHostileImage: an image naming an id its own cursors
// never issued fails before the id can size the page catalogue or the
// object table (sized by it, either would not fit in memory).
func TestRestoreRejectsHostileImage(t *testing.T) {
	src := MustOpen(Config{PageSize: 256, BufferPages: 4})
	populate(t, src, 10, 20)
	for name, corrupt := range map[string]func(*Image){
		"object id zero":         func(img *Image) { img.Objects[3].OID = NilOID },
		"object id at NextOID":   func(img *Image) { img.Objects[3].OID = img.NextOID },
		"object id far past":     func(img *Image) { img.Objects[3].OID = 1 << 60 },
		"page id zero":           func(img *Image) { img.Disk.Pages[1].ID = 0 },
		"page id at Next":        func(img *Image) { img.Disk.Pages[1].ID = img.Disk.Next },
		"page id far past":       func(img *Image) { img.Disk.Pages[1].ID = ^disk.PageID(0) },
		"page id past zero Next": func(img *Image) { img.Disk.Next = 0 },
	} {
		img, err := src.Image()
		if err != nil {
			t.Fatal(err)
		}
		corrupt(img)
		s := MustOpen(Config{PageSize: 256, BufferPages: 4})
		if err := s.Restore(img); err == nil {
			t.Fatalf("%s: Restore accepted the image", name)
		}
		if s.NumObjects() != 0 || s.NumPages() != 0 || len(s.tables[0].m) != 0 {
			t.Fatalf("%s: the refused image left %d objects, %d pages, %d table slots",
				name, s.NumObjects(), s.NumPages(), len(s.tables[0].m))
		}
	}
}

// TestAccessBatchFaultingAllocFree: with a working set several times the
// buffer every batch misses and evicts, and still allocates nothing — the
// faulted page moves into the frame its victim left.
func TestAccessBatchFaultingAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	s := MustOpen(Config{PageSize: 256, BufferPages: 8})
	oids := populate(t, s, 200, 50)
	if s.NumPages() < 4*8 {
		t.Fatalf("only %d pages: the working set must exceed the 8-frame buffer", s.NumPages())
	}
	if _, err := s.AccessBatch(oids); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Pool
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.AccessBatch(oids); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("faulting AccessBatch allocates %.1f per call, want 0", avg)
	}
	after := s.Stats().Pool
	if misses := after.Misses - before.Misses; misses < 21*uint64(s.NumPages()) || after.Evictions-before.Evictions != misses {
		t.Fatalf("the batches did not fault every page: before %+v, after %+v", before, after)
	}
}

// TestImageRestoreRoundTripSharded: after interleaved creates and deletes at
// 16 shards the directory walk reconstructs every live OID from its (slot,
// shard) position, exactly once, and a restored store agrees object by
// object.
func TestImageRestoreRoundTripSharded(t *testing.T) {
	src := MustOpen(Config{PageSize: 256, BufferPages: 8, Shards: 16})
	rng := rand.New(rand.NewSource(16))
	live := map[OID]int{} // OID -> payload size
	var created []OID
	var last OID
	for i := 0; i < 600; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			oid := created[rng.Intn(len(created))]
			if _, ok := live[oid]; ok {
				if err := src.Delete(oid); err != nil {
					t.Fatal(err)
				}
				delete(live, oid)
			}
			continue
		}
		size := 10 + rng.Intn(60)
		if rng.Intn(40) == 0 {
			size = 600 // a large object: a run of dedicated pages
		}
		oid, err := src.Create(size)
		if err != nil {
			t.Fatal(err)
		}
		live[oid], last = size, oid
		created = append(created, oid)
	}

	seen := map[OID]bool{}
	_ = src.forEachLoc(func(oid OID, l *loc) error {
		if seen[oid] {
			t.Fatalf("forEachLoc visited %d twice", oid)
		}
		seen[oid] = true
		if size, ok := live[oid]; !ok || l.size != size+ObjectHeaderSize {
			t.Fatalf("forEachLoc yielded %d (size %d); live = %v, payload %d", oid, l.size, ok, size)
		}
		return nil
	})
	if len(seen) != len(live) || src.NumObjects() != len(live) {
		t.Fatalf("forEachLoc visited %d, NumObjects %d, want %d", len(seen), src.NumObjects(), len(live))
	}

	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{16, 1} {
		dst := MustOpen(Config{PageSize: 256, BufferPages: 8, Shards: shards})
		if err := dst.Restore(img); err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		if dst.NumObjects() != len(live) || dst.NumPages() != src.NumPages() {
			t.Fatalf("shards=%d restored %d objects on %d pages, want %d on %d",
				shards, dst.NumObjects(), dst.NumPages(), len(live), src.NumPages())
		}
		for oid := OID(1); oid <= last+1; oid++ {
			wantPages, want := src.PagesOf(oid)
			gotPages, got := dst.PagesOf(oid)
			_, isLive := live[oid]
			if got != isLive || want != isLive || !slices.Equal(gotPages, wantPages) {
				t.Fatalf("shards=%d OID %d: restored %v %v, source %v %v, live %v", shards, oid, got, gotPages, want, wantPages, isLive)
			}
			if err := dst.Access(oid); (err == nil) != isLive {
				t.Fatalf("shards=%d Access(%d) = %v, live %v", shards, oid, err, isLive)
			}
		}
		if next, err := dst.Create(10); err != nil || next != last+1 {
			t.Fatalf("shards=%d restored store issued OID %d (%v), want %d", shards, next, err, last+1)
		}
	}
}
