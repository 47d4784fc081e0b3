package store

import (
	"errors"
	"testing"
	"testing/quick"

	"ocb/internal/disk"
)

func openSmall(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{PageSize: 256, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateSequentialOIDs(t *testing.T) {
	s := openSmall(t)
	for want := OID(1); want <= 10; want++ {
		oid, err := s.Create(10)
		if err != nil {
			t.Fatal(err)
		}
		if oid != want {
			t.Fatalf("Create returned %d, want %d", oid, want)
		}
	}
	if s.NumObjects() != 10 {
		t.Fatalf("NumObjects = %d", s.NumObjects())
	}
}

func TestCreationOrderPlacement(t *testing.T) {
	// 256-byte pages, 16-byte header: three 50-byte objects (66 on disk)
	// fit per page; the fourth starts a new page.
	s := openSmall(t)
	var pages []disk.PageID
	for i := 0; i < 6; i++ {
		oid, err := s.Create(50)
		if err != nil {
			t.Fatal(err)
		}
		pg, ok := s.PageOf(oid)
		if !ok {
			t.Fatal("PageOf missing")
		}
		pages = append(pages, pg)
	}
	if pages[0] != pages[1] || pages[1] != pages[2] {
		t.Fatalf("first three objects not co-located: %v", pages)
	}
	if pages[2] == pages[3] {
		t.Fatalf("fourth object did not start a new page: %v", pages)
	}
	if pages[3] != pages[4] || pages[4] != pages[5] {
		t.Fatalf("second page fill broken: %v", pages)
	}
}

func TestCreateRejectsNegativeSize(t *testing.T) {
	s := openSmall(t)
	if _, err := s.Create(-1); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative size: %v", err)
	}
}

func TestLargeObjectSpansPages(t *testing.T) {
	s := openSmall(t) // 256-byte pages
	oid, err := s.Create(1000)
	if err != nil {
		t.Fatal(err)
	}
	pages, ok := s.PagesOf(oid)
	if !ok {
		t.Fatal("PagesOf missing")
	}
	// 1016 bytes on disk -> 4 dedicated pages.
	if len(pages) != 4 {
		t.Fatalf("large object on %d pages, want 4", len(pages))
	}
	// Accessing the object faults the whole run.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()
	if err := s.Access(oid); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Disk.TotalReads(); got != 4 {
		t.Fatalf("large access read %d pages, want 4", got)
	}
}

func TestLargeObjectDeleteFreesRun(t *testing.T) {
	s := openSmall(t)
	oid, err := s.Create(1000)
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Create(50)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumPages()
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if got := s.NumPages(); got != before-4 {
		t.Fatalf("pages after large delete = %d, want %d", got, before-4)
	}
	if !s.Exists(small) {
		t.Fatal("unrelated object vanished")
	}
}

func TestLargeObjectRelocates(t *testing.T) {
	s := openSmall(t)
	big, err := s.Create(600) // 616 bytes -> 3 pages
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Create(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Relocate([][]OID{{a, big}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 2 {
		t.Fatalf("moved = %d", rs.ObjectsMoved)
	}
	pages, _ := s.PagesOf(big)
	if len(pages) != 3 {
		t.Fatalf("relocated large object on %d pages", len(pages))
	}
	if err := s.Access(big); err != nil {
		t.Fatal(err)
	}
	if err := s.Access(a); err != nil {
		t.Fatal(err)
	}
	// A small object's run stays length 1.
	ap, _ := s.PagesOf(a)
	if len(ap) != 1 {
		t.Fatalf("small object run = %d pages", len(ap))
	}
}

func TestUpdateLargeObjectDirtiesRun(t *testing.T) {
	s := openSmall(t)
	oid, err := s.Create(600)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if err := s.Update(oid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if w := s.Stats().Disk.TotalWrites(); w != 3 {
		t.Fatalf("commit after large update wrote %d, want 3", w)
	}
}

func TestAccessFaultsOncePerResidency(t *testing.T) {
	s := openSmall(t)
	oid, err := s.Create(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()

	for i := 0; i < 5; i++ {
		if err := s.Access(oid); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Disk.TotalReads() != 1 {
		t.Fatalf("reads = %d, want 1 (one fault, then hits)", st.Disk.TotalReads())
	}
	if st.ObjectsAccessed != 5 {
		t.Fatalf("objects accessed = %d, want 5", st.ObjectsAccessed)
	}
	if st.Pool.Hits != 4 || st.Pool.Misses != 1 {
		t.Fatalf("pool stats = %+v", st.Pool)
	}
}

func TestAccessMissing(t *testing.T) {
	s := openSmall(t)
	if err := s.Access(77); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Access(77) err = %v", err)
	}
}

func TestUpdateMarksDirty(t *testing.T) {
	s := openSmall(t)
	oid, _ := s.Create(50)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()
	if err := s.Update(oid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if w := s.Stats().Disk.TotalWrites(); w != 1 {
		t.Fatalf("commit after update wrote %d, want 1", w)
	}
}

func TestDelete(t *testing.T) {
	s := openSmall(t)
	a, _ := s.Create(50)
	b, _ := s.Create(50)
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if s.Exists(a) {
		t.Fatal("deleted object still exists")
	}
	if !s.Exists(b) {
		t.Fatal("sibling object vanished")
	}
	if err := s.Access(a); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Access(deleted) err = %v", err)
	}
	if err := s.Delete(a); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeleteFreesEmptyPage(t *testing.T) {
	s := openSmall(t)
	a, _ := s.Create(200) // fills a page alone (216 of 256)
	before := s.NumPages()
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != before-1 {
		t.Fatalf("page not freed: %d -> %d", before, s.NumPages())
	}
	// The store must keep working after losing its fill page.
	if _, err := s.Create(50); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOfIncludesHeader(t *testing.T) {
	s := openSmall(t)
	oid, _ := s.Create(50)
	sz, ok := s.SizeOf(oid)
	if !ok || sz != 50+ObjectHeaderSize {
		t.Fatalf("SizeOf = %d, %v", sz, ok)
	}
}

func TestRelocateMovesAndCharges(t *testing.T) {
	s, err := Open(Config{PageSize: 256, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 9 objects over 3 pages (3 per page).
	var oids []OID
	for i := 0; i < 9; i++ {
		oid, err := s.Create(50)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()

	// Cluster one object from each source page together.
	cluster := []OID{oids[0], oids[3], oids[6]}
	rs, err := s.Relocate([][]OID{cluster})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 3 {
		t.Fatalf("moved = %d", rs.ObjectsMoved)
	}
	if rs.PagesRead != 3 {
		t.Fatalf("pages read = %d, want 3 source pages", rs.PagesRead)
	}
	if rs.NewPages != 1 {
		t.Fatalf("new pages = %d, want 1", rs.NewPages)
	}
	// 3 source rewrites + 1 new page.
	if rs.PagesWritten != 4 {
		t.Fatalf("pages written = %d, want 4", rs.PagesWritten)
	}

	// All clustered objects now share one page.
	p0, _ := s.PageOf(cluster[0])
	for _, oid := range cluster[1:] {
		p, _ := s.PageOf(oid)
		if p != p0 {
			t.Fatalf("cluster split across pages")
		}
	}
	// Every I/O was charged to the clustering class.
	st := s.Stats()
	if st.Disk.TransactionIOs() != 0 {
		t.Fatalf("relocation charged transaction I/Os: %+v", st.Disk)
	}
	if st.Disk.ClusteringIOs() != 7 {
		t.Fatalf("clustering I/Os = %d, want 7", st.Disk.ClusteringIOs())
	}
}

func TestRelocateAllObjectsFreesSources(t *testing.T) {
	s, _ := Open(Config{PageSize: 256, BufferPages: 8})
	var oids []OID
	for i := 0; i < 6; i++ {
		oid, _ := s.Create(50)
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Relocate([][]OID{oids})
	if err != nil {
		t.Fatal(err)
	}
	if rs.PagesFreed != 2 {
		t.Fatalf("pages freed = %d, want 2", rs.PagesFreed)
	}
	if s.NumPages() != 2 {
		t.Fatalf("pages after full relocation = %d, want 2", s.NumPages())
	}
}

func TestRelocateDeduplicatesAcrossUnits(t *testing.T) {
	s, _ := Open(Config{PageSize: 256, BufferPages: 8})
	a, _ := s.Create(50)
	b, _ := s.Create(50)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Relocate([][]OID{{a, b}, {b, a}, {NilOID, 999}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 2 {
		t.Fatalf("moved = %d, want 2 (deduplicated)", rs.ObjectsMoved)
	}
}

func TestRelocateEmpty(t *testing.T) {
	s := openSmall(t)
	rs, err := s.Relocate(nil)
	if err != nil || rs.ObjectsMoved != 0 {
		t.Fatalf("empty relocate: %+v, %v", rs, err)
	}
}

func TestRelocateKeepsUnitWhole(t *testing.T) {
	s, _ := Open(Config{PageSize: 256, BufferPages: 8})
	var oids []OID
	for i := 0; i < 4; i++ {
		oid, _ := s.Create(50) // 66 bytes each; 3 fit per 256-byte page
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Unit 1 = 2 objects (132 bytes), unit 2 = 2 objects. Both fit a page
	// individually but not together behind unit 1's remainder... they do
	// actually (132+132=264 > 256), so unit 2 must start a fresh page.
	rs, err := s.Relocate([][]OID{{oids[0], oids[1]}, {oids[2], oids[3]}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.NewPages != 2 {
		t.Fatalf("new pages = %d, want 2 (unit not split)", rs.NewPages)
	}
	p2a, _ := s.PageOf(oids[2])
	p2b, _ := s.PageOf(oids[3])
	if p2a != p2b {
		t.Fatal("unit 2 split across pages")
	}
	p1, _ := s.PageOf(oids[0])
	if p1 == p2a {
		t.Fatal("units share a page despite not fitting")
	}
}

// TestRelocatePreservesObjects property-checks that relocation is a
// permutation of placements: no object lost, sizes unchanged, and the
// page directory agrees with the object table.
func TestRelocatePreservesObjects(t *testing.T) {
	f := func(sizes []uint8, pick []bool) bool {
		s, err := Open(Config{PageSize: 512, BufferPages: 4})
		if err != nil {
			return false
		}
		var oids []OID
		for _, sz := range sizes {
			oid, err := s.Create(int(sz)%200 + 1)
			if err != nil {
				return false
			}
			oids = append(oids, oid)
		}
		if err := s.Commit(); err != nil {
			return false
		}
		var cluster []OID
		for i, oid := range oids {
			if i < len(pick) && pick[i] {
				cluster = append(cluster, oid)
			}
		}
		if _, err := s.Relocate([][]OID{cluster}); err != nil {
			return false
		}
		// Every object must still exist with its size, and the page
		// directory must agree with the table.
		layout := s.Layout()
		onPages := make(map[OID]disk.PageID)
		for pid, objs := range layout {
			for _, o := range objs {
				if _, dup := onPages[o]; dup {
					return false // object on two pages
				}
				onPages[o] = pid
			}
		}
		if len(onPages) != len(oids) {
			return false
		}
		for _, oid := range oids {
			pg, ok := s.PageOf(oid)
			if !ok || onPages[oid] != pg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndReset(t *testing.T) {
	s := openSmall(t)
	oid, _ := s.Create(50)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	if err := s.Access(oid); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Pages != 1 || st.ObjectsAccessed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.ResetStats()
	st = s.Stats()
	if st.ObjectsAccessed != 0 || st.Disk.Total() != 0 || st.Pool.Misses != 0 {
		t.Fatalf("reset incomplete: %+v", st)
	}
	// Objects/pages are state, not counters: they must survive reset.
	if st.Objects != 1 || st.Pages != 1 {
		t.Fatalf("reset clobbered state: %+v", st)
	}
}

func TestIOClassRestoredAfterRelocate(t *testing.T) {
	s := openSmall(t)
	a, _ := s.Create(50)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Relocate([][]OID{{a}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Disk().Class(); got != disk.Transaction {
		t.Fatalf("class after relocate = %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.PageSize() != disk.DefaultPageSize {
		t.Fatalf("default page size = %d", s.PageSize())
	}
	if s.Pool().Capacity() != 512 {
		t.Fatalf("default buffer pages = %d", s.Pool().Capacity())
	}
}

func TestMustOpenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOpen did not panic on bad config")
		}
	}()
	MustOpen(Config{BufferPages: -1})
}
