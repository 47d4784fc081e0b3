package store

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ocb/internal/disk"
)

// TestOutsideOIDsNeverGrowTable: only OIDs the store issued size the object
// table; every lookup of an OID from outside reports it absent.
func TestOutsideOIDsNeverGrowTable(t *testing.T) {
	s := MustOpen(Config{PageSize: 256, BufferPages: 4})
	oids := populate(t, s, 10, 20)
	want := len(s.table)
	for _, oid := range []OID{NilOID, oids[9] + 1, 1 << 60, ^OID(0)} {
		for name, err := range map[string]error{
			"Access": s.Access(oid),
			"Update": s.Update(oid),
			"Delete": s.Delete(oid),
		} {
			if !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("%s(%d) = %v, want ErrNoSuchObject", name, oid, err)
			}
		}
		if n, err := s.AccessBatch([]OID{oids[0], oid, oids[1]}); n != 1 || !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("AccessBatch around %d = %d, %v; want 1, ErrNoSuchObject", oid, n, err)
		}
		if s.Exists(oid) {
			t.Fatalf("Exists(%d) = true", oid)
		}
		if _, ok := s.SizeOf(oid); ok {
			t.Fatalf("SizeOf(%d) found an object", oid)
		}
		if _, ok := s.PageOf(oid); ok {
			t.Fatalf("PageOf(%d) found an object", oid)
		}
		if _, ok := s.PagesOf(oid); ok {
			t.Fatalf("PagesOf(%d) found an object", oid)
		}
		if got := len(s.table); got != want {
			t.Fatalf("OID %d grew the table to %d slots, want %d", oid, got, want)
		}
	}
	if s.NumObjects() != 10 {
		t.Fatalf("NumObjects = %d after absent lookups, want 10", s.NumObjects())
	}
}

// TestRestoreRejectsHostileImage: an image naming an id its own cursors
// never issued fails before the id can size the page catalogue or the
// object table (sized by it, either would not fit in memory), and so does
// one whose cursors would issue id 0, whose object sizes disagree with
// their page runs or do not fit a table entry, or whose objects name page 0
// (an empty table entry) or a page the cursor never issued.
func TestRestoreRejectsHostileImage(t *testing.T) {
	src := MustOpen(Config{PageSize: 256, BufferPages: 4})
	populate(t, src, 10, 20)
	if _, err := src.Create(600); err != nil { // the last object: a 3-page run
		t.Fatal(err)
	}
	last := func(img *Image) *ImageObject { return &img.Objects[len(img.Objects)-1] }
	for name, corrupt := range map[string]func(*Image){
		"object size zero":           func(img *Image) { img.Objects[3].Size = 0 },
		"object size negative":       func(img *Image) { img.Objects[3].Size = -7 },
		"object size below header":   func(img *Image) { img.Objects[3].Size = ObjectHeaderSize - 1 },
		"one page for 5000 bytes":    func(img *Image) { img.Objects[3].Size = 5000 },
		"object size past a table":   func(img *Image) { img.Objects[3].Size = 1 << 33 },
		"large run short a page":     func(img *Image) { last(img).Pages = last(img).Pages[:2] },
		"large run for a small size": func(img *Image) { last(img).Size = 100 },
		"page size zero":             func(img *Image) { img.Disk.PageSize = 0 },
		"empty, zero page cursor":    func(img *Image) { img.Disk.Pages, img.Objects, img.Disk.Next = nil, nil, 0 },
		"empty, zero object cursor":  func(img *Image) { img.Disk.Pages, img.Objects, img.NextOID = nil, nil, 0 },
		"object id zero":             func(img *Image) { img.Objects[3].OID = NilOID },
		"object id at NextOID":       func(img *Image) { img.Objects[3].OID = img.NextOID },
		"object id far past":         func(img *Image) { img.Objects[3].OID = 1 << 60 },
		"page id zero":               func(img *Image) { img.Disk.Pages[1].ID = 0 },
		"page id at Next":            func(img *Image) { img.Disk.Pages[1].ID = img.Disk.Next },
		"page id far past":           func(img *Image) { img.Disk.Pages[1].ID = ^disk.PageID(0) },
		"page id past zero Next":     func(img *Image) { img.Disk.Next = 0 },
		"object home page zero":      func(img *Image) { img.Objects[3].Pages[0] = 0 },
		"object home page at Next":   func(img *Image) { img.Objects[3].Pages[0] = img.Disk.Next },
		"large run page zero":        func(img *Image) { last(img).Pages[1] = 0 },
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
		if s.NumObjects() != 0 || s.NumPages() != 0 || len(s.table) != 0 {
			t.Fatalf("%s: the refused image left %d objects, %d pages, %d table slots",
				name, s.NumObjects(), s.NumPages(), len(s.table))
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

// TestImageRestoreRoundTripSharded: after interleaved creates and deletes
// under buffer pressure, large objects included, the store passes its
// integrity check, the table walk yields every live OID exactly once and in
// ascending order, and a restored store agrees object by object. (The name
// predates the single object table.)
func TestImageRestoreRoundTripSharded(t *testing.T) {
	src := MustOpen(Config{PageSize: 256, BufferPages: 8})
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
	if err := src.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	var walked []OID
	_ = src.forEachLoc(func(oid OID, l loc) error {
		walked = append(walked, oid)
		if size, ok := live[oid]; !ok || int(l.size) != size+ObjectHeaderSize {
			t.Fatalf("forEachLoc yielded %d (size %d); live = %v, payload %d", oid, l.size, ok, size)
		}
		return nil
	})
	if !slices.IsSorted(walked) || len(slices.Compact(slices.Clone(walked))) != len(walked) {
		t.Fatalf("forEachLoc walked %v, want strictly ascending OIDs", walked)
	}
	if len(walked) != len(live) || src.NumObjects() != len(live) {
		t.Fatalf("forEachLoc visited %d, NumObjects %d, want %d", len(walked), src.NumObjects(), len(live))
	}

	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Config.Options) != 0 {
		t.Fatalf("image carries options %v, want none", img.Config.Options)
	}
	dst := MustOpen(Config{PageSize: 256, BufferPages: 8})
	if err := dst.Restore(img); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if dst.NumObjects() != len(live) || dst.NumPages() != src.NumPages() {
		t.Fatalf("restored %d objects on %d pages, want %d on %d",
			dst.NumObjects(), dst.NumPages(), len(live), src.NumPages())
	}
	for oid := OID(1); oid <= last+1; oid++ {
		wantPages, want := src.PagesOf(oid)
		gotPages, got := dst.PagesOf(oid)
		_, isLive := live[oid]
		if got != isLive || want != isLive || !slices.Equal(gotPages, wantPages) {
			t.Fatalf("OID %d: restored %v %v, source %v %v, live %v", oid, got, gotPages, want, wantPages, isLive)
		}
		if err := dst.Access(oid); (err == nil) != isLive {
			t.Fatalf("Access(%d) = %v, live %v", oid, err, isLive)
		}
	}
	if next, err := dst.Create(10); err != nil || next != last+1 {
		t.Fatalf("restored store issued OID %d (%v), want %d", next, err, last+1)
	}
}
