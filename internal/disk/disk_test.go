package disk

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllocateReadWrite(t *testing.T) {
	d := New(4096)
	p := d.Allocate()
	if p.ID == 0 {
		t.Fatal("allocated page has zero id")
	}
	if !p.Add(1, 100, 4096) {
		t.Fatal("Add failed on empty page")
	}
	if err := d.Write(p); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(1) {
		t.Fatal("written slot not visible after read")
	}
	st := d.Stats()
	if st.Reads[Transaction] != 1 || st.Writes[Transaction] != 1 {
		t.Fatalf("stats = %+v, want 1 read / 1 write", st)
	}
}

func TestReadMissing(t *testing.T) {
	d := New(0)
	if _, err := d.Read(42); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Read(42) err = %v, want ErrNoSuchPage", err)
	}
	// Failed reads must not be charged.
	if d.Stats().Total() != 0 {
		t.Fatalf("failed read was charged: %+v", d.Stats())
	}
}

func TestWriteUnallocated(t *testing.T) {
	d := New(0)
	err := d.Write(&Page{ID: 99})
	if !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Write err = %v, want ErrNoSuchPage", err)
	}
}

func TestDefaultPageSize(t *testing.T) {
	if d := New(0); d.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", d.PageSize(), DefaultPageSize)
	}
	if d := New(-5); d.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", d.PageSize(), DefaultPageSize)
	}
}

func TestIOClassRouting(t *testing.T) {
	d := New(0)
	p := d.Allocate()
	if err := d.Write(p); err != nil {
		t.Fatal(err)
	}
	d.SetClass(Clustering)
	if _, err := d.Read(p.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(p); err != nil {
		t.Fatal(err)
	}
	d.SetClass(Transaction)
	if _, err := d.Read(p.ID); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes[Transaction] != 1 || st.Reads[Transaction] != 1 {
		t.Fatalf("transaction counters wrong: %+v", st)
	}
	if st.Writes[Clustering] != 1 || st.Reads[Clustering] != 1 {
		t.Fatalf("clustering counters wrong: %+v", st)
	}
	if st.TransactionIOs() != 2 || st.ClusteringIOs() != 2 || st.Total() != 4 {
		t.Fatalf("aggregates wrong: %+v", st)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{}
	a.Reads[Transaction] = 10
	a.Writes[Clustering] = 4
	b := Stats{}
	b.Reads[Transaction] = 3
	b.Writes[Clustering] = 1
	dlt := a.Sub(b)
	if dlt.Reads[Transaction] != 7 || dlt.Writes[Clustering] != 3 {
		t.Fatalf("Sub = %+v", dlt)
	}
}

func TestResetStats(t *testing.T) {
	d := New(0)
	p := d.Allocate()
	if err := d.Write(p); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if d.Stats().Total() != 0 {
		t.Fatalf("stats not reset: %+v", d.Stats())
	}
}

func TestFreeAndPageIDs(t *testing.T) {
	d := New(0)
	p1 := d.Allocate()
	p2 := d.Allocate()
	p3 := d.Allocate()
	d.Free(p2.ID)
	ids := d.PageIDs()
	if len(ids) != 2 || ids[0] != p1.ID || ids[1] != p3.ID {
		t.Fatalf("PageIDs = %v", ids)
	}
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	if _, err := d.Read(p2.ID); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("freed page still readable: %v", err)
	}
}

func TestFailureHook(t *testing.T) {
	d := New(0)
	p := d.Allocate()
	if err := d.Write(p); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	d.FailureHook = func(op Op, id PageID) error {
		if op == OpRead {
			return boom
		}
		return nil
	}
	if _, err := d.Read(p.ID); !errors.Is(err, boom) {
		t.Fatalf("hook not consulted on read: %v", err)
	}
	if err := d.Write(p); err != nil {
		t.Fatalf("hook wrongly failed write: %v", err)
	}
	// Failed I/O must not be charged.
	st := d.Stats()
	if st.TotalReads() != 0 {
		t.Fatalf("failed read charged: %+v", st)
	}
}

func TestPageAddRemove(t *testing.T) {
	p := &Page{ID: 1}
	const pageSize = 100
	if !p.Add(1, 60, pageSize) {
		t.Fatal("first Add failed")
	}
	if p.Add(2, 60, pageSize) {
		t.Fatal("Add beyond capacity succeeded")
	}
	if !p.Add(2, 40, pageSize) {
		t.Fatal("exact-fit Add failed")
	}
	if p.Free(pageSize) != 0 {
		t.Fatalf("Free = %d, want 0", p.Free(pageSize))
	}
	if !p.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if p.Remove(1) {
		t.Fatal("double Remove succeeded")
	}
	if p.Used != 40 {
		t.Fatalf("Used = %d after remove, want 40", p.Used)
	}
	if p.Has(1) || !p.Has(2) {
		t.Fatal("Has() inconsistent after remove")
	}
}

// TestPageUsageInvariant property-checks that Used always equals the sum of
// slot sizes under arbitrary add/remove sequences.
func TestPageUsageInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := &Page{ID: 1}
		const pageSize = 1 << 14
		next := uint64(1)
		for _, op := range ops {
			if op%3 == 0 && len(p.Slots) > 0 {
				p.Remove(p.Slots[int(op)%len(p.Slots)].Object)
			} else {
				p.Add(next, int(op%100)+1, pageSize)
				next++
			}
		}
		sum := 0
		for _, s := range p.Slots {
			sum += s.Size
		}
		return sum == p.Used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIOClassString(t *testing.T) {
	if Transaction.String() != "transaction" || Clustering.String() != "clustering" {
		t.Fatal("IOClass names wrong")
	}
	if IOClass(9).String() == "" {
		t.Fatal("unknown class has empty name")
	}
}

// TestFreeUnknownLeavesCount: freeing an id that was never issued, or twice,
// must not move the live-page count.
func TestFreeUnknownLeavesCount(t *testing.T) {
	d := New(0)
	p1 := d.Allocate()
	p2 := d.Allocate()
	d.Free(p1.ID)
	for _, id := range []PageID{0, p1.ID, 3, 1 << 31, ^PageID(0)} {
		d.Free(id)
		if d.NumPages() != 1 {
			t.Fatalf("Free(%d) of an absent page moved NumPages to %d, want 1", id, d.NumPages())
		}
	}
	if ids := d.PageIDs(); len(ids) != 1 || ids[0] != p2.ID {
		t.Fatalf("PageIDs = %v, want [%d]", ids, p2.ID)
	}
	if p3 := d.Allocate(); p3.ID != 3 || d.NumPages() != 2 {
		t.Fatalf("after the frees Allocate issued page %d with %d live, want 3 and 2", p3.ID, d.NumPages())
	}
}

// TestOutsideIDsNeverGrowCatalogue: only Allocate (and Import) size the page
// catalogue; every lookup of an id from outside reports it absent.
func TestOutsideIDsNeverGrowCatalogue(t *testing.T) {
	d := New(0)
	d.Allocate()
	chunks := func() int { return len(*d.dir.Load()) }
	want := chunks()
	for _, id := range []PageID{0, 2, 1 << 31, ^PageID(0)} {
		if _, err := d.Read(id); !errors.Is(err, ErrNoSuchPage) {
			t.Fatalf("Read(%d) = %v, want ErrNoSuchPage", id, err)
		}
		if err := d.Write(&Page{ID: id}); !errors.Is(err, ErrNoSuchPage) {
			t.Fatalf("Write(%d) = %v, want ErrNoSuchPage", id, err)
		}
		if _, ok := d.Peek(id); ok {
			t.Fatalf("Peek(%d) found a page", id)
		}
		d.Free(id)
		if chunks() != want {
			t.Fatalf("id %d grew the catalogue to %d chunks, want %d", id, chunks(), want)
		}
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Fatalf("absent pages were charged: %+v", st)
	}
}

// TestExportImportKeepsGapsAndOrder: a snapshot lists the live pages in
// ascending id order and a restored disk has the same holes.
func TestExportImportKeepsGapsAndOrder(t *testing.T) {
	d := New(0)
	for i := 0; i < 6; i++ {
		d.Allocate().Add(uint64(i), 10, d.PageSize())
	}
	d.Free(2)
	d.Free(6)
	snap := d.Export()
	var ids []PageID
	for _, p := range snap.Pages {
		ids = append(ids, p.ID)
	}
	if want := []PageID{1, 3, 4, 5}; !slices.Equal(ids, want) || snap.Next != 7 {
		t.Fatalf("snapshot pages %v next %d, want %v next 7", ids, snap.Next, want)
	}
	r := New(0)
	r.Import(snap)
	if !slices.Equal(r.PageIDs(), d.PageIDs()) || r.NumPages() != 4 {
		t.Fatalf("restored pages %v (%d live), want %v", r.PageIDs(), r.NumPages(), d.PageIDs())
	}
	if _, ok := r.Peek(6); ok {
		t.Fatal("freed page 6 came back")
	}
	if p := r.Allocate(); p.ID != 7 {
		t.Fatalf("restored disk issued page %d next, want 7", p.ID)
	}
}

// TestCatalogueReadsDuringAllocateAndFree: readers loop on Read, Peek and
// Write, detached copies included, while one writer allocates across
// several chunk boundaries and frees every other new page. Every page
// returned has the id asked for, and an id freed before a read began is
// absent. Run it under -race: the catalogue's readers take no lock.
func TestCatalogueReadsDuringAllocateAndFree(t *testing.T) {
	d := New(0)
	const stable = 100
	for i := 0; i < stable; i++ {
		d.Allocate()
	}
	var lastAlloc, lastFreed atomic.Uint32
	var done atomic.Bool
	var rounds atomic.Int64 // reader iterations, so the writer can wait for them
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				rounds.Add(1)
				id := PageID(1 + i%stable)
				p, err := d.Read(id)
				if err != nil || p.ID != id {
					t.Errorf("Read(%d) = %v, %v", id, p, err)
					return
				}
				if q, ok := d.Peek(id); !ok || q.ID != id {
					t.Errorf("Peek(%d) = %v, %v", id, q, ok)
					return
				}
				if r == 1 && i%7 == 0 {
					cp := *p // a detached copy replaces the catalogue's page
					p = &cp
				}
				if err := d.Write(p); err != nil {
					t.Errorf("Write(%d) = %v", id, err)
					return
				}
				if a := PageID(lastAlloc.Load()); a != 0 {
					// Live or freed since: either way never another page.
					if p, err := d.Read(a); err == nil && p.ID != a {
						t.Errorf("Read(%d) returned page %d", a, p.ID)
						return
					} else if err != nil && !errors.Is(err, ErrNoSuchPage) {
						t.Errorf("Read(%d) = %v", a, err)
						return
					}
				}
				if f := PageID(lastFreed.Load()); f != 0 {
					if _, err := d.Read(f); !errors.Is(err, ErrNoSuchPage) {
						t.Errorf("Read of freed page %d = %v, want ErrNoSuchPage", f, err)
						return
					}
					if _, ok := d.Peek(f); ok {
						t.Errorf("Peek found freed page %d", f)
						return
					}
					if err := d.Write(&Page{ID: f}); !errors.Is(err, ErrNoSuchPage) {
						t.Errorf("Write of freed page %d = %v, want ErrNoSuchPage", f, err)
						return
					}
				}
			}
		}(r)
	}
	const grown = 3*chunkSize + 10
	for i := 0; i < grown; i++ {
		if i%32 == 0 { // let the readers in between allocations
			for r := rounds.Load(); rounds.Load() < r+4 && !t.Failed(); {
				runtime.Gosched()
			}
		}
		p := d.Allocate()
		lastAlloc.Store(uint32(p.ID))
		if p.ID%2 == 0 {
			d.Free(p.ID)
			lastFreed.Store(uint32(p.ID))
		}
	}
	done.Store(true)
	wg.Wait()
	if want := stable + grown - grown/2; d.NumPages() != want || len(d.PageIDs()) != want {
		t.Fatalf("%d pages live (%d listed), want %d", d.NumPages(), len(d.PageIDs()), want)
	}
	if got := len(*d.dir.Load()); got != (stable+grown)/chunkSize+1 {
		t.Fatalf("catalogue has %d chunks for %d ids", got, stable+grown)
	}
}
