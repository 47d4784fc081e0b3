package buffer

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"ocb/internal/disk"
)

// newDisk returns a disk with n written pages and their ids.
func newDisk(t *testing.T, n int) (*disk.Disk, []disk.PageID) {
	t.Helper()
	d := disk.New(0)
	ids := make([]disk.PageID, n)
	for i := range ids {
		p := d.Allocate()
		if err := d.Write(p); err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
	}
	d.ResetStats()
	return d, ids
}

func TestNewRejectsZeroCapacity(t *testing.T) {
	d := disk.New(0)
	if _, err := New(d, 0, LRU); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func TestGetMissThenHit(t *testing.T) {
	d, ids := newDisk(t, 1)
	p, err := New(d, 4, LRU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
	if got := d.Stats().TotalReads(); got != 1 {
		t.Fatalf("disk reads = %d, want 1", got)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", st.HitRatio())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	d, ids := newDisk(t, 50)
	for _, pol := range []Policy{LRU, FIFO, Clock} {
		p, err := New(d, 8, pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if _, err := p.Get(id); err != nil {
				t.Fatal(err)
			}
			if p.Len() > p.Capacity() {
				t.Fatalf("%v: pool grew to %d > capacity %d", pol, p.Len(), p.Capacity())
			}
		}
		if p.Stats().Evictions != 50-8 {
			t.Fatalf("%v: evictions = %d, want 42", pol, p.Stats().Evictions)
		}
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	d, ids := newDisk(t, 3)
	p, _ := New(d, 2, LRU)
	mustGet(t, p, ids[0])
	mustGet(t, p, ids[1])
	mustGet(t, p, ids[0]) // refresh 0; 1 is now LRU
	mustGet(t, p, ids[2]) // evicts 1
	if !p.Contains(ids[0]) || p.Contains(ids[1]) || !p.Contains(ids[2]) {
		t.Fatalf("LRU evicted wrong page: contains0=%v contains1=%v contains2=%v",
			p.Contains(ids[0]), p.Contains(ids[1]), p.Contains(ids[2]))
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	d, ids := newDisk(t, 3)
	p, _ := New(d, 2, FIFO)
	mustGet(t, p, ids[0])
	mustGet(t, p, ids[1])
	mustGet(t, p, ids[0]) // hit does not refresh under FIFO
	mustGet(t, p, ids[2]) // evicts 0 (oldest admission)
	if p.Contains(ids[0]) || !p.Contains(ids[1]) || !p.Contains(ids[2]) {
		t.Fatal("FIFO evicted wrong page")
	}
}

func TestClockSecondChance(t *testing.T) {
	d, ids := newDisk(t, 4)
	p, _ := New(d, 2, Clock)
	mustGet(t, p, ids[0])
	mustGet(t, p, ids[1])
	mustGet(t, p, ids[0]) // ref bit set on 0
	mustGet(t, p, ids[2]) // someone is evicted, pool stays at 2
	if p.Len() != 2 {
		t.Fatalf("pool len = %d", p.Len())
	}
	if !p.Contains(ids[2]) {
		t.Fatal("newly admitted page missing")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	d, ids := newDisk(t, 3)
	p, _ := New(d, 1, LRU)
	mustGet(t, p, ids[0])
	p.MarkDirty(ids[0])
	mustGet(t, p, ids[1]) // evicts dirty 0 -> 1 disk write
	st := p.Stats()
	if st.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", st.DirtyEvictions)
	}
	if w := d.Stats().TotalWrites(); w != 1 {
		t.Fatalf("disk writes = %d, want 1", w)
	}
	mustGet(t, p, ids[2]) // evicts clean 1 -> no write
	if w := d.Stats().TotalWrites(); w != 1 {
		t.Fatalf("clean eviction wrote: %d writes", w)
	}
}

func TestInstallNoRead(t *testing.T) {
	d := disk.New(0)
	p, _ := New(d, 2, LRU)
	pg := d.Allocate()
	if err := p.Install(pg); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TotalReads() != 0 {
		t.Fatal("Install performed a read")
	}
	if !p.Contains(pg.ID) {
		t.Fatal("installed page not resident")
	}
	// Installed pages are dirty: eviction must write.
	pg2 := d.Allocate()
	pg3 := d.Allocate()
	if err := p.Install(pg2); err != nil {
		t.Fatal(err)
	}
	if err := p.Install(pg3); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TotalWrites() != 1 {
		t.Fatalf("evicting dirty installed page: writes = %d, want 1", d.Stats().TotalWrites())
	}
}

func TestFlushAll(t *testing.T) {
	d, ids := newDisk(t, 3)
	p, _ := New(d, 4, LRU)
	for _, id := range ids {
		mustGet(t, p, id)
		p.MarkDirty(id)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().TotalWrites(); w != 3 {
		t.Fatalf("flush wrote %d, want 3", w)
	}
	// Second flush writes nothing (pages now clean).
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().TotalWrites(); w != 3 {
		t.Fatalf("re-flush wrote extra: %d", w)
	}
}

func TestDiscardDropsWithoutWrite(t *testing.T) {
	d, ids := newDisk(t, 1)
	p, _ := New(d, 2, LRU)
	mustGet(t, p, ids[0])
	p.MarkDirty(ids[0])
	p.Discard(ids[0])
	if p.Contains(ids[0]) {
		t.Fatal("discarded page still resident")
	}
	if d.Stats().TotalWrites() != 0 {
		t.Fatal("Discard wrote back")
	}
	// Discarding a non-resident page is a no-op.
	p.Discard(99)
}

func TestDropAll(t *testing.T) {
	d, ids := newDisk(t, 5)
	p, _ := New(d, 8, Clock)
	for _, id := range ids {
		mustGet(t, p, id)
	}
	p.DropAll()
	if p.Len() != 0 {
		t.Fatalf("DropAll left %d pages", p.Len())
	}
	// Pool must be fully usable afterwards.
	for _, id := range ids {
		mustGet(t, p, id)
	}
	if p.Len() != 5 {
		t.Fatalf("pool len = %d after refill", p.Len())
	}
}

func TestResizeShrinksAndEvicts(t *testing.T) {
	d, ids := newDisk(t, 6)
	p, _ := New(d, 6, LRU)
	for _, id := range ids {
		mustGet(t, p, id)
	}
	if err := p.Resize(2); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d after shrink to 2", p.Len())
	}
	if err := p.Resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
}

func TestGetIfResident(t *testing.T) {
	d, ids := newDisk(t, 2)
	p, _ := New(d, 2, LRU)
	if _, ok := p.GetIfResident(ids[0]); ok {
		t.Fatal("non-resident page reported resident")
	}
	mustGet(t, p, ids[0])
	if _, ok := p.GetIfResident(ids[0]); !ok {
		t.Fatal("resident page not found")
	}
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("GetIfResident affected stats: %+v", st)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"lru", LRU}, {"", LRU}, {"fifo", FIFO}, {"clock", Clock}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Clock.String() != "clock" {
		t.Fatal("policy names wrong")
	}
}

// TestPoolInvariant property-checks that under random access sequences the
// pool never exceeds capacity, never loses accounting, and every Get
// returns the requested page, for all three policies.
func TestPoolInvariant(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Clock} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			d, ids := newDisk(t, 20)
			p, _ := New(d, 5, pol)
			// Prime the counters: quick may generate an empty sequence
			// first, and the liveness clause below needs at least one Get.
			mustGet(t, p, ids[0])
			f := func(seq []uint8) bool {
				for _, b := range seq {
					id := ids[int(b)%len(ids)]
					pg, err := p.Get(id)
					if err != nil || pg.ID != id {
						return false
					}
					if b%4 == 0 {
						p.MarkDirty(id)
					}
					if p.Len() > p.Capacity() {
						return false
					}
				}
				st := p.Stats()
				return st.Hits+st.Misses > 0 && st.Misses >= uint64(p.Len())
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func mustGet(t *testing.T, p *Pool, id disk.PageID) {
	t.Helper()
	if _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
}

// TestOutsideIDsNeverGrowFrameTable: only a page the disk handed over sizes
// the frame table; an id from outside is absent, whatever its value.
func TestOutsideIDsNeverGrowFrameTable(t *testing.T) {
	d, ids := newDisk(t, 4)
	p, _ := New(d, 2, LRU)
	for _, id := range ids {
		mustGet(t, p, id)
	}
	want := len(p.frames)
	for _, id := range []disk.PageID{0, 1 << 20, 1 << 31, ^disk.PageID(0)} {
		if p.Contains(id) {
			t.Fatalf("Contains(%d) = true", id)
		}
		if _, ok := p.GetIfResident(id); ok {
			t.Fatalf("GetIfResident(%d) found a page", id)
		}
		if _, err := p.Get(id); !errors.Is(err, disk.ErrNoSuchPage) {
			t.Fatalf("Get(%d) = %v, want ErrNoSuchPage", id, err)
		}
		p.MarkDirty(id)
		p.Discard(id)
		if len(p.frames) != want {
			t.Fatalf("id %d grew the frame table to %d entries, want %d", id, len(p.frames), want)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d after absent lookups, want 2", p.Len())
	}
}

// TestFlushAllFailureIsRepeatable injects a write failure on the k-th page
// FlushAll writes and checks that the same pages were cleaned on two
// identically prepared pools, for every k: the flush walks the ring.
func TestFlushAllFailureIsRepeatable(t *testing.T) {
	boom := errors.New("boom")
	run := func(k int) []disk.PageID {
		d, ids := newDisk(t, 12)
		p, _ := New(d, 12, LRU)
		for _, id := range ids {
			mustGet(t, p, id)
			p.MarkDirty(id)
		}
		mustGet(t, p, ids[5]) // any ring order but the order of ids
		var written []disk.PageID
		d.FailureHook = func(op disk.Op, id disk.PageID) error {
			if op == disk.OpWrite && len(written) == k {
				return boom
			}
			written = append(written, id)
			return nil
		}
		if err := p.FlushAll(); !errors.Is(err, boom) {
			t.Fatalf("k=%d: FlushAll = %v, want the injected failure", k, err)
		}
		for _, id := range ids {
			if clean := !p.lookup(id).dirty; clean != slices.Contains(written, id) {
				t.Fatalf("k=%d: page %d clean = %v, written = %v", k, id, clean, written)
			}
		}
		return written
	}
	for k := 0; k < 12; k++ {
		a, b := run(k), run(k)
		if len(a) != k || !slices.Equal(a, b) {
			t.Fatalf("k=%d: first run cleaned %v, second %v", k, a, b)
		}
	}
}

// fullPool returns a full pool and twice its capacity in page ids, so that
// cycling through them misses and evicts on every Get.
func fullPool(tb testing.TB, capacity int) (*Pool, []disk.PageID) {
	d := disk.New(0)
	ids := make([]disk.PageID, 2*capacity)
	for i := range ids {
		ids[i] = d.Allocate().ID
	}
	p, err := New(d, capacity, LRU)
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids {
		if _, err := p.Get(id); err != nil {
			tb.Fatal(err)
		}
	}
	return p, ids
}

// TestGetMissAllocFree: a fault on a full pool moves the page into the
// frame its victim left.
func TestGetMissAllocFree(t *testing.T) {
	p, ids := fullPool(t, 64)
	i := 0
	avg := testing.AllocsPerRun(10*len(ids), func() {
		if _, err := p.Get(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Get on a full pool allocates %.2f per miss, want 0", avg)
	}
	if st := p.Stats(); st.Hits != 0 || st.Evictions != st.Misses-64 {
		t.Fatalf("the cycle did not miss and evict every time: %+v", st)
	}
}

func BenchmarkPoolGetMiss(b *testing.B) {
	p, ids := fullPool(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
