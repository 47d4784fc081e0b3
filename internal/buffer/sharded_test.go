package buffer

import (
	"sync"
	"testing"

	"ocb/internal/disk"
)

// TestShardedSingleMatchesPool replays one access trace through a plain
// Pool and a 1-shard Sharded pool: every counter must agree, since a
// single shard is the original pool behind one mutex.
func TestShardedSingleMatchesPool(t *testing.T) {
	trace := func(get func(disk.PageID) (*disk.Page, error), ids []disk.PageID) {
		for i := 0; i < 200; i++ {
			id := ids[(i*7)%len(ids)]
			if _, err := get(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk := func() (*disk.Disk, []disk.PageID) {
		d := disk.New(256)
		ids := make([]disk.PageID, 20)
		for i := range ids {
			pg := d.Allocate()
			pg.Add(uint64(i+1), 64, 256)
			if err := d.Write(pg); err != nil {
				t.Fatal(err)
			}
			ids[i] = pg.ID
		}
		d.ResetStats()
		return d, ids
	}

	d1, ids1 := mk()
	plain, err := New(d1, 8)
	if err != nil {
		t.Fatal(err)
	}
	trace(plain.Get, ids1)

	d2, ids2 := mk()
	sharded, err := NewSharded(d2, 8, LRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace(sharded.Get, ids2)

	if plain.Stats() != sharded.Stats() {
		t.Fatalf("stats diverge: plain %+v, 1-shard %+v", plain.Stats(), sharded.Stats())
	}
	if d1.Stats() != d2.Stats() {
		t.Fatalf("disk I/O diverges: plain %+v, 1-shard %+v", d1.Stats(), d2.Stats())
	}
}

func TestShardedMutateFates(t *testing.T) {
	d := disk.New(256)
	pg := d.Allocate()
	pg.Add(1, 64, 256)
	pg.Add(2, 64, 256)
	if err := d.Write(pg); err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(d, 8, LRU, 4)
	if err != nil {
		t.Fatal(err)
	}

	// KeepDirty: the edit reaches disk on flush.
	if _, err := s.Mutate(pg.ID, func(p *disk.Page) PageFate {
		p.Remove(1)
		return KeepDirty
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Flushes; got != 1 {
		t.Fatalf("flushes = %d, want 1", got)
	}

	// Drop: the frame disappears without write-back.
	if _, err := s.Mutate(pg.ID, func(p *disk.Page) PageFate {
		p.Remove(2)
		return Drop
	}); err != nil {
		t.Fatal(err)
	}
	if s.Contains(pg.ID) {
		t.Fatal("dropped page still resident")
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Flushes; got != 1 {
		t.Fatalf("flushes after drop = %d, want still 1", got)
	}
}

// TestShardedConcurrentGets hammers a sharded pool from many goroutines;
// the CI race shard runs this under -race. With capacity for every page,
// each page reads from disk exactly once no matter the interleaving.
func TestShardedConcurrentGets(t *testing.T) {
	d := disk.New(256)
	const pages = 64
	ids := make([]disk.PageID, pages)
	for i := range ids {
		pg := d.Allocate()
		pg.Add(uint64(i+1), 32, 256)
		if err := d.Write(pg); err != nil {
			t.Fatal(err)
		}
		ids[i] = pg.ID
	}
	d.ResetStats()
	s, err := NewSharded(d, 2*pages, LRU, 8)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Get(ids[(w*13+i)%pages]); err != nil {
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
	if st.Hits+st.Misses != workers*perWorker {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*perWorker)
	}
	if st.Misses != pages {
		t.Fatalf("misses = %d, want %d (each page faults once)", st.Misses, pages)
	}
	if got := d.Stats().TotalReads(); got != pages {
		t.Fatalf("disk reads = %d, want %d", got, pages)
	}
}

// TestGetBatchMatchesSequentialGets replays one access trace through Get
// calls on one pool and GetBatch chunks on an identically built one: the
// batch path promises the exact hit/miss/eviction schedule of repeated
// Gets, only with fewer lock acquisitions.
func TestGetBatchMatchesSequentialGets(t *testing.T) {
	mk := func() (*disk.Disk, []disk.PageID) {
		d := disk.New(256)
		ids := make([]disk.PageID, 20)
		for i := range ids {
			pg := d.Allocate()
			pg.Add(uint64(i+1), 64, 256)
			if err := d.Write(pg); err != nil {
				t.Fatal(err)
			}
			ids[i] = pg.ID
		}
		d.ResetStats()
		return d, ids
	}
	for _, shards := range []int{1, 4} {
		d1, ids1 := mk()
		seq, err := NewSharded(d1, 8, LRU, shards)
		if err != nil {
			t.Fatal(err)
		}
		d2, ids2 := mk()
		bat, err := NewSharded(d2, 8, LRU, shards)
		if err != nil {
			t.Fatal(err)
		}
		var batch []disk.PageID
		for i := 0; i < 200; i++ {
			seqID := ids1[(i*7)%len(ids1)]
			if _, err := seq.Get(seqID); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, ids2[(i*7)%len(ids2)])
			if len(batch) == 9 || i == 199 {
				n, err := bat.GetBatch(batch)
				if err != nil || n != len(batch) {
					t.Fatalf("GetBatch = %d, %v", n, err)
				}
				batch = batch[:0]
			}
		}
		if seq.Stats() != bat.Stats() {
			t.Fatalf("shards=%d: stats diverge: seq %+v, batch %+v", shards, seq.Stats(), bat.Stats())
		}
		if d1.Stats() != d2.Stats() {
			t.Fatalf("shards=%d: disk I/O diverges", shards)
		}
	}
}

// TestGetBatchError checks that a bad id mid-batch faults the prefix and
// reports how far it got.
func TestGetBatchError(t *testing.T) {
	d := disk.New(256)
	var ids []disk.PageID
	for i := 0; i < 3; i++ {
		pg := d.Allocate()
		pg.Add(uint64(i+1), 64, 256)
		if err := d.Write(pg); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
	}
	p, err := NewSharded(d, 8, LRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.GetBatch([]disk.PageID{ids[0], disk.PageID(9999), ids[1]})
	if err == nil {
		t.Fatal("bad page id accepted")
	}
	if n != 1 {
		t.Fatalf("faulted %d pages before the error, want 1", n)
	}
	if !p.Contains(ids[0]) || p.Contains(ids[1]) {
		t.Fatal("prefix/suffix residency wrong after mid-batch error")
	}
}
