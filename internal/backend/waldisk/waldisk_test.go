package waldisk_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
	"ocb/internal/backend/waldisk"
	"ocb/internal/buffer"
	"ocb/internal/lewis"
)

// removeCheckpoint deletes the clean-close checkpoint so the next open
// must recover by full log replay.
func removeCheckpoint(dir string) error {
	return os.Remove(filepath.Join(dir, "checkpoint.ocb"))
}

// open builds a fresh waldisk backend through the registry, exactly as
// the workload layers do, rooted in a test-owned directory and closed at
// test end (Close is idempotent, so tests that close explicitly are fine).
func open(t *testing.T) backend.Backend {
	t.Helper()
	return openAt(t, t.TempDir(), nil)
}

// openAt opens the driver over dir with extra -backend-opt pairs.
func openAt(t *testing.T, dir string, opts map[string]string) backend.Backend {
	t.Helper()
	all := map[string]string{"dir": dir}
	for k, v := range opts {
		all[k] = v
	}
	b, err := backend.Open(waldisk.Name, backend.Config{Options: all})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.(*waldisk.Store).Close() })
	return b
}

// TestConformance runs the shared backend conformance suite, durability
// section included (waldisk is the first driver that does not skip it).
func TestConformance(t *testing.T) {
	backendtest.Conformance(t, open)
}

// TestReadCacheIsOneLRU: a seeded access sequence through the driver
// counts the read-cache hits, misses and evictions of one LRU over the
// whole budget (a one-shard buffer.ObjectCache fed the same probes and
// adds), not those of a budget split across lock shards.
func TestReadCacheIsOneLRU(t *testing.T) {
	const pageSize, cachePages = 1024, 8
	b, err := backend.Open(waldisk.Name, backend.Config{PageSize: pageSize,
		Options: map[string]string{"dir": t.TempDir(), "cachepages": "8"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.(*waldisk.Store).Close() })
	src := lewis.New(5)
	var oids []backend.OID
	for i := 0; i < 400; i++ {
		oid, err := b.Create(src.IntRange(60, 140))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b.DropCache()
	b.ResetStats()
	one, err := buffer.NewObjectCache(pageSize*cachePages, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		oid := oids[src.Intn(len(oids))]
		if src.Bernoulli(0.5) {
			oid = oids[src.Intn(40)]
		}
		if err := b.Access(oid); err != nil {
			t.Fatal(err)
		}
		if !one.Probe(uint64(oid)) {
			size, _ := b.SizeOf(oid)
			one.Add(uint64(oid), int64(size))
		}
	}
	if got, want := b.Stats().Pool, one.Stats(); got != want {
		t.Fatalf("read cache counted %+v, one LRU over the budget %+v", got, want)
	}
}

// TestConformancePolicies runs the suite under each fsync policy: the
// policy may change commit timing, never semantics.
func TestConformancePolicies(t *testing.T) {
	for _, pol := range []string{"always", "none"} {
		t.Run(pol, func(t *testing.T) {
			backendtest.Conformance(t, func(t *testing.T) backend.Backend {
				return openAt(t, t.TempDir(), map[string]string{"fsync": pol})
			})
		})
	}
}

// TestOptions covers the strict option surface: every known key is
// accepted, unknown keys are rejected naming the valid set, and bad
// values for the known keys are diagnosed with the valid values named.
func TestOptions(t *testing.T) {
	b := openAt(t, t.TempDir(), map[string]string{
		"fsync": "always", "segsize": "4096", "cachepages": "16",
		"gather": "200us", "compact": "0.5", "compactevery": "50ms",
	})
	s := b.(*waldisk.Store)
	if s.FsyncPolicy() != waldisk.PolicyAlways {
		t.Fatalf("fsync option ignored: policy %v", s.FsyncPolicy())
	}

	_, err := backend.Open(waldisk.Name, backend.Config{Options: map[string]string{"bogus": "1"}})
	var unknown *backend.UnknownOptionError
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown key: err = %v, want UnknownOptionError", err)
	}
	if unknown.Key != "bogus" {
		t.Fatalf("unknown-option error names key %q", unknown.Key)
	}
	for _, valid := range []string{"dir", "fsync", "segsize", "cachepages", "gather", "compact", "compactevery"} {
		found := false
		for _, v := range unknown.Valid {
			if v == valid {
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown-option error does not name valid key %q: %v", valid, unknown.Valid)
		}
	}

	if _, err := backend.Open(waldisk.Name, backend.Config{Options: map[string]string{"fsync": "sometimes"}}); err == nil {
		t.Fatal("bad fsync value accepted")
	} else if got := err.Error(); !containsAll(got, "always", "group", "none") {
		t.Fatalf("fsync value error does not name the valid set: %v", err)
	}
	for _, bad := range []string{"0", "-1", "big"} {
		if _, err := backend.Open(waldisk.Name, backend.Config{Options: map[string]string{"segsize": bad}}); err == nil {
			t.Fatalf("segsize=%q accepted", bad)
		}
	}
	// Bad values for the new keys are rejected with the expectation named.
	for key, cases := range map[string][]string{
		"cachepages":   {"-1", "lots", "1.5"},
		"gather":       {"-1ms", "soon", "5"},
		"compact":      {"0", "1.5", "-0.3", "maybe"},
		"compactevery": {"0s", "-5ms", "often"},
	} {
		for _, bad := range cases {
			if _, err := backend.Open(waldisk.Name, backend.Config{Options: map[string]string{key: bad}}); err == nil {
				t.Fatalf("%s=%q accepted", key, bad)
			} else if !strings.Contains(err.Error(), key) {
				t.Fatalf("%s=%q error does not name the option: %v", key, bad, err)
			}
		}
	}
	// Boundary values that must be accepted: cachepages=0 disables the
	// cache, compact=off disables compaction, gather=0s disables the
	// gather window.
	for _, ok := range []map[string]string{
		{"cachepages": "0"}, {"compact": "off"}, {"gather": "0s"}, {"compact": "1"},
	} {
		bb := openAt(t, t.TempDir(), ok)
		bb.(*waldisk.Store).Close()
	}
	// The typed geometry hints are not rejected: PageSize sizes the read
	// cache, BufferPages is the paged pool's knob and is ignored.
	if bb, err := backend.Open(waldisk.Name, backend.Config{PageSize: 4096, BufferPages: 512,
		Options: map[string]string{"dir": t.TempDir()}}); err != nil {
		t.Fatalf("typed geometry hints must be accepted: %v", err)
	} else {
		bb.(*waldisk.Store).Close()
	}
}

// TestGatherWindow smokes the commit-gather option: with a window open,
// concurrent committers coalesce into fewer physical flushes, and every
// commit that returned success is durable across a reopen. The batching
// itself is timing-dependent, so the hard assertions are correctness
// ones; the write counter is only checked for the upper bound (one flush
// per commit) that must hold regardless of scheduling.
func TestGatherWindow(t *testing.T) {
	dir := t.TempDir()
	b := openAt(t, dir, map[string]string{"fsync": "group", "gather": "500us"})
	s := b.(*waldisk.Store)
	const (
		workers = 8
		perW    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := s.Create(64); err != nil {
					t.Error(err)
					return
				}
				if err := s.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.Stats().Objects; got != workers*perW {
		t.Fatalf("committed %d objects, want %d", got, workers*perW)
	}
	if w := s.DiskStats().TotalWrites(); w == 0 || w > workers*perW {
		t.Fatalf("%d commits produced %d write batches, want 1..%d", workers*perW, w, workers*perW)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	defer s2.Close()
	if got := s2.Stats().Objects; got != workers*perW {
		t.Fatalf("reopened %d objects, want %d", got, workers*perW)
	}
	if err := s2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestCapabilities pins the driver's capability surface: durable and
// self-auditing with real I/O classes and persistence, but deliberately
// no page, relocation or resharding machinery — the clustering
// experiments must degrade exactly as they do on flatmem.
func TestCapabilities(t *testing.T) {
	b := open(t)
	if _, ok := b.(backend.Durable); !ok {
		t.Fatal("waldisk lost Durable")
	}
	if _, ok := b.(backend.IOClassifier); !ok {
		t.Fatal("waldisk lost IOClassifier")
	}
	if _, ok := b.(backend.Snapshotter); !ok {
		t.Fatal("waldisk lost Snapshotter")
	}
	if _, ok := b.(backend.Checker); !ok {
		t.Fatal("waldisk lost Checker")
	}
	if _, err := backend.AsRelocator(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsRelocator: err = %v, want ErrNotSupported", err)
	}
	if _, err := backend.AsPlacer(b); !errors.Is(err, backend.ErrNotSupported) {
		t.Fatalf("AsPlacer: err = %v, want ErrNotSupported", err)
	}
	if got := backend.PageSizeOf(b); got != 4096 {
		t.Fatalf("PageSizeOf fallback = %d, want the 4096 default", got)
	}
}

// TestRealIO pins what makes this driver different from the two
// in-memory ones: committed accesses are real file reads and commits are
// real file writes, visible in the transaction I/O counters.
func TestRealIO(t *testing.T) {
	b := open(t)
	var oids []backend.OID
	for i := 0; i < 20; i++ {
		oid, err := b.Create(100)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// Staged objects are served from memory: no read I/O yet.
	if err := b.Access(oids[0]); err != nil {
		t.Fatal(err)
	}
	if ios := b.DiskStats().TotalReads(); ios != 0 {
		t.Fatalf("access of a staged object charged %d reads", ios)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if w := b.DiskStats().TotalWrites(); w != 1 {
		t.Fatalf("one commit batch charged %d writes, want 1", w)
	}
	b.ResetStats()
	for _, oid := range oids {
		if err := b.Access(oid); err != nil {
			t.Fatal(err)
		}
	}
	if r := b.DiskStats().Reads[0]; r != uint64(len(oids)) {
		t.Fatalf("%d committed accesses charged %d reads", len(oids), r)
	}
}

// TestImageRoundTrip checks Snapshotter/Restorer through the generic
// backend.Restore path core.Load uses. The image's Config deliberately
// omits the data directory, so the restored store lives in its own fresh
// one.
func TestImageRoundTrip(t *testing.T) {
	b := open(t)
	var oids []backend.OID
	for i := 0; i < 40; i++ {
		oid, err := b.Create(100)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := b.Delete(oids[4]); err != nil {
		t.Fatal(err)
	}
	img, err := b.(backend.Snapshotter).Image()
	if err != nil {
		t.Fatal(err)
	}
	if img.Config.Options["dir"] != "" {
		t.Fatalf("image config leaks the data directory %q", img.Config.Options["dir"])
	}
	restored, err := backend.Restore(waldisk.Name, img)
	if err != nil {
		t.Fatal(err)
	}
	rs := restored.(*waldisk.Store)
	defer rs.Close()
	if rs.Dir() == b.(*waldisk.Store).Dir() {
		t.Fatal("restored store aliases the original's files")
	}
	for i, oid := range oids {
		if restored.Exists(oid) != (i != 4) {
			t.Fatalf("object %d existence wrong after restore", oid)
		}
	}
	next, err := restored.Create(100)
	if err != nil {
		t.Fatal(err)
	}
	if next != backend.OID(len(oids)+1) {
		t.Fatalf("restored store issued OID %d, want %d", next, len(oids)+1)
	}
	if err := backend.CheckIntegrity(restored); err != nil {
		t.Fatal(err)
	}
	// Restoring into a non-empty store is refused.
	if err := rs.Restore(img); err == nil {
		t.Fatal("Restore into a non-empty store accepted")
	}
}

// TestSegmentRollAndRecovery forces multi-segment logs with a tiny
// segsize, then checks both recovery paths: from the clean-close
// checkpoint (no replay) and by full replay with the checkpoint removed.
func TestSegmentRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	b := openAt(t, dir, map[string]string{"segsize": "256", "fsync": "always"})
	s := b.(*waldisk.Store)
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := b.Create(64); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Update(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(9); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(s2 *waldisk.Store) {
		t.Helper()
		if got := s2.Stats().Objects; got != n-1 {
			t.Fatalf("recovered %d objects, want %d", got, n-1)
		}
		if s2.Exists(9) {
			t.Fatal("deleted object resurrected")
		}
		if err := s2.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		for oid := backend.OID(1); oid <= n; oid++ {
			if oid == 9 {
				continue
			}
			if err := s2.Access(oid); err != nil {
				t.Fatalf("Access(%d) after recovery: %v", oid, err)
			}
		}
	}

	// Checkpoint path: the clean close summarized everything.
	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	ri := s2.Recovery()
	if !ri.FromCheckpoint || ri.RecordsReplayed != 0 || ri.TailBytesTruncated != 0 {
		t.Fatalf("clean reopen should come from the checkpoint with nothing to replay: %+v", ri)
	}
	check(s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Full-replay path: without the checkpoint the log alone rebuilds the
	// same state across all the rolled segments.
	if err := removeCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	rb2, err := s2.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s3 := rb2.(*waldisk.Store)
	defer s3.Close()
	ri = s3.Recovery()
	if ri.FromCheckpoint {
		t.Fatal("recovery claims a checkpoint that was removed")
	}
	if ri.SegmentsScanned < 2 {
		t.Fatalf("segsize=256 produced only %d segments; the roll path is untested", ri.SegmentsScanned)
	}
	if ri.RecordsReplayed == 0 || ri.BatchesReplayed == 0 {
		t.Fatalf("full replay applied nothing: %+v", ri)
	}
	check(s3)
}

// TestConcurrentHammer drives creates, accesses, updates, batches,
// deletes and group commits from many goroutines; with -race this is the
// driver's data-race gate, and the final state must balance regardless of
// schedule — including after a reopen.
func TestConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	b := openAt(t, dir, map[string]string{"fsync": "group", "segsize": "8192"})
	s := b.(*waldisk.Store)
	const (
		workers = 8
		perW    = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []backend.OID
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
				if i%3 == 0 {
					if err := s.Update(oid); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 && len(mine) > 1 {
					if _, err := s.AccessBatch(mine[len(mine)-2:]); err != nil {
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
				if i%5 == 0 {
					if err := s.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	deleted := workers * (1 + (perW-1)/11)
	if got := s.Stats().Objects; got != workers*perW-deleted {
		t.Fatalf("live objects = %d, want %d", got, workers*perW-deleted)
	}
	next, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if next != backend.OID(workers*perW+1) {
		t.Fatalf("next OID = %d, want %d", next, workers*perW+1)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The hammered state survives a clean close and reopen intact.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	defer s2.Close()
	if got := s2.Stats().Objects; got != workers*perW-deleted+1 {
		t.Fatalf("reopened live objects = %d, want %d", got, workers*perW-deleted+1)
	}
	if err := s2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWaldiskAccess sizes the committed-object fault path: one real
// pread plus CRC verification per access.
func BenchmarkWaldiskAccess(b *testing.B) {
	s, err := waldisk.Open(waldisk.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	backendtest.BenchmarkAccess(b, s, 10000)
}

// BenchmarkWaldiskCommit sizes one update+commit round trip under each
// fsync policy — the numbers behind the pr5_waldisk baseline entry.
func BenchmarkWaldiskCommit(b *testing.B) {
	for _, pol := range []string{"always", "group", "none"} {
		b.Run(pol, func(b *testing.B) {
			p, err := waldisk.ParsePolicy(pol)
			if err != nil {
				b.Fatal(err)
			}
			s, err := waldisk.Open(waldisk.Config{Dir: b.TempDir(), Policy: p})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			oid, err := s.Create(100)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Update(oid); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWaldiskGroupCommit drives parallel committers so the group
// policy's fsync batching is visible against "always".
func BenchmarkWaldiskGroupCommit(b *testing.B) {
	for _, pol := range []string{"always", "group"} {
		b.Run(pol, func(b *testing.B) {
			p, _ := waldisk.ParsePolicy(pol)
			s, err := waldisk.Open(waldisk.Config{Dir: b.TempDir(), Policy: p})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var setup []backend.OID
			for i := 0; i < 64; i++ {
				oid, err := s.Create(100)
				if err != nil {
					b.Fatal(err)
				}
				setup = append(setup, oid)
			}
			if err := s.Commit(); err != nil {
				b.Fatal(err)
			}
			var n atomic64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := n.next()
				oid := setup[i%uint64(len(setup))]
				for pb.Next() {
					if err := s.Update(oid); err != nil {
						b.Fatal(err)
					}
					if err := s.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// atomic64 is a tiny goroutine id dispenser for RunParallel bodies.
type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) next() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	return a.n
}
