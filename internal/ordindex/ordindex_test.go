package ordindex

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ocb/internal/backend"
)

// fill returns the mean leaf occupancy of a tree, as a fraction of fanout.
func fill(t *tree) float64 {
	leaves := 0
	for nd := t.first; nd != nil; nd = nd.next {
		leaves++
	}
	return float64(t.size) / float64(leaves*t.fanout)
}

// model is the sorted reference the index must agree with.
type model struct {
	live map[backend.OID]bool
	keys map[backend.OID]int64
}

func (m *model) oids(lo, hi backend.OID) []backend.OID {
	out := []backend.OID{}
	for oid := range m.live {
		if oid >= lo && oid <= hi {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

func (m *model) keyed(lo, hi int64) []backend.OID {
	out := []backend.OID{}
	for oid, k := range m.keys {
		if k >= lo && k <= hi {
			out = append(out, oid)
		}
	}
	slices.SortFunc(out, func(a, b backend.OID) int {
		if ka, kb := m.keys[a], m.keys[b]; ka != kb {
			return int(ka - kb)
		}
		return int(a) - int(b)
	})
	return out
}

func clip(s []backend.OID, limit int) []backend.OID {
	if limit > 0 && len(s) > limit {
		return s[:limit]
	}
	return s
}

// TestAgainstModel drives random inserts, deletes and key bindings at the
// minimum fanout (deep trees, a split every few inserts) and at the paged
// store's, and compares every read against the sorted model.
func TestAgainstModel(t *testing.T) {
	for _, fanout := range []int{MinFanout, 128} {
		x := New(fanout, true)
		m := &model{live: map[backend.OID]bool{}, keys: map[backend.OID]int64{}}
		rng := rand.New(rand.NewSource(int64(fanout)))
		const span = 3000
		for round := 0; round < 40; round++ {
			for i := 0; i < 400; i++ {
				oid := backend.OID(rng.Intn(span) + 1)
				switch rng.Intn(4) {
				case 0, 1:
					if got := x.Insert(oid, uint64(oid)*3); got == m.live[oid] {
						t.Fatalf("Insert(%d) = %v with the object present=%v", oid, got, m.live[oid])
					}
					m.live[oid] = true
				case 2:
					if got := x.Delete(oid); got != m.live[oid] {
						t.Fatalf("Delete(%d) = %v, want %v", oid, got, m.live[oid])
					}
					delete(m.live, oid)
					delete(m.keys, oid)
				case 3:
					k := int64(rng.Intn(9) - 4)
					if got := x.SetKey(oid, k); got != m.live[oid] {
						t.Fatalf("SetKey(%d) = %v, want %v", oid, got, m.live[oid])
					}
					if m.live[oid] {
						m.keys[oid] = k
					}
				}
			}
			if err := x.Check(); err != nil {
				t.Fatalf("fanout %d round %d: %v", fanout, round, err)
			}
			if x.Len() != len(m.live) {
				t.Fatalf("Len = %d, want %d", x.Len(), len(m.live))
			}
			lo := backend.OID(rng.Intn(span) + 1)
			hi := lo + backend.OID(rng.Intn(span/2))
			limit := rng.Intn(3) * 17
			want := m.oids(lo, hi)
			if got := x.Scan(lo, hi, limit, false, nil); !slices.Equal(got, clip(want, limit)) {
				t.Fatalf("Scan(%d, %d, %d) = %v, want %v", lo, hi, limit, got, clip(want, limit))
			}
			slices.Reverse(want)
			if got := x.Scan(lo, hi, limit, true, nil); !slices.Equal(got, clip(want, limit)) {
				t.Fatalf("Scan(%d, %d, %d, desc) = %v, want %v", lo, hi, limit, got, clip(want, limit))
			}
			if got := x.Scan(lo, backend.NilOID, 0, false, nil); !slices.Equal(got, m.oids(lo, ^backend.NilOID)) {
				t.Fatalf("Scan(%d, to the end) lists %d objects", lo, len(got))
			}
			klo := int64(rng.Intn(9) - 4)
			khi := klo + int64(rng.Intn(4))
			if got := x.ScanKey(klo, khi, limit, nil); !slices.Equal(got, clip(m.keyed(klo, khi), limit)) {
				t.Fatalf("ScanKey(%d, %d, %d) = %v, want %v", klo, khi, limit, got, clip(m.keyed(klo, khi), limit))
			}
			for oid := backend.OID(0); oid <= span+1; oid += 53 {
				up, down := m.oids(oid, ^backend.NilOID), m.oids(0, oid)
				got, ok := x.Seek(oid, false)
				if ok != (len(up) > 0) || ok && got != up[0] {
					t.Fatalf("Seek(%d) = %d, %v", oid, got, ok)
				}
				got, ok = x.Seek(oid, true)
				if ok != (len(down) > 0) || ok && got != down[len(down)-1] {
					t.Fatalf("Seek(%d, desc) = %d, %v", oid, got, ok)
				}
				v, ok := x.Get(oid)
				if ok != m.live[oid] || ok && v != uint64(oid)*3 {
					t.Fatalf("Get(%d) = %d, %v", oid, v, ok)
				}
			}
		}
	}
}

// TestScanAppendsToDst pins the dst contract: results append after what
// dst already holds, limit counts the appended ones only, and an inverted
// range appends nothing.
func TestScanAppendsToDst(t *testing.T) {
	x := New(MinFanout, false)
	for oid := backend.OID(1); oid <= 50; oid++ {
		x.Insert(oid, 0)
		x.SetKey(oid, int64(oid%5))
	}
	used := []backend.OID{99, 98}
	for _, got := range [][]backend.OID{
		x.Scan(40, 10, 0, false, used), x.Scan(40, 10, 3, true, used), x.ScanKey(3, 1, 0, used),
	} {
		if !slices.Equal(got, used) {
			t.Fatalf("inverted range appended: %v", got)
		}
	}
	for _, desc := range []bool{false, true} {
		got := x.Scan(10, 40, 5, desc, []backend.OID{99, 98})
		want := []backend.OID{99, 98, 10, 11, 12, 13, 14}
		if desc {
			want = []backend.OID{99, 98, 40, 39, 38, 37, 36}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Scan(desc=%v) into a used dst = %v, want %v", desc, got, want)
		}
	}
}

// TestLeafFill pins the split policy's memory behaviour at the paged
// store's fanout: sequential creation packs the OID tree, keying objects
// in creation order (one ascending run per key, interleaved) packs the
// attribute tree, random inserts — the pattern the policy gives up the
// midpoint split's ~69% for — still reach the textbook minimum of half,
// and delete-heavy churn leaves a sound chain.
func TestLeafFill(t *testing.T) {
	const (
		n       = 20000
		fanout  = 128
		classes = 20
	)
	rng := rand.New(rand.NewSource(47))
	x := New(fanout, false)
	for oid := backend.OID(1); oid <= n; oid++ {
		x.Insert(oid, 0)
		x.SetKey(oid, int64(rng.Intn(classes)+1))
	}
	if f := fill(&x.objs); f < 0.98 {
		t.Errorf("OID tree leaves are %.0f%% full after sequential creation, want >= 98%%", f*100)
	}
	if f := fill(&x.keys); f < 0.85 {
		t.Errorf("attribute tree leaves are %.0f%% full after keying in creation order, want >= 85%%", f*100)
	}

	r := New(fanout, false)
	for _, i := range rng.Perm(n) {
		r.Insert(backend.OID(i+1), 0)
	}
	if f := fill(&r.objs); f < 0.45 {
		t.Errorf("OID tree leaves are %.0f%% full after random inserts, want >= 45%%", f*100)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	// Churn: delete nine objects in ten, re-key the survivors, add a tail.
	for oid := backend.OID(1); oid <= n; oid++ {
		if oid%10 != 0 {
			x.Delete(oid)
		} else {
			x.SetKey(oid, int64(oid%7))
		}
	}
	for oid := backend.OID(n + 1); oid <= n+n/10; oid++ {
		x.Insert(oid, 0)
		x.SetKey(oid, int64(oid%7))
	}
	if err := x.Check(); err != nil {
		t.Fatal(err)
	}
	if got := x.Scan(1, backend.NilOID, 0, false, nil); len(got) != n/10+n/10 || !slices.IsSorted(got) {
		t.Fatalf("scan after churn lists %d objects (sorted: %v), want %d", len(got), slices.IsSorted(got), n/5)
	}
	if got := x.ScanKey(0, 6, 0, nil); len(got) != n/5 {
		t.Fatalf("key scan after churn lists %d objects, want %d", len(got), n/5)
	}
}

// TestReadsAllocFree gates the read paths at 0 allocs/op with a
// preallocated dst — the contract the //ocblint:allocfree annotations
// declare.
func TestReadsAllocFree(t *testing.T) {
	x := New(64, true)
	for oid := backend.OID(1); oid <= 10000; oid++ {
		x.Insert(oid, 1)
		x.SetKey(oid, int64(oid%20))
	}
	dst := make([]backend.OID, 0, 512)
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := x.Get(4242); !ok {
			t.Fatal("Get lost a live OID")
		}
		if _, ok := x.Seek(7000, true); !ok {
			t.Fatal("Seek lost a live OID")
		}
		if got := x.Scan(1000, 1199, 0, false, dst[:0]); len(got) != 200 {
			t.Fatalf("Scan = %d oids", len(got))
		}
		if got := x.Scan(1000, 1199, 0, true, dst[:0]); len(got) != 200 {
			t.Fatalf("Scan desc = %d oids", len(got))
		}
		if got := x.ScanKey(3, 3, 0, dst[:0]); len(got) != 500 {
			t.Fatalf("ScanKey = %d oids", len(got))
		}
	})
	if avg != 0 {
		t.Fatalf("reads allocate %.1f per round in steady state, want 0", avg)
	}
}

// TestConcurrentReaders runs every read path from several goroutines at
// once — the sharing the package's contract grants the owner's read lock.
// Under -race it proves the read paths write nothing.
func TestConcurrentReaders(t *testing.T) {
	x := New(16, true)
	for oid := backend.OID(1); oid <= 5000; oid++ {
		x.Insert(oid, uint64(oid))
		x.SetKey(oid, int64(oid%7))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lo := backend.OID(g*1000 + i + 1)
				if got := x.Scan(lo, lo+99, 0, i%2 == 0, nil); len(got) != 100 {
					t.Errorf("Scan from %d lists %d objects, want 100", lo, len(got))
				}
				if got := x.ScanKey(int64(g), int64(g), 10, nil); len(got) != 10 {
					t.Errorf("ScanKey(%d) lists %d objects, want 10", g, len(got))
				}
				if v, ok := x.Get(lo); !ok || v != uint64(lo) {
					t.Errorf("Get(%d) = %d, %v", lo, v, ok)
				}
				if at, ok := x.Seek(lo, true); !ok || at != lo {
					t.Errorf("Seek(%d) = %d, %v", lo, at, ok)
				}
			}
		}(g)
	}
	wg.Wait()
}

func benchIndex(b *testing.B, n int) *Index {
	x := New(128, false)
	for oid := backend.OID(1); oid <= backend.OID(n); oid++ {
		x.Insert(oid, 0)
		x.SetKey(oid, int64(oid%20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	return x
}

var sink int

// BenchmarkSeek sizes one descent of a 100k-object OID tree.
func BenchmarkSeek(b *testing.B) {
	const n = 100000
	x := benchIndex(b, n)
	for i := 0; i < b.N; i++ {
		oid, _ := x.Seek(backend.OID(i*7919%n+1), false)
		sink += int(oid)
	}
}

// BenchmarkScanKey sizes a one-key selection (5000 of 100k objects).
func BenchmarkScanKey(b *testing.B) {
	x := benchIndex(b, 100000)
	dst := make([]backend.OID, 0, 5000)
	for i := 0; i < b.N; i++ {
		sink += len(x.ScanKey(int64(i%20), int64(i%20), 0, dst[:0]))
	}
}

// BenchmarkChurn sizes the write path: delete an object, append one and
// key it, the paged store's insert/delete mix.
func BenchmarkChurn(b *testing.B) {
	const n = 100000
	x := benchIndex(b, n)
	for i := 0; i < b.N; i++ {
		x.Delete(backend.OID(n/2 + i))
		oid := backend.OID(n + 1 + i)
		x.Insert(oid, 0)
		x.SetKey(oid, int64(i%20))
	}
}
