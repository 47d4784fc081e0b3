package buffer

import (
	"math/rand"
	"slices"
	"testing"

	"ocb/internal/disk"
)

// referenceString is a seeded page-reference string with locality: half
// the references go to a small hot set, a third walk a cyclic scan longer
// than the small capacities, and the rest fall anywhere on the disk.
func referenceString(ids []disk.PageID, n int) []disk.PageID {
	const hot, loop = 6, 40
	rng := rand.New(rand.NewSource(22))
	refs := make([]disk.PageID, n)
	scan := 0
	for i := range refs {
		switch r := rng.Intn(6); {
		case r < 3:
			refs[i] = ids[rng.Intn(hot)]
		case r < 5:
			refs[i] = ids[hot+scan%loop]
			scan++
		default:
			refs[i] = ids[rng.Intn(len(ids))]
		}
	}
	return refs
}

// lruMisses predicts LRU's misses at every capacity from the stack
// distances of refs, computed on a naive move-to-front list: a reference
// at depth k (1 = most recent) hits exactly when the capacity is at least
// k, and a first reference misses at every capacity.
func lruMisses(refs []disk.PageID, capacities []int) []uint64 {
	var stack []disk.PageID
	misses := make([]uint64, len(capacities))
	for _, id := range refs {
		depth := slices.Index(stack, id) + 1 // 0 = never referenced
		if depth > 0 {
			stack = slices.Delete(stack, depth-1, depth)
		}
		stack = slices.Insert(stack, 0, id)
		for i, c := range capacities {
			if depth == 0 || depth > c {
				misses[i]++
			}
		}
	}
	return misses
}

// TestLRUStackDistanceOracle: LRU is a stack algorithm, so one reference
// string's stack distances give its exact miss count at every capacity.
// The pool must reproduce each of them.
func TestLRUStackDistanceOracle(t *testing.T) {
	const pages = 200
	d, ids := newDisk(t, pages)
	refs := referenceString(ids, 20000)
	distinct := len(slices.Compact(slices.Sorted(slices.Values(refs))))
	capacities := []int{1, 2, 3, 8, 16, 64, distinct, pages + 10}
	want := lruMisses(refs, capacities)
	if want[len(want)-1] != uint64(distinct) || want[0] <= want[len(want)-1] {
		t.Fatalf("degenerate reference string: misses %v over %d distinct pages", want, distinct)
	}

	for i, c := range capacities {
		pool, err := New(d, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range refs {
			if _, err := pool.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		if got := pool.Stats().Misses; got != want[i] {
			t.Errorf("capacity %d: Pool misses %d, stack distances predict %d", c, got, want[i])
		}
	}
}
