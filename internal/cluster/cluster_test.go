package cluster

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
)

// buildStore creates n objects of size bytes each and commits them.
func buildStore(t *testing.T, n, size int) (backendtest.PlacedBackend, []backend.OID) {
	t.Helper()
	return backendtest.BuildPaged(t, n, size)
}

// TestReorganizeNilIsInert: a nil policy is the no-clustering control —
// reorganizing with it moves nothing and performs no I/O.
func TestReorganizeNilIsInert(t *testing.T) {
	s, _ := buildStore(t, 4, 50)
	before := s.Stats().Disk
	rs, err := Reorganize(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 0 {
		t.Fatalf("nil policy moved %d objects", rs.ObjectsMoved)
	}
	if s.Stats().Disk != before {
		t.Fatal("nil policy performed I/O")
	}
}

func TestSequentialOrdersByOID(t *testing.T) {
	s, oids := buildStore(t, 9, 50)
	// Scatter: relocate a few objects to the end first.
	if _, err := s.Relocate([][]backend.OID{{oids[8], oids[0], oids[4]}}); err != nil {
		t.Fatal(err)
	}
	seq := &Sequential{Objects: func() []backend.OID { return oids }}
	if _, err := seq.Reorganize(s); err != nil {
		t.Fatal(err)
	}
	// After sequential reorganization pages must partition OIDs in order:
	// page of oid[i] <= page of oid[j] for i < j.
	var prev uint32
	for i, oid := range oids {
		pg, ok := s.PageOf(oid)
		if !ok {
			t.Fatalf("object %d lost", oid)
		}
		if uint32(pg) < prev {
			t.Fatalf("OID order broken at %d: page %d after %d", i, pg, prev)
		}
		prev = uint32(pg)
	}
	if seq.Name() != "sequential" {
		t.Fatal("wrong name")
	}
}

func TestSequentialNeedsEnumerator(t *testing.T) {
	s, _ := buildStore(t, 2, 50)
	seq := &Sequential{}
	if _, err := seq.Reorganize(s); err == nil {
		t.Fatal("missing enumerator accepted")
	}
}

func TestByClassGroupsInstances(t *testing.T) {
	s, oids := buildStore(t, 9, 50)
	label := func(oid backend.OID) (int, bool) {
		return int(oid) % 3, true // interleaved classes, as creation order
	}
	bc := &ByClass{
		Objects: func() []backend.OID { return oids },
		Label:   label,
	}
	if _, err := bc.Reorganize(s); err != nil {
		t.Fatal(err)
	}
	// All three instances of each class fit one 256-byte page (3x66), so
	// each class must land on exactly one page.
	pagesByClass := make(map[int]map[uint32]bool)
	for _, oid := range oids {
		c, _ := label(oid)
		pg, _ := s.PageOf(oid)
		if pagesByClass[c] == nil {
			pagesByClass[c] = make(map[uint32]bool)
		}
		pagesByClass[c][uint32(pg)] = true
	}
	for c, pages := range pagesByClass {
		if len(pages) != 1 {
			t.Fatalf("class %d spread over %d pages", c, len(pages))
		}
	}
}

func TestByClassNeedsConfig(t *testing.T) {
	s, _ := buildStore(t, 2, 50)
	bc := &ByClass{}
	if _, err := bc.Reorganize(s); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestGreedyColocatesHotPairs(t *testing.T) {
	s, oids := buildStore(t, 30, 50)
	g := NewGreedy(0)
	// Hot pairs: (0,15) and (7,22) — far apart in creation order.
	for i := 0; i < 10; i++ {
		g.ObserveLink(oids[0], oids[15])
		g.ObserveLink(oids[7], oids[22])
	}
	// Noise below any usefulness.
	g.ObserveLink(oids[3], oids[4])
	if _, err := g.Reorganize(s); err != nil {
		t.Fatal(err)
	}
	p0, _ := s.PageOf(oids[0])
	p15, _ := s.PageOf(oids[15])
	if p0 != p15 {
		t.Fatal("hot pair (0,15) not co-located")
	}
	p7, _ := s.PageOf(oids[7])
	p22, _ := s.PageOf(oids[22])
	if p7 != p22 {
		t.Fatal("hot pair (7,22) not co-located")
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	s, oids := buildStore(t, 10, 50) // 66 bytes each on disk
	g := NewGreedy(150)              // at most 2 objects per cluster
	for i := 0; i < 9; i++ {
		g.ObserveLink(oids[i], oids[i+1]) // one long chain
	}
	g.ObserveLink(oids[0], oids[1]) // make (0,1) the heaviest edge
	if _, err := g.Reorganize(s); err != nil {
		t.Fatal(err)
	}
	p0, _ := s.PageOf(oids[0])
	p1, _ := s.PageOf(oids[1])
	if p0 != p1 {
		t.Fatal("heaviest pair not merged")
	}
}

func TestGreedyIgnoresDegenerateLinks(t *testing.T) {
	g := NewGreedy(0)
	g.ObserveLink(backend.NilOID, 5)
	g.ObserveLink(5, backend.NilOID)
	g.ObserveLink(7, 7)
	if g.NumEdges() != 0 {
		t.Fatalf("degenerate links recorded: %d", g.NumEdges())
	}
}

func TestGreedyUndirectedAccumulation(t *testing.T) {
	g := NewGreedy(0)
	g.ObserveLink(1, 2)
	g.ObserveLink(2, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (undirected)", g.NumEdges())
	}
}

func TestGreedyResetAndEmptyReorganize(t *testing.T) {
	s, oids := buildStore(t, 4, 50)
	g := NewGreedy(0)
	g.ObserveLink(oids[0], oids[1])
	g.Reset()
	rs, err := g.Reorganize(s)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 0 {
		t.Fatal("reset policy still moved objects")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	layout := func() map[backend.OID]uint32 {
		s, oids := buildStore(t, 20, 50)
		g := NewGreedy(0)
		for i := 0; i < 19; i++ {
			for k := 0; k <= i%3; k++ {
				g.ObserveLink(oids[i], oids[i+1])
			}
		}
		if _, err := g.Reorganize(s); err != nil {
			t.Fatal(err)
		}
		m := make(map[backend.OID]uint32)
		for _, oid := range oids {
			pg, _ := s.PageOf(oid)
			m[oid] = uint32(pg)
		}
		return m
	}
	a, b := layout(), layout()
	for oid, pa := range a {
		if b[oid] != pa {
			t.Fatalf("nondeterministic placement for %d: %d vs %d", oid, pa, b[oid])
		}
	}
}

func TestGreedyMinWeightFilter(t *testing.T) {
	s, oids := buildStore(t, 6, 50)
	g := NewGreedy(0)
	g.MinWeight = 5
	g.ObserveLink(oids[0], oids[3]) // weight 1 < MinWeight
	rs, err := g.Reorganize(s)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ObjectsMoved != 0 {
		t.Fatal("filtered edge caused movement")
	}
}

func TestUnionFindBounded(t *testing.T) {
	u := newUnionFind()
	u.add(1, 60)
	u.add(2, 60)
	u.add(3, 60)
	if !u.unionBounded(1, 2, 150) {
		t.Fatal("first union refused")
	}
	if u.unionBounded(1, 3, 150) {
		t.Fatal("union beyond capacity accepted (120+60 > 150)")
	}
	r1, _ := u.find(1)
	r2, _ := u.find(2)
	if r1 != r2 {
		t.Fatal("1 and 2 not merged")
	}
	if u.unionBounded(1, 2, 150) {
		t.Fatal("re-union of same set reported as merge")
	}
	if _, ok := u.find(99); ok {
		t.Fatal("find on unknown element succeeded")
	}
}
