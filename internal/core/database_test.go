package core

import (
	"testing"
	"testing/quick"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

func TestGenerateSmallDatabase(t *testing.T) {
	p := smallParams()
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	if db.NO() != p.NO {
		t.Fatalf("NO = %d", db.NO())
	}
	if db.GenTime <= 0 {
		t.Fatal("generation time not recorded")
	}
	// Generation must leave clean counters for the workload.
	if db.Store.Stats().Disk.Total() != 0 {
		t.Fatal("generation left dirty I/O counters")
	}
	// Iterators partition the objects.
	sum := 0
	for i := 1; i <= p.NC; i++ {
		sum += len(db.Schema.Class(i).Iterator)
	}
	if sum != p.NO {
		t.Fatalf("iterators cover %d objects, want %d", sum, p.NO)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallParams()
	a := MustGenerate(p)
	b := MustGenerate(p)
	for i := 1; i <= p.NO; i++ {
		oid := backend.OID(i)
		ca, _ := a.ClassOf(oid)
		cb, _ := b.ClassOf(oid)
		if ca != cb {
			t.Fatalf("object %d class differs", i)
		}
		ra, rb := refsOf(a, oid), refsOf(b, oid)
		for k := range ra {
			if ra[k] != rb[k] {
				t.Fatalf("object %d ref %d differs: %d vs %d", i, k, ra[k], rb[k])
			}
		}
	}
	// Placement must also be identical.
	for i := 1; i <= p.NO; i++ {
		pa, _ := a.Store.(backend.Placer).PageOf(backend.OID(i))
		pb, _ := b.Store.(backend.Placer).PageOf(backend.OID(i))
		if pa != pb {
			t.Fatalf("object %d placed differently: %d vs %d", i, pa, pb)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := smallParams()
	a := MustGenerate(p)
	p.Seed = p.Seed + 1
	b := MustGenerate(p)
	same := 0
	for i := 1; i <= p.NO; i++ {
		ca, _ := a.ClassOf(backend.OID(i))
		if cb, _ := b.ClassOf(backend.OID(i)); ca == cb {
			same++
		}
	}
	if same == p.NO {
		t.Fatal("different seeds produced identical class assignment")
	}
}

// TestDatabaseInvariantsProperty regenerates databases under random seeds
// and checks the full CheckDatabase invariant set (reference classes match
// the schema, BackRef symmetry, store consistency).
func TestDatabaseInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := smallParams()
		p.NO = 200
		p.SupRef = 200
		p.Seed = seed
		db, err := Generate(p)
		if err != nil {
			return false
		}
		return CheckDatabase(db) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCluBDatabaseGenerates(t *testing.T) {
	p := CluBParams()
	p.NO = 1000 // keep the unit test fast; Table 4 uses the full size
	p.SupRef = 1000
	p.Dist4 = lewis.RefZone{Zone: 10, PLocal: 0.9}
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	// RoundRobin DIST3 splits objects evenly between the two classes.
	n1 := len(db.Schema.Class(1).Iterator)
	n2 := len(db.Schema.Class(2).Iterator)
	if n1 != n2 {
		t.Fatalf("round-robin class split uneven: %d vs %d", n1, n2)
	}
	// All references target class 1 (parts), per Table 3's constant DIST2.
	for i := 1; i <= p.NO; i++ {
		for _, r := range refsOf(db, backend.OID(i)) {
			if r == backend.NilOID {
				continue
			}
			if c, _ := db.ClassOf(r); c != 1 {
				t.Fatalf("reference targets class %d, want 1", c)
			}
		}
	}
}

// TestRefZoneLocalityInDatabase verifies OO1-style locality end to end:
// with DIST4 = refzone, the bulk of references land near the referencing
// object's scaled position in the target iterator.
func TestRefZoneLocalityInDatabase(t *testing.T) {
	p := smallParams()
	p.NC = 1
	p.SupClass = 1
	p.NO = 2000
	p.SupRef = 2000
	p.NumAcyclicTypes = 0 // keep every reference alive (self-class loops)
	p.Dist4 = lewis.RefZone{Zone: 20, PLocal: 0.9}
	db := MustGenerate(p)
	local, total := 0, 0
	for i := 1; i <= p.NO; i++ {
		for _, r := range refsOf(db, backend.OID(i)) {
			if r == backend.NilOID {
				continue
			}
			total++
			d := int(r) - i
			if d < 0 {
				d = -d
			}
			if d <= 20 {
				local++
			}
		}
	}
	if total == 0 {
		t.Fatal("no references generated")
	}
	frac := float64(local) / float64(total)
	if frac < 0.85 {
		t.Fatalf("local fraction = %v, want ~0.9", frac)
	}
}

func TestObjectAccessors(t *testing.T) {
	p := smallParams()
	db := MustGenerate(p)
	if db.Live(backend.NilOID) || db.NumRefs(backend.NilOID) != 0 || db.BackRef(backend.NilOID) != nil {
		t.Fatal("NilOID names an object")
	}
	if db.Live(backend.OID(p.NO+5)) || db.NumRefs(backend.OID(p.NO+5)) != 0 || db.BackRef(backend.OID(p.NO+5)) != nil {
		t.Fatal("out-of-range OID names an object")
	}
	if c, ok := db.ClassOf(1); !ok || c < 1 || c > p.NC {
		t.Fatalf("ClassOf(1) = %d, %v", c, ok)
	}
	if _, ok := db.ClassOf(backend.OID(p.NO + 5)); ok {
		t.Fatal("ClassOf accepted bad OID")
	}
	oids := db.AllOIDs()
	if len(oids) != p.NO || oids[0] != 1 || oids[len(oids)-1] != backend.OID(p.NO) {
		t.Fatalf("AllOIDs wrong: len=%d", len(oids))
	}
}

func TestGenerateRejectsInvalidParams(t *testing.T) {
	p := smallParams()
	p.NC = 0
	if _, err := Generate(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestGenerateLargeInstances(t *testing.T) {
	// Deep inheritance over many classes can push InstanceSize past one
	// page (the paper's 50-class schemas do); the store then spans the
	// instance over a dedicated page run, as Texas does.
	p := smallParams()
	p.NO = 50
	p.SupRef = 50
	p.BaseSize = 6000 // exceeds the 4096-byte page by itself
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	pages, ok := db.Store.(backend.Placer).PagesOf(1)
	if !ok || len(pages) < 2 {
		t.Fatalf("large instance not spanning pages: %v, %v", pages, ok)
	}
}

func TestCheckDatabaseCatchesCorruption(t *testing.T) {
	p := smallParams()
	p.NO = 100
	p.SupRef = 100

	db := MustGenerate(p)
	// Find an object with at least one non-NIL reference and corrupt it.
	corrupted := false
	for i := 1; i <= p.NO && !corrupted; i++ {
		for k, r := range refsOf(db, backend.OID(i)) {
			if r != backend.NilOID {
				db.slots(backend.OID(i))[k] = 0
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Skip("no references in this configuration")
	}
	if err := CheckDatabase(db); err == nil {
		t.Fatal("broken BackRef symmetry accepted")
	}
}

func TestScaleIndex(t *testing.T) {
	if scaleIndex(1, 100, 10) != 1 {
		t.Fatal("lower end wrong")
	}
	if scaleIndex(100, 100, 10) != 10 {
		t.Fatal("upper end wrong")
	}
	if scaleIndex(50, 100, 10) < 4 || scaleIndex(50, 100, 10) > 6 {
		t.Fatalf("midpoint = %d", scaleIndex(50, 100, 10))
	}
	if scaleIndex(5, 1, 10) != 1 || scaleIndex(5, 10, 1) != 1 {
		t.Fatal("degenerate ranges wrong")
	}
}

// TestDatabaseCloseIdempotent pins the stacked-shutdown contract: command
// paths routinely defer db.Close alongside a backend-level Shutdown over
// the same store, so a repeated Close must be a clean no-op — including
// on a durable backend that really closes files.
func TestDatabaseCloseIdempotent(t *testing.T) {
	p := smallParams()
	p.Backend = "waldisk"
	p.BackendOptions = map[string]string{"dir": t.TempDir()}
	db, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

// refsOf returns a copy of a live object's forward slots.
func refsOf(db *Database, oid backend.OID) []backend.OID {
	refs := make([]backend.OID, db.NumRefs(oid))
	for k := range refs {
		refs[k] = db.ORef(oid, k)
	}
	return refs
}
