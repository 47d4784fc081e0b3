package core

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := smallParams()
	p.NO = 300
	p.SupRef = 300
	orig := MustGenerate(p)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.NO() != orig.NO() {
		t.Fatalf("NO = %d, want %d", loaded.NO(), orig.NO())
	}
	// Schema identical.
	for i := 1; i <= p.NC; i++ {
		a, b := orig.Schema.Class(i), loaded.Schema.Class(i)
		if a.InstanceSize != b.InstanceSize || a.MaxNRef != b.MaxNRef {
			t.Fatalf("class %d differs after load", i)
		}
		for j := range a.TRef {
			if a.TRef[j] != b.TRef[j] || a.CRef[j] != b.CRef[j] {
				t.Fatalf("class %d ref %d differs", i, j)
			}
		}
		if len(a.Iterator) != len(b.Iterator) {
			t.Fatalf("class %d iterator differs", i)
		}
	}
	// Object graph identical.
	for i := 1; i <= p.NO; i++ {
		oid := backend.OID(i)
		ca, _ := orig.ClassOf(oid)
		cb, _ := loaded.ClassOf(oid)
		a, b := refsOf(orig, oid), refsOf(loaded, oid)
		if ca != cb || len(a) != len(b) {
			t.Fatalf("object %d differs", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("object %d ref %d differs", i, k)
			}
		}
	}
	// Placement identical.
	for i := 1; i <= p.NO; i++ {
		pa, _ := orig.Store.(backend.Placer).PageOf(backend.OID(i))
		pb, _ := loaded.Store.(backend.Placer).PageOf(backend.OID(i))
		if pa != pb {
			t.Fatalf("object %d placed on %d, was %d", i, pb, pa)
		}
	}
	// The loaded store works: run a workload phase on it.
	r := NewRunner(loaded, nil)
	if _, err := r.RunPhase("post-load", 20, 5); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStartsCold(t *testing.T) {
	p := smallParams()
	p.NO = 200
	p.SupRef = 200
	orig := MustGenerate(p)
	// Warm the original's cache.
	if err := orig.Store.Access(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := loaded.Store.Stats()
	if st.Disk.Total() != 0 || st.Pool.Hits+st.Pool.Misses != 0 {
		t.Fatalf("loaded store has non-zero counters: %+v", st)
	}
	// First access faults (cold cache).
	if err := loaded.Store.Access(1); err != nil {
		t.Fatal(err)
	}
	if loaded.Store.Stats().Pool.Misses != 1 {
		t.Fatal("loaded store was not cold")
	}
}

func TestSaveLoadPreservesDistributions(t *testing.T) {
	p := CluBParams() // exercises constant, roundrobin and refzone
	p.NO = 200
	p.SupRef = 200
	p.Dist4 = lewis.RefZone{Zone: 10}
	db := MustGenerate(p)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.P.Dist4.Name() != "refzone:10" {
		t.Fatalf("Dist4 = %s", loaded.P.Dist4.Name())
	}
	if loaded.P.Dist3.Name() != "roundrobin" {
		t.Fatalf("Dist3 = %s", loaded.P.Dist3.Name())
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadAfterRelocation(t *testing.T) {
	// Saving after a clustering reorganization must persist the new
	// placement, not the creation order.
	p := smallParams()
	p.NO = 200
	p.SupRef = 200
	db := MustGenerate(p)
	cluster := []backend.OID{5, 100, 150}
	if _, err := db.Store.(backend.Relocator).Relocate([][]backend.OID{cluster}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := loaded.Store.(backend.Placer).PageOf(5)
	p1, _ := loaded.Store.(backend.Placer).PageOf(100)
	p2, _ := loaded.Store.(backend.Placer).PageOf(150)
	if p0 != p1 || p1 != p2 {
		t.Fatal("relocated placement lost on save/load")
	}
}

// TestLoadRejectsCorruptFilesWithoutLeaking: saved waldisk databases with
// a hostile id, a broken object table or an image the driver refuses load
// as errors, never as panics, and leave no scratch directory behind —
// every error path releases the store it opened.
func TestLoadRejectsCorruptFilesWithoutLeaking(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	p := smallParams()
	p.NO, p.SupRef = 200, 200
	p.Backend = "waldisk"
	db := MustGenerate(p)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	for _, tc := range []struct {
		name    string
		corrupt func(*persisted)
	}{
		{"negative MaxOID", func(f *persisted) { f.MaxOID = -5 }},
		{"MaxOID at NextOID", func(f *persisted) { f.MaxOID = int(f.Image.NextOID) }},
		{"object OID 0", func(f *persisted) { f.Objects[3].OID = backend.NilOID }},
		{"object OID above MaxOID", func(f *persisted) { f.Objects[3].OID = backend.OID(f.MaxOID + 1) }},
		{"object missing", func(f *persisted) { f.Objects = f.Objects[1:] }},
		{"image the driver refuses", func(f *persisted) { f.Image.Objects[0].Size = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f persisted
			if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&f); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&f)
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(f); err != nil {
				t.Fatal(err)
			}
			if loaded, err := Load(&bad); err == nil {
				_ = loaded.Close()
				t.Fatal("corrupt database loaded")
			}
			if left, _ := filepath.Glob(filepath.Join(tmp, "ocb-waldisk-*")); len(left) != 0 {
				t.Fatalf("left behind: %v", left)
			}
		})
	}
}
