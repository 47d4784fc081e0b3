package paged_test

import (
	"errors"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
	"ocb/internal/backend/paged"
	"ocb/internal/store"
)

// open builds a fresh paged backend through the registry, exactly as the
// workload layers do.
func open(t *testing.T) backend.Backend {
	t.Helper()
	b, err := backend.Open(paged.Name, backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConformance runs the shared backend conformance suite.
func TestConformance(t *testing.T) {
	backendtest.Conformance(t, open)
}

// TestOptions covers the driver's option surface: the valid keys override
// the typed geometry, unknown keys are rejected naming the valid set, and
// malformed values are diagnosed.
func TestOptions(t *testing.T) {
	b, err := backend.Open(paged.Name, backend.Config{
		PageSize: 8192, // overridden by the explicit option below
		Options:  map[string]string{"pagesize": "1024", "buffer": "16", "shards": "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := b.(*store.Store)
	if st.PageSize() != 1024 {
		t.Fatalf("pagesize option ignored: page size %d", st.PageSize())
	}
	if st.Shards() != 4 {
		t.Fatalf("shards option ignored: %d shards", st.Shards())
	}
	// The image carries the shard count, so a saved database reopens with
	// the object table it was built on.
	img, err := st.Image()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := backend.Restore(paged.Name, img)
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.(*store.Store).Shards(); got != 4 {
		t.Fatalf("restored store has %d shards, want 4", got)
	}

	_, err = backend.Open(paged.Name, backend.Config{Options: map[string]string{"pagesize": "zero"}})
	if err == nil {
		t.Fatal("malformed pagesize accepted")
	}

	_, err = backend.Open(paged.Name, backend.Config{Options: map[string]string{"bogus": "1"}})
	var unknown *backend.UnknownOptionError
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown key: err = %v, want UnknownOptionError", err)
	}
	if unknown.Key != "bogus" || len(unknown.Valid) == 0 {
		t.Fatalf("unhelpful unknown-option error: %+v", unknown)
	}

	// LRU is the only replacement policy: there is no knob to turn.
	_, err = backend.Open(paged.Name, backend.Config{Options: map[string]string{"replacement": "clock"}})
	if !errors.As(err, &unknown) || unknown.Key != "replacement" {
		t.Fatalf("replacement=clock: err = %v, want UnknownOptionError naming replacement", err)
	}
}

// TestCapabilities pins the full capability surface of the paged driver:
// the clustering and persistence experiments all hinge on these asserts
// succeeding through the registry-opened value.
func TestCapabilities(t *testing.T) {
	b := open(t)
	if _, err := backend.AsRelocator(b); err != nil {
		t.Fatalf("paged backend lost Relocator: %v", err)
	}
	if _, err := backend.AsPlacer(b); err != nil {
		t.Fatalf("paged backend lost Placer: %v", err)
	}
	if _, ok := b.(backend.IOClassifier); !ok {
		t.Fatal("paged backend lost IOClassifier")
	}
	if _, ok := b.(backend.Snapshotter); !ok {
		t.Fatal("paged backend lost Snapshotter")
	}
}

// TestImageRoundTrip checks the Snapshotter/Restorer pair through the
// generic backend.Restore path core.Load uses.
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
	img, err := b.(backend.Snapshotter).Image()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := backend.Restore(paged.Name, img)
	if err != nil {
		t.Fatal(err)
	}
	rp, bp := restored.(backend.Placer), b.(backend.Placer)
	for _, oid := range oids {
		if !restored.Exists(oid) {
			t.Fatalf("object %d missing after restore", oid)
		}
		ra, _ := rp.PageOf(oid)
		ba, _ := bp.PageOf(oid)
		if ra != ba {
			t.Fatalf("object %d moved across restore: page %d vs %d", oid, ra, ba)
		}
	}
	next, err := restored.Create(100)
	if err != nil {
		t.Fatal(err)
	}
	if next != backend.OID(len(oids)+1) {
		t.Fatalf("restored store issued OID %d, want %d", next, len(oids)+1)
	}
}
