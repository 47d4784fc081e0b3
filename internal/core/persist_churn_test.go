package core

import (
	"bytes"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// TestSaveLoadAfterChurn persists a database that has seen generic-workload
// insertions and deletions: the nil slots must survive the round trip and
// the live set must rebuild exactly.
func TestSaveLoadAfterChurn(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	src := lewis.New(77)
	for i := 0; i < 8; i++ {
		if _, err := db.InsertObject(src); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(10); oid < 60; oid += 5 {
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	wantLive := db.NumLive()
	wantMax := db.NO()

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumLive() != wantLive {
		t.Fatalf("live = %d, want %d", loaded.NumLive(), wantLive)
	}
	if loaded.NO() != wantMax {
		t.Fatalf("max OID = %d, want %d", loaded.NO(), wantMax)
	}
	// Deleted slots stay deleted; inserted objects stay present.
	if loaded.Live(10) {
		t.Fatal("deleted object resurrected")
	}
	if !loaded.Live(backend.OID(p.NO + 1)) {
		t.Fatal("inserted object lost")
	}
	if err := CheckDatabase(loaded); err != nil {
		t.Fatal(err)
	}
	if err := backend.CheckIntegrity(loaded.Store); err != nil {
		t.Fatal(err)
	}
	// The loaded database keeps working under more churn.
	ex := NewExecutor(loaded, nil, lewis.New(5))
	if _, err := ex.Exec(Transaction{Type: DeleteOp, Root: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Exec(Transaction{Type: InsertOp}); err != nil {
		t.Fatal(err)
	}
	if err := CheckDatabase(loaded); err != nil {
		t.Fatal(err)
	}
}
