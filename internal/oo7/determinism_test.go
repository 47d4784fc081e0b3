package oo7

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ocb/internal/workload"
)

// runMixed generates a fresh database and runs the full scenario —
// structural insert+delete included — as a CLIENTN=clients weighted mix,
// recording each client's op stream as name:objects labels. Every OO7 op
// count is schedule-independent (the insert-delete round trip is atomic
// under db.mu's exclusive lock, and Q1/T8/Q4 draw over the frozen
// snapshot), so the labels pin object counts for all ops.
func runMixed(t *testing.T, clients, measured int) ([][]string, *Database) {
	t.Helper()
	db, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := db.Scenario(nil, clients)
	spec.Measured = measured
	byClient := make([][]string, clients)
	for i := range spec.Ops {
		run, name := spec.Ops[i].Run, spec.Ops[i].Name
		spec.Ops[i].Run = func(ctx *workload.Ctx) (int, error) {
			n, err := run(ctx)
			// Each slice is appended to only by its own client goroutine.
			byClient[ctx.Client] = append(byClient[ctx.Client], fmt.Sprintf("%s:%d", name, n))
			return n, err
		}
	}
	if _, err := workload.Run(spec); err != nil {
		t.Fatal(err)
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
	return byClient, db
}

// TestClientN4MixDeterministic pins the determinism fix: four concurrent
// clients mixing traversals, queries and structural modifications produce
// identical per-client op streams on every run of the same seed.
func TestClientN4MixDeterministic(t *testing.T) {
	first, _ := runMixed(t, 4, 30)
	second, _ := runMixed(t, 4, 30)
	structural := 0
	for _, ops := range first {
		for _, label := range ops {
			if strings.HasPrefix(label, "insert-delete:") {
				structural++
			}
		}
	}
	if structural == 0 {
		t.Fatal("mix ran no insert-delete ops; the test exercises nothing")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("per-client op streams differ between identical runs:\n run 1: %v\n run 2: %v", first, second)
	}
}

// TestClientN4LeavesGenerationStreamUntouched is the regression the old
// shared-stream insert path fails: a multi-client workload must not
// consume the database's own generation stream, so its next draws equal
// those of an identically generated database that ran no workload at all.
func TestClientN4LeavesGenerationStreamUntouched(t *testing.T) {
	_, ran := runMixed(t, 4, 30)
	idle, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		want := idle.src.Intn(1 << 20)
		if got := ran.src.Intn(1 << 20); got != want {
			t.Fatalf("draw %d after the run: got %d, want %d — the workload consumed db.src", i, got, want)
		}
	}
}
