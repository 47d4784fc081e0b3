package club_test

import (
	"testing"

	"ocb/internal/dstc"
)

// TestEngineGoldenCLIENTN1 pins the CluB protocol's figures to the exact
// values the pre-engine pass loop produced on the same seed and geometry
// (captured before the workload-engine port).
func TestEngineGoldenCLIENTN1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden protocol replay skipped in -short mode")
	}
	res := run(t, smallParams(), dstc.NewCluBStyle())
	if res.Before != 134.75 || res.After != 31.875 {
		t.Errorf("I/Os = %v -> %v, want 134.75 -> 31.875 (pre-engine golden)",
			res.Before, res.After)
	}
	if res.ClusteringIOs != 858 || res.Reloc.ObjectsMoved != 4097 {
		t.Errorf("clustering overhead = %d I/Os, %d moved, want 858/4097",
			res.ClusteringIOs, res.Reloc.ObjectsMoved)
	}
}
