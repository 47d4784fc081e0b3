package hypermodel

import (
	"testing"

	"ocb/internal/backend/backendtest"
)

// TestGenerateReleasesStoreOnError: a generation that fails after opening
// its store closes that store exactly once; on a store that already
// holds objects the generator still succeeds.
func TestGenerateReleasesStoreOnError(t *testing.T) {
	err := backendtest.GeneratorReleasesStore(t, func(backendName string) error {
		p := smallParams()
		p.Backend = backendName
		_, err := Generate(p)
		return err
	})
	if err != nil {
		t.Fatalf("first OID 2: %v", err)
	}
}
