package backendtest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/flatmem"
)

// errInjected is the error a faulty store's injected failures return.
var errInjected = errors.New("backendtest: injected failure")

// faulty is a flatmem heap for generator error-path tests: it can fail its
// failCreate-th Create or its Commit, it can already hold objects when a
// generator gets it, and it counts Close calls. It implements
// backend.Durable only so that backend.Shutdown reaches Close.
type faulty struct {
	backend.Backend
	failCreate int  // 1-based Create call that fails; 0 = none
	failCommit bool // every Commit fails

	creates, closes int
}

// Create counts the call and fails the failCreate-th one.
func (f *faulty) Create(size int) (backend.OID, error) {
	f.creates++
	if f.creates == f.failCreate {
		return backend.NilOID, errInjected
	}
	return f.Backend.Create(size)
}

// Commit fails when failCommit is set.
func (f *faulty) Commit() error {
	if f.failCommit {
		return errInjected
	}
	return f.Backend.Commit()
}

// Close counts the call.
func (f *faulty) Close() error {
	f.closes++
	return nil
}

// Reopen is not supported.
func (f *faulty) Reopen() (backend.Backend, error) {
	return nil, errors.New("backendtest: faulty cannot reopen")
}

var faultyDrivers atomic.Int32

// registerFaulty registers a driver under a fresh name whose every open
// returns f, after creating preload objects in it (so the first OID a
// generator sees is preload+1). Preloading does not count as f's Create
// calls. It returns the driver name to put in a generator's Params.
func registerFaulty(f *faulty, preload int) string {
	name := fmt.Sprintf("faulty-%d", faultyDrivers.Add(1))
	backend.Register(name, func(backend.Config) (backend.Backend, error) {
		f.Backend = flatmem.New()
		for i := 0; i < preload; i++ {
			if _, err := f.Backend.Create(1); err != nil {
				return nil, err
			}
		}
		return f, nil
	})
	return name
}

// GeneratorReleasesStore checks a database generator's store lifetime on
// faulty stores. generate builds a database on the named backend. When a
// Create or the final Commit fails, the generator must return the
// injected failure and close its store exactly once. It then generates on
// a store that already holds one object, so the first OID issued is 2,
// and returns that generation's error: a generator that fails there must
// have closed its store once, and one that succeeds must not have closed
// it.
func GeneratorReleasesStore(t *testing.T, generate func(backendName string) error) error {
	t.Helper()
	for name, f := range map[string]*faulty{
		"first create": {failCreate: 1},
		"later create": {failCreate: 40},
		"commit":       {failCommit: true},
	} {
		if err := generate(registerFaulty(f, 0)); !errors.Is(err, errInjected) {
			t.Fatalf("%s fails: err = %v, want the injected failure", name, err)
		}
		if n := f.closes; n != 1 {
			t.Fatalf("%s fails: store closed %d times, want 1", name, n)
		}
	}
	f := &faulty{}
	err := generate(registerFaulty(f, 1))
	want := 0
	if err != nil {
		want = 1
	}
	if f.closes != want {
		t.Fatalf("first OID 2: generation error %v, store closed %d times, want %d", err, f.closes, want)
	}
	return err
}
