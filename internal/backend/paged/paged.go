// Package paged registers the benchmark's own paged store
// (internal/store) as the "paged" backend driver — the Texas-like
// persistent heap every paper experiment runs on.
//
// The driver is an adapter in registration only: *store.Store implements
// backend.Backend (and every optional capability — Placer, Relocator,
// IOClassifier, Snapshotter/Restorer) directly, so opening through the
// registry adds zero indirection to the hot path and measured behaviour is
// bit-identical to constructing the store concretely.
package paged

import (
	"fmt"
	"strconv"

	"ocb/internal/backend"
	"ocb/internal/store"
)

// Name is the driver's registered name.
const Name = "paged"

// Compile-time proof that the store satisfies the full protocol.
var (
	_ backend.Backend      = (*store.Store)(nil)
	_ backend.Placer       = (*store.Store)(nil)
	_ backend.Relocator    = (*store.Store)(nil)
	_ backend.IOClassifier = (*store.Store)(nil)
	_ backend.Snapshotter  = (*store.Store)(nil)
	_ backend.Restorer     = (*store.Store)(nil)
	_ backend.Ranger       = (*store.Store)(nil)
)

func init() {
	backend.Register(Name, open)
}

// open maps a backend.Config onto the store's own configuration. Options
// override the typed geometry fields; unknown keys are rejected with the
// valid set named.
//
// shards=N is accepted and ignored: the store has one object table behind
// one lock, and the option once split that lock. Saved images carry it in
// their config, and callers still pass it, so it keeps opening a store; a
// value that is not a positive integer is still rejected. This follows
// buffer.NewSharded's ignored trailing arguments.
func open(cfg backend.Config) (backend.Backend, error) {
	if err := backend.CheckOptions(Name, cfg.Options, "pagesize", "buffer", "shards"); err != nil {
		return nil, err
	}
	sc := store.Config{
		PageSize:    cfg.PageSize,
		BufferPages: cfg.BufferPages,
	}
	for key, val := range cfg.Options {
		switch key {
		case "pagesize", "buffer", "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("backend %q: option %s=%q, want a positive integer", Name, key, val)
			}
			switch key {
			case "pagesize":
				sc.PageSize = n
			case "buffer":
				sc.BufferPages = n
			}
		}
	}
	return store.Open(sc)
}
