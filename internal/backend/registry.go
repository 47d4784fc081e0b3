package backend

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Config parameterizes Open. The typed fields are common geometry hints
// that more than one driver understands; drivers without the corresponding
// machinery (e.g. no pages, no buffer pool) ignore them. Options carries
// driver-specific settings as key=value strings — the form command-line
// -backend-opt flags arrive in — and is strictly validated: a driver
// rejects keys it does not understand, naming the keys it does.
type Config struct {
	// PageSize in bytes for paged backends (0 = driver default).
	PageSize int
	// BufferPages is the page-cache capacity in frames (0 = driver default).
	BufferPages int
	// Options are driver-specific key=value settings, validated by the
	// driver at Open; unknown keys are rejected with the valid set named.
	Options map[string]string
}

// DefaultName is the driver an empty backend name resolves to: "paged",
// the benchmark's own store.
const DefaultName = "paged"

// Opener constructs a backend from a configuration.
type Opener func(cfg Config) (Backend, error)

// Info describes a registered driver beyond its opener.
type Info struct {
	// Remote marks a driver that connects to a store hosted elsewhere
	// instead of embedding one in-process. Such a driver needs endpoint
	// options (an address) to open at all, so "every registered backend"
	// sweeps either skip it (ListLocal) or provision an endpoint first.
	Remote bool
}

type driver struct {
	open Opener
	info Info
}

var (
	driversMu sync.RWMutex
	drivers   = make(map[string]driver)
)

// Register makes a backend driver available under the given name, in the
// manner of database/sql.Register. It panics on a duplicate or empty name
// or a nil opener — driver registration bugs should fail loudly at init.
func Register(name string, open Opener) {
	RegisterWith(name, open, Info{})
}

// RegisterWith is Register carrying driver metadata.
func RegisterWith(name string, open Opener, info Info) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if name == "" {
		panic("backend: Register with empty name")
	}
	if open == nil {
		panic("backend: Register with nil opener for " + name)
	}
	if _, dup := drivers[name]; dup {
		panic("backend: Register called twice for " + name)
	}
	drivers[name] = driver{open: open, info: info}
}

// InfoOf returns the registered driver's metadata (the zero Info for an
// unknown name).
func InfoOf(name string) Info {
	driversMu.RLock()
	defer driversMu.RUnlock()
	return drivers[name].info
}

// Open constructs the named backend. An empty name selects "paged", the
// benchmark's own store. Unknown names list the registered drivers, so a
// missing blank import of the driver bundle is diagnosable.
func Open(name string, cfg Config) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	driversMu.RLock()
	d, ok := drivers[name]
	driversMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %s)", name, strings.Join(List(), ", "))
	}
	return d.open(cfg)
}

// List returns the registered driver names in sorted order.
func List() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	names := make([]string, 0, len(drivers))
	for name := range drivers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ListLocal returns the registered drivers that embed their store
// in-process — the set a sweep can open with nothing but a Config. Remote
// drivers (which need a served endpoint) are excluded.
func ListLocal() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	names := make([]string, 0, len(drivers))
	for name, d := range drivers {
		if !d.info.Remote {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// OptionFlags is a flag.Value collecting repeated -backend-opt key=value
// flags; commands register it with flag.Var and feed the accumulated list
// to ParseOptions after parsing.
type OptionFlags []string

// String implements flag.Value.
func (o *OptionFlags) String() string { return strings.Join(*o, ",") }

// Set implements flag.Value.
func (o *OptionFlags) Set(v string) error { *o = append(*o, v); return nil }

// ParseOptions turns a list of "key=value" strings (the repeated
// -backend-opt command-line flag) into an Options map. Duplicate keys and
// malformed pairs are errors.
func ParseOptions(pairs []string) (map[string]string, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	opts := make(map[string]string, len(pairs))
	for _, pair := range pairs {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("backend: malformed option %q, want key=value", pair)
		}
		if _, dup := opts[k]; dup {
			return nil, fmt.Errorf("backend: duplicate option key %q", k)
		}
		opts[k] = v
	}
	return opts, nil
}

// UnknownOptionError is the error drivers return for an Options key they
// do not understand. It names the valid keys so the caller can fix the
// invocation without reading driver source.
type UnknownOptionError struct {
	Driver string
	Key    string
	Valid  []string
}

// Error implements error.
func (e *UnknownOptionError) Error() string {
	if len(e.Valid) == 0 {
		return fmt.Sprintf("backend %q: unknown option %q (this backend accepts no options)", e.Driver, e.Key)
	}
	return fmt.Sprintf("backend %q: unknown option %q (valid keys: %s)", e.Driver, e.Key, strings.Join(e.Valid, ", "))
}

// CheckOptions validates that every Options key is in the driver's valid
// set, returning an UnknownOptionError otherwise — the shared validation
// helper drivers call first thing in their opener.
func CheckOptions(driver string, opts map[string]string, valid ...string) error {
	for key := range opts {
		ok := false
		for _, v := range valid {
			if key == v {
				ok = true
				break
			}
		}
		if !ok {
			sorted := append([]string(nil), valid...)
			sort.Strings(sorted)
			return &UnknownOptionError{Driver: driver, Key: key, Valid: sorted}
		}
	}
	return nil
}
