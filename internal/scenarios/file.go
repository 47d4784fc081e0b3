package scenarios

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ocb/internal/workload"
)

// FileSpec is the JSON form of a user-authored scenario: a base preset
// plus overrides. Example (see examples/scenarios/):
//
//	{
//	  "scenario": "oo1",
//	  "backend": "paged",
//	  "clients": 4,
//	  "measured": 200,
//	  "warmup": 20,
//	  "think": "2ms",
//	  "think_dist": "negexp:0.5",
//	  "seed": 7,
//	  "ops": [
//	    {"name": "lookup", "weight": 3},
//	    {"name": "traversal", "weight": 1}
//	  ],
//	  "slo": {"p95_us": 5000, "min_ops_per_sec": 100}
//	}
//
// Setting "measured" switches a suite preset from its fixed program to a
// sampled mix; a non-empty "ops" list replaces the preset's mix with the
// named operations only (unknown names are rejected naming the valid
// set). For the ocb preset, op weights map onto the transaction-type
// probabilities and "measured"/"warmup" override HOTN/COLDN.
//
// "rate" selects open-loop arrival-rate pacing (ops/sec across all
// clients, latency from scheduled arrival; exclusive with "think");
// "think_dist" draws the pacing gaps from a lewis distribution;
// "tolerate_errors" turns op failures into counted errors; "slo"
// declares the pass/fail bounds that make the file a performance test —
// `ocb run` exits non-zero when a phase violates them. See
// internal/workload docs.go for the full load-model schema.
type FileSpec struct {
	Scenario       string            `json:"scenario"`
	Backend        string            `json:"backend,omitempty"`
	BackendOptions map[string]string `json:"backend_options,omitempty"`
	Quick          bool              `json:"quick,omitempty"`
	Seed           int64             `json:"seed,omitempty"`
	Clients        int               `json:"clients,omitempty"`
	Warmup         int               `json:"warmup,omitempty"`
	Measured       int               `json:"measured,omitempty"`
	// Think is a Go duration string ("2ms", "150us").
	Think string `json:"think,omitempty"`
	// ThinkDist is a lewis.ParseDistribution spec for stochastic pacing
	// gaps ("negexp:0.5", "selfsimilar", "uniform", ...).
	ThinkDist string `json:"think_dist,omitempty"`
	// Rate is the open-loop arrival-rate target in ops/sec across all
	// clients.
	Rate float64 `json:"rate,omitempty"`
	// TolerateErrors counts op failures instead of aborting the run.
	TolerateErrors bool     `json:"tolerate_errors,omitempty"`
	Ops            []FileOp `json:"ops,omitempty"`
	// SLO declares pass/fail bounds: run-level "p95_us", "p99_us",
	// "min_ops_per_sec", "max_error_rate", plus "per_op" keyed by op name.
	SLO *workload.SLO `json:"slo,omitempty"`
}

// FileOp names one operation of the base preset with its new weight
// (sampled mixes) and/or repeat count (fixed programs).
type FileOp struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight,omitempty"`
	Count  int     `json:"count,omitempty"`
}

// options folds the file's overrides over the base options (command-line
// flags act as defaults; the file wins where it speaks).
func (f *FileSpec) options(base Options) (Options, error) {
	o := base
	if f.Backend != "" {
		o.Backend = f.Backend
	}
	if len(f.BackendOptions) > 0 {
		o.BackendOptions = f.BackendOptions
	}
	if f.Quick {
		o.Quick = true
	}
	if f.Seed != 0 {
		o.Seed = f.Seed
	}
	if f.Clients != 0 {
		o.Clients = f.Clients
	}
	if f.Warmup != 0 {
		o.Warmup = f.Warmup
	}
	if f.Measured != 0 {
		o.Measured = f.Measured
	}
	if f.Think != "" {
		d, err := time.ParseDuration(f.Think)
		if err != nil {
			return o, fmt.Errorf("scenarios: bad think duration %q: %w", f.Think, err)
		}
		o.Think = d
	}
	if f.ThinkDist != "" {
		o.ThinkDist = f.ThinkDist
	}
	if f.Rate != 0 {
		o.Rate = f.Rate
	}
	if f.TolerateErrors {
		o.TolerateErrors = true
	}
	if f.SLO != nil {
		o.SLO = f.SLO
	}
	if len(f.Ops) > 0 {
		// Naming an op keeps it in the mix; a positive weight or count
		// additionally overrides the preset's value (zero keeps it).
		o.OpWeights = make(map[string]float64)
		o.OpCounts = make(map[string]int)
		for _, op := range f.Ops {
			if op.Name == "" {
				return o, fmt.Errorf("scenarios: spec file op without a name")
			}
			if op.Weight < 0 || op.Count < 0 {
				return o, fmt.Errorf("scenarios: op %q has a negative weight or count", op.Name)
			}
			o.OpWeights[op.Name] = op.Weight
			o.OpCounts[op.Name] = op.Count
		}
	}
	return o, nil
}

// Load parses a JSON scenario spec and builds it over the base options.
func Load(r io.Reader, base Options) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f FileSpec
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenarios: parsing spec file: %w", err)
	}
	if f.Scenario == "" {
		return nil, fmt.Errorf("scenarios: spec file needs a \"scenario\" (one of %v)", List())
	}
	o, err := f.options(base)
	if err != nil {
		return nil, err
	}
	return Build(f.Scenario, o)
}

// LoadFile is Load over a file path.
func LoadFile(path string, base Options) (*Scenario, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	s, err := Load(fd, base)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
