// Clustergain demonstrates the experiment at the heart of the paper
// (Tables 4 and 5): measure transaction I/Os, let DSTC observe the
// workload, physically reorganize the database, and measure again.
//
// Two workloads run over the same CluB-like database: the stereotyped
// single-type traversal workload (which flatters clustering) and the
// default mixed four-type workload (which blunts it) — reproducing the
// paper's central finding that OCB exposes what single-workload clustering
// benchmarks hide.
package main

import (
	_ "ocb/internal/backend/all"

	"fmt"
	"log"

	"ocb/internal/core"
	"ocb/internal/dstc"
)

func main() {
	single := core.CluBParams() // PSIMPLE=1, SIMDEPTH=7 over the Table 3 database
	single.NO = 6000
	single.SupRef = 6000
	single.BufferPages = 52

	mixed := single
	d := core.DefaultParams()
	mixed.PSet, mixed.PSimple, mixed.PHier, mixed.PStoch = d.PSet, d.PSimple, d.PHier, d.PStoch
	mixed.SetDepth, mixed.SimDepth, mixed.HieDepth, mixed.StoDepth = d.SetDepth, d.SimDepth, d.HieDepth, d.StoDepth

	fmt.Println("workload           before   after   gain")
	fmt.Println("----------------------------------------")
	for _, w := range []struct {
		name string
		p    core.Params
		n    int
	}{
		{"single-type (T4)", single, 60},
		{"mixed 4-type (T5)", mixed, 400},
	} {
		before, after, err := measure(w.p, w.n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %6.1f  %6.1f  %5.2fx\n", w.name, before, after, before/after)
	}
}

// measure runs the held-out protocol: observe 3 workload samples,
// reorganize with DSTC, measure an unseen sample before and after.
func measure(p core.Params, n int) (before, after float64, err error) {
	db, err := core.Generate(p)
	if err != nil {
		return 0, 0, err
	}
	policy := dstc.New(dstc.Params{
		ObservationPeriod: 1 << 30, // consolidate once, at reorganization
		MaxUnitBytes:      1 << 16, // units of up to 16 pages
	})
	observe := core.NewRunner(db, policy)
	probe := core.NewRunner(db, nil)

	const measSeed = 999331
	db.Store.DropCache()
	b, err := probe.RunPhase("before", n/2, measSeed)
	if err != nil {
		return 0, 0, err
	}
	for rep := 0; rep < 3; rep++ {
		db.Store.DropCache()
		if _, err := observe.RunPhase("observe", n, int64(1000+rep)); err != nil {
			return 0, 0, err
		}
	}
	if _, err := observe.Reorganize(); err != nil {
		return 0, 0, err
	}
	db.Store.DropCache()
	a, err := probe.RunPhase("after", n/2, measSeed)
	if err != nil {
		return 0, 0, err
	}
	return b.MeanIOsPerOp(), a.MeanIOsPerOp(), nil
}
