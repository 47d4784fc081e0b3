// Genericity demonstrates OCB's headline design claim (Section 3.1): its
// generic parameterized database can be tuned to mimic other benchmarks'
// databases — and aimed at more than one system under test. Here OCB
// impersonates DSTC-CluB / OO1 via the paper's Table 3 parameters, and the
// OO1 signature falls out: a depth-7 simple traversal visits exactly 3280
// objects with fan-out 3, just like OO1's part tree. The impersonation
// then runs against every registered backend: the visited-object signature
// is identical on each (the workload is defined over the object graph),
// while the I/O profile is the backend's own — the paged store faults
// pages, the flat in-memory control charges zero I/Os.
package main

import (
	"fmt"
	"log"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/core"
	"ocb/internal/lewis"
	"ocb/internal/oo1"
	"ocb/internal/workload"
)

// mimicParams is the Table 3 CluB/OO1 impersonation, shrunk for an
// example-sized run. Table 3 pins NO=20000; shrinking it means the
// reference zone (1% of the database) must shrink with it.
func mimicParams() core.Params {
	p := core.CluBParams()
	p.NO = 8000
	p.SupRef = 8000
	p.Dist4 = lewis.RefZone{Zone: p.NO / 100, PLocal: 0.9}
	p.BufferPages = 64
	return p
}

// signature runs the depth-7 simple traversal from the first class-1 root
// (all three references live) and returns objects visited plus the I/Os
// the backend charged for it.
func signature(db *core.Database) (objects int, ios uint64, err error) {
	var root backend.OID
	for i := 1; i <= db.NO(); i++ {
		if c, _ := db.ClassOf(backend.OID(i)); c == 1 {
			root = backend.OID(i)
			break
		}
	}
	before := db.Store.DiskStats().TransactionIOs()
	objects, err = core.NewExecutor(db, nil, nil).Exec(core.Transaction{Type: core.SimpleTraversal, Root: root, Depth: db.P.SimDepth})
	return objects, db.Store.DiskStats().TransactionIOs() - before, err
}

func main() {
	// The real OO1 benchmark, as the reference point.
	op := oo1.DefaultParams()
	op.NumParts = 4000
	op.RefZone = 40
	op.BufferPages = 64
	odb, err := oo1.Generate(op)
	if err != nil {
		log.Fatal(err)
	}
	oo1Parts, err := odb.TraverseFrom(&workload.AccessStream{Store: odb.Store}, odb.ByID[1], false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OO1 traversal:                    %4d parts visited (depth 7, fan-out 3)\n\n", oo1Parts)

	// OCB parameterized per Table 3, aimed at every local backend: same
	// generation seed, same traversal, per-backend I/O profile. (The
	// remote driver needs a served endpoint; `ocb-experiments compare`
	// spins one up and adds that row.)
	first := -1
	var lastDB *core.Database
	for _, name := range backend.ListLocal() {
		p := mimicParams()
		p.Backend = name
		db, err := core.Generate(p)
		if err != nil {
			log.Fatal(err)
		}
		lastDB = db
		objects, ios, err := signature(db)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("OCB (Table 3) on %-8s backend: %4d objects visited, %4d I/Os charged\n",
			name, objects, ios)
		if first == -1 {
			first = objects
		} else if objects != first {
			log.Fatalf("genericity violated: %d objects on %s, %d elsewhere", objects, name, first)
		}
		if objects == oo1Parts {
			fmt.Printf("  -> reproduces OO1's traversal shape exactly (paper §4.3)\n")
		}
		// The locality analysis below reads only the in-memory graph, so
		// each row's store (files, for durable backends) can go now.
		if err := db.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nsame visited-object signature on every backend, different I/O profile:")
	fmt.Println("properly customized, the generic benchmark impersonates the specialized")
	fmt.Println("one — and properly abstracted, it measures any system under test.")

	// And the locality structure matches OO1 too: most references stay
	// within the reference zone of the referencing object. The object
	// graph is seed-determined and backend-invariant, so any database
	// from the loop above serves.
	p := mimicParams()
	db := lastDB
	local, total := 0, 0
	for i := 1; i <= p.NO; i++ {
		oid := backend.OID(i)
		for k := 0; k < db.NumRefs(oid); k++ {
			r := db.ORef(oid, k)
			if r == backend.NilOID {
				continue
			}
			total++
			d := int(r) - i
			if d < 0 {
				d = -d
			}
			if d <= 2*p.NO/100 {
				local++
			}
		}
	}
	fmt.Printf("\nreference locality: %.0f%% of OCB references fall near their owner\n",
		100*float64(local)/float64(total))
}
