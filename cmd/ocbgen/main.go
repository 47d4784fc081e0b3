// Command ocbgen generates an OCB database and prints its anatomy: the
// schema the generator drew (classes, reference types, instance sizes),
// the object population per class, and the physical placement statistics.
// It is the inspection tool for understanding what a parameter set builds
// before benchmarking it.
package main

import (
	_ "ocb/internal/backend/all"

	"flag"
	"fmt"
	"os"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
)

func main() {
	preset := flag.String("preset", "default", "parameter preset: default | club")
	nc := flag.Int("nc", 0, "NC: number of classes (0 keeps the preset)")
	no := flag.Int("no", 0, "NO: number of objects")
	seed := flag.Int64("seed", 0, "random seed (0 keeps the preset)")
	verbose := flag.Bool("v", false, "print the full class table")
	saveTo := flag.String("save", "", "save the generated database (gob) to this file")
	loadFrom := flag.String("load", "", "load a saved database instead of generating")
	flag.Parse()

	p := core.DefaultParams()
	if *preset == "club" {
		p = core.CluBParams()
	} else if *preset != "default" {
		fmt.Fprintf(os.Stderr, "ocbgen: unknown preset %q\n", *preset)
		os.Exit(1)
	}
	if *nc > 0 {
		p.NC = *nc
		p.SupClass = *nc
	}
	if *no > 0 {
		p.NO = *no
		p.SupRef = *no
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	var db *core.Database
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: %v\n", err)
			os.Exit(1)
		}
		db, err = core.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: %v\n", err)
			os.Exit(1)
		}
		p = db.P
	} else {
		var err error
		db, err = core.Generate(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: %v\n", err)
			os.Exit(1)
		}
	}
	if err := core.CheckDatabase(db); err != nil {
		fmt.Fprintf(os.Stderr, "ocbgen: integrity check failed: %v\n", err)
		os.Exit(1)
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: %v\n", err)
			os.Exit(1)
		}
		if err := db.Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: saving: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ocbgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("database saved to %s\n", *saveTo)
	}

	st := db.Store.Stats()
	fmt.Printf("database generated in %s (seed %d) — integrity check passed\n",
		report.Dur(db.GenTime), p.Seed)
	fmt.Printf("%d classes, %d objects, %d pages of %d bytes\n\n",
		p.NC, st.Objects, st.Pages, p.PageSize)

	if *verbose {
		ct := report.New("Schema", "Class", "MAXNREF", "BASESIZE", "InstanceSize", "DiskSize", "Instances", "Live refs", "NIL refs")
		for i := 1; i <= p.NC; i++ {
			c := db.Schema.Class(i)
			live, nils := 0, 0
			for _, cr := range c.CRef {
				if cr == core.NilClass {
					nils++
				} else {
					live++
				}
			}
			ct.AddRow(report.Int(i), report.Int(c.MaxNRef), report.Int(c.BaseSize),
				report.Int(c.InstanceSize), report.Int(c.DiskSize()),
				report.Int(len(c.Iterator)), report.Int(live), report.Int(nils))
		}
		_ = ct.Render(os.Stdout)
	}

	// Aggregate shape statistics.
	totalRefs, nilRefs, backRefs := 0, 0, 0
	minSize, maxSize := 1<<31, 0
	for _, oid := range db.LiveOIDs() {
		for k := 0; k < db.NumRefs(oid); k++ {
			totalRefs++
			if db.ORef(oid, k) == backend.NilOID {
				nilRefs++
			}
		}
		backRefs += len(db.BackRef(oid))
		class, _ := db.ClassOf(oid)
		c := db.Schema.Class(class)
		if s := c.DiskSize(); s < minSize {
			minSize = s
		}
		if s := c.DiskSize(); s > maxSize {
			maxSize = s
		}
	}
	at := report.New("Object graph", "Metric", "Value")
	at.AddRow("reference slots", report.Int(totalRefs))
	at.AddRow("NIL references", report.Int(nilRefs))
	at.AddRow("live references (= backrefs)", report.Int(backRefs))
	at.AddRow("min object disk size (bytes)", report.Int(minSize))
	at.AddRow("max object disk size (bytes)", report.Int(maxSize))
	at.AddRow("mean objects per page", fmt.Sprintf("%.1f", float64(st.Objects)/float64(st.Pages)))
	_ = at.Render(os.Stdout)
}
