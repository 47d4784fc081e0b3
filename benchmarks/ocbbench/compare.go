package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := new(record)
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// Verdicts of one row.
const (
	better     = "better"
	within     = "within bound"
	worse      = "WORSE"
	unresolved = "unresolved"
)

// judge compares one metric of one workload. A metric is worse when its new
// median is worse than the old one by more than the bound allows. When the
// runs of either side spread wider than that allowance and the two sides'
// ranges overlap, the runs cannot tell a change of the bound's size from
// noise: the row is unresolved, whichever way the medians lean.
func judge(def metricDef, o, n *summary) string {
	allowed := def.rel*o.Median + def.abs
	gain := o.Median - n.Median // how much better a lower-is-better metric got
	if def.better == "higher" {
		gain = -gain
	}
	if def.better == "equal" && gain > 0 {
		gain = -gain
	}
	overlap := n.Min <= o.Max && o.Min <= n.Max
	spread := max(o.Max-o.Min, n.Max-n.Min)
	switch {
	case overlap && spread > allowed:
		return unresolved
	case gain < -allowed:
		return worse
	case gain > allowed:
		return better
	default:
		return within
	}
}

// compareFiles prints one row per workload and end-to-end metric, then the
// per-layer metrics, which are never judged. It returns the number of rows
// that are worse.
func compareFiles(w io.Writer, oldPath, newPath string) (int, error) {
	o, err := readRecord(oldPath)
	if err != nil {
		return 0, err
	}
	n, err := readRecord(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "old: %s  commit %s, %s, seed %d, %g s, %d run(s)\n", oldPath,
		o.Context.Commit, o.Context.GoVersion, o.Context.Seed, o.Context.Seconds, o.Context.Runs)
	fmt.Fprintf(w, "new: %s  commit %s, %s, seed %d, %g s, %d run(s)\n", newPath,
		n.Context.Commit, n.Context.GoVersion, n.Context.Seed, n.Context.Seconds, n.Context.Runs)
	sameInputs := o.Context.Seed == n.Context.Seed && o.Context.Seconds == n.Context.Seconds && o.Context.Quick == n.Context.Quick

	worseRows := 0
	fmt.Fprintf(w, "\n%-18s %-22s %14s %14s %18s  %s\n", "workload", "end-to-end metric", "old median", "new median", "new/old", "verdict")
	for _, ow := range o.Workloads {
		nw := n.workload(ow.Name)
		if nw == nil {
			return 0, fmt.Errorf("%s has no workload %s", newPath, ow.Name)
		}
		for _, def := range endToEnd {
			os, ns := ow.EndToEnd[def.name], nw.EndToEnd[def.name]
			if os == nil || ns == nil {
				continue
			}
			verdict := judge(def, os, ns)
			if def.better == "equal" && !sameInputs {
				verdict = "not comparable: seeds or sizes differ"
			}
			if verdict == worse {
				worseRows++
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %18s  %s\n", ow.Name, def.name, os.Median, ns.Median, ratio(ns.Median, os.Median), verdict)
		}
	}

	fmt.Fprintf(w, "\n%-18s %-34s %14s %14s %18s\n", "workload", "per-layer metric (not judged)", "old", "new", "new/old")
	for _, ow := range o.Workloads {
		nw := n.workload(ow.Name)
		for _, l := range layerMetrics {
			ov, ok1 := ow.PerLayer[l.name]
			nv, ok2 := nw.PerLayer[l.name]
			if ok1 && ok2 {
				fmt.Fprintf(w, "%-18s %-34s %14.4f %14.4f %18s\n", ow.Name, l.name, ov.Value, nv.Value, ratio(nv.Value, ov.Value))
			}
		}
	}
	return worseRows, nil
}

func (r *record) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// ratio is new over old with its base, "-" where the base is 0.
func ratio(n, o float64) string {
	if o == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f of %.4g", n/o, o)
}
