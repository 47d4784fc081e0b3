package core

import (
	"strings"
	"testing"
	"time"

	"ocb/internal/lewis"
)

// TestDefaultParamsMatchTable1 pins the database defaults to the paper's
// Table 1 (experiment T1 of DESIGN.md).
func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.NC != 20 {
		t.Errorf("NC = %d, Table 1 says 20", p.NC)
	}
	if p.MaxNRef != 10 {
		t.Errorf("MAXNREF = %d, Table 1 says 10", p.MaxNRef)
	}
	if p.BaseSize != 50 {
		t.Errorf("BASESIZE = %d, Table 1 says 50", p.BaseSize)
	}
	if p.NO != 20000 {
		t.Errorf("NO = %d, Table 1 says 20000", p.NO)
	}
	if p.NRefT != 4 {
		t.Errorf("NREFT = %d, Table 1 says 4", p.NRefT)
	}
	if p.InfClass != 1 || p.SupClass != p.NC {
		t.Errorf("class interval [%d, %d], Table 1 says [1, NC]", p.InfClass, p.SupClass)
	}
	if p.InfRef != 1 || p.SupRef != p.NO {
		t.Errorf("object interval [%d, %d], Table 1 says [1, NO]", p.InfRef, p.SupRef)
	}
	for i, d := range []lewis.Distribution{p.Dist1, p.Dist2, p.Dist3, p.Dist4} {
		if d.Name() != "uniform" {
			t.Errorf("DIST%d = %s, Table 1 says uniform", i+1, d.Name())
		}
	}
}

// TestDefaultParamsMatchTable2 pins the workload defaults to Table 2
// (experiment T2).
func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultParams()
	if p.SetDepth != 3 || p.SimDepth != 3 || p.HieDepth != 5 || p.StoDepth != 50 {
		t.Errorf("depths = %d/%d/%d/%d, Table 2 says 3/3/5/50",
			p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth)
	}
	if p.ColdN != 1000 || p.HotN != 10000 {
		t.Errorf("COLDN/HOTN = %d/%d, Table 2 says 1000/10000", p.ColdN, p.HotN)
	}
	if p.Think != 0 {
		t.Errorf("THINK = %v, Table 2 says 0", p.Think)
	}
	if p.PSet != 0.25 || p.PSimple != 0.25 || p.PHier != 0.25 || p.PStoch != 0.25 {
		t.Errorf("probabilities = %v/%v/%v/%v, Table 2 says 0.25 each",
			p.PSet, p.PSimple, p.PHier, p.PStoch)
	}
	if p.Dist5.Name() != "uniform" {
		t.Errorf("RAND5 = %s, Table 2 says uniform", p.Dist5.Name())
	}
	if p.ClientN != 1 {
		t.Errorf("CLIENTN = %d, Table 2 says 1", p.ClientN)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
}

// TestCluBParamsMatchTable3 pins the genericity preset to Table 3.
func TestCluBParamsMatchTable3(t *testing.T) {
	p := CluBParams()
	if p.NC != 2 {
		t.Errorf("NC = %d, Table 3 says 2", p.NC)
	}
	if p.MaxNRef != 3 {
		t.Errorf("MAXNREF = %d, Table 3 says 3", p.MaxNRef)
	}
	if p.BaseSize != 50 {
		t.Errorf("BASESIZE = %d, Table 3 says 50", p.BaseSize)
	}
	if p.NO != 20000 {
		t.Errorf("NO = %d, Table 3 says 20000", p.NO)
	}
	if p.NRefT != 3 {
		t.Errorf("NREFT = %d, Table 3 says 3", p.NRefT)
	}
	if p.InfClass != 0 {
		t.Errorf("INFCLASS = %d, Table 3 says 0 (NIL references possible)", p.InfClass)
	}
	if !strings.HasPrefix(p.Dist1.Name(), "constant") {
		t.Errorf("DIST1 = %s, Table 3 says constant", p.Dist1.Name())
	}
	if !strings.HasPrefix(p.Dist2.Name(), "constant") {
		t.Errorf("DIST2 = %s, Table 3 says constant", p.Dist2.Name())
	}
	if !strings.HasPrefix(p.Dist4.Name(), "refzone") {
		t.Errorf("DIST4 = %s, Table 3 says the OO1 special distribution", p.Dist4.Name())
	}
	// CluB runs OO1's traversal only: depth-first, 7 hops.
	if p.PSimple != 1 || p.SimDepth != 7 {
		t.Errorf("CluB workload: PSIMPLE = %v, SIMDEPTH = %d, want 1 and 7", p.PSimple, p.SimDepth)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("CluB preset does not validate: %v", err)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	break1 := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	cases := map[string]Params{
		"NC":           break1(func(p *Params) { p.NC = 0 }),
		"NO":           break1(func(p *Params) { p.NO = 0 }),
		"MaxNRef":      break1(func(p *Params) { p.MaxNRef = -1 }),
		"NRefT":        break1(func(p *Params) { p.NRefT = 0 }),
		"acyclic":      break1(func(p *Params) { p.NumAcyclicTypes = 9 }),
		"classLo":      break1(func(p *Params) { p.InfClass = -1 }),
		"classHi":      break1(func(p *Params) { p.SupClass = 99 }),
		"refLo":        break1(func(p *Params) { p.InfRef = 0 }),
		"refHi":        break1(func(p *Params) { p.SupRef = p.NO + 1 }),
		"baseSize":     break1(func(p *Params) { p.BaseSize = -1 }),
		"perClassRef":  break1(func(p *Params) { p.MaxNRefPerClass = []int{1, 2} }),
		"perClassSize": break1(func(p *Params) { p.BaseSizePerClass = []int{1} }),
		"nilDist":      break1(func(p *Params) { p.Dist3 = nil }),
		"depth":        break1(func(p *Params) { p.SimDepth = -1 }),
		"counts":       break1(func(p *Params) { p.ColdN = -1 }),
		"zeroCounts":   break1(func(p *Params) { p.HotN = 0 }),
		"clients":      break1(func(p *Params) { p.ClientN = 0 }),
		"think":        break1(func(p *Params) { p.Think = -time.Second }),
		"probSum":      break1(func(p *Params) { p.PSet = 0.9 }),
		"probNeg":      break1(func(p *Params) { p.PSet = -0.25; p.PSimple = 0.75 }),
		"reverse":      break1(func(p *Params) { p.PReverse = 1.5 }),
		"geometry":     break1(func(p *Params) { p.PageSize = -1 }),
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid parameters accepted", name)
		}
	}
}

func TestPerClassOverrides(t *testing.T) {
	p := DefaultParams()
	p.NC = 2
	p.SupClass = 2
	p.MaxNRefPerClass = []int{0, 3, 7}
	p.BaseSizePerClass = []int{0, 10, 90}
	if p.MaxNRefOf(1) != 3 || p.MaxNRefOf(2) != 7 {
		t.Fatalf("MaxNRefOf = %d/%d", p.MaxNRefOf(1), p.MaxNRefOf(2))
	}
	if p.BaseSizeOf(1) != 10 || p.BaseSizeOf(2) != 90 {
		t.Fatalf("BaseSizeOf = %d/%d", p.BaseSizeOf(1), p.BaseSizeOf(2))
	}
	q := DefaultParams()
	if q.MaxNRefOf(5) != 10 || q.BaseSizeOf(5) != 50 {
		t.Fatal("default per-class accessors broken")
	}
}

func TestTypePredicates(t *testing.T) {
	p := DefaultParams() // NumAcyclicTypes = 2
	if !p.isAcyclicType(1) || !p.isAcyclicType(2) || p.isAcyclicType(3) || p.isAcyclicType(0) {
		t.Fatal("isAcyclicType wrong")
	}
	if !p.isInheritanceType(1) || p.isInheritanceType(2) {
		t.Fatal("isInheritanceType wrong")
	}
	p.NumAcyclicTypes = 0
	if p.isInheritanceType(1) {
		t.Fatal("inheritance without acyclic types")
	}
}
