package lewis

import (
	"math"
	"testing"
	"testing/quick"
)

// checkBounds property-checks that a distribution never leaves [lo, hi].
func checkBounds(t *testing.T, d Distribution) {
	t.Helper()
	s := New(1)
	f := func(a, b int16, center int16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		v := d.Draw(s, lo, hi, int(center))
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
}

func TestAllDistributionBounds(t *testing.T) {
	for _, d := range []Distribution{
		Uniform{},
		Constant{},
		Constant{Offset: 3},
		&RoundRobin{},
		NewZipf(0.8),
		NewZipf(1.0),
		Normal{},
		NegExp{},
		SelfSimilar{},
		RefZone{Zone: 10},
	} {
		t.Run(d.Name(), func(t *testing.T) { checkBounds(t, d) })
	}
}

func TestConstant(t *testing.T) {
	s := New(1)
	d := Constant{Offset: 2}
	for i := 0; i < 100; i++ {
		if v := d.Draw(s, 5, 20, 0); v != 7 {
			t.Fatalf("Constant{2}.Draw(5,20) = %d, want 7", v)
		}
	}
	// Clamped when offset exceeds range.
	if v := (Constant{Offset: 100}).Draw(s, 5, 20, 0); v != 20 {
		t.Fatalf("clamp failed: %d", v)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	d := &RoundRobin{}
	s := New(1)
	want := []int{3, 4, 5, 3, 4, 5, 3}
	for i, w := range want {
		if v := d.Draw(s, 3, 5, 0); v != w {
			t.Fatalf("draw %d = %d, want %d", i, v, w)
		}
	}
}

func TestZipfSkewsLow(t *testing.T) {
	s := New(9)
	d := NewZipf(1.0)
	const n = 50000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[d.Draw(s, 1, 100, 0)]++
	}
	if counts[1] <= counts[50] {
		t.Fatalf("zipf not skewed: count(1)=%d count(50)=%d", counts[1], counts[50])
	}
	// Rank-1 frequency should approximate 1/zeta(100) ~= 0.192 for skew 1.
	frac := float64(counts[1]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("zipf rank-1 frequency %v outside [0.15, 0.25]", frac)
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	s := New(10)
	d := NewZipf(1.2)
	counts := make([]int, 11)
	for i := 0; i < 100000; i++ {
		counts[d.Draw(s, 1, 10, 0)]++
	}
	// Allow sampling noise but the head must dominate the tail.
	if !(counts[1] > counts[4] && counts[4] > counts[10]) {
		t.Fatalf("zipf frequencies not decreasing: %v", counts[1:])
	}
}

func TestNormalCentered(t *testing.T) {
	s := New(11)
	d := Normal{}
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += d.Draw(s, 0, 1000, 0)
	}
	mean := float64(sum) / n
	if math.Abs(mean-500) > 10 {
		t.Fatalf("normal mean = %v, want ~500", mean)
	}
}

func TestNegExpSkewsTowardLo(t *testing.T) {
	s := New(12)
	d := NegExp{MeanFrac: 0.2}
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Draw(s, 0, 1000, 0) < 200 {
			below++
		}
	}
	// P(X < mean) = 1 - 1/e ~= 0.63 for an exponential.
	frac := float64(below) / n
	if frac < 0.55 || frac > 0.70 {
		t.Fatalf("negexp mass below mean = %v, want ~0.63", frac)
	}
}

func TestRefZoneLocality(t *testing.T) {
	s := New(13)
	d := RefZone{Zone: 50} // PLocal defaults to 0.9
	const center = 5000
	local := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Draw(s, 1, 10000, center)
		if v >= center-50 && v <= center+50 {
			local++
		}
	}
	frac := float64(local) / n
	// 0.9 locally plus ~1% of the uniform tail landing inside the zone.
	if frac < 0.88 || frac > 0.93 {
		t.Fatalf("refzone local fraction = %v, want ~0.9", frac)
	}
}

func TestRefZoneClampsAtEdges(t *testing.T) {
	s := New(14)
	d := RefZone{Zone: 100, PLocal: 1.0}
	for i := 0; i < 1000; i++ {
		v := d.Draw(s, 1, 10000, 1) // zone extends below lo
		if v < 1 || v > 101 {
			t.Fatalf("edge draw %d outside clamped zone", v)
		}
	}
}

func TestParseDistribution(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"uniform", "uniform"},
		{"constant", "constant:0"},
		{"constant:5", "constant:5"},
		{"roundrobin", "roundrobin"},
		{"zipf", "zipf:1"},
		{"zipf:1.5", "zipf:1.5"},
		{"normal", "normal"},
		{"negexp", "negexp"},
		{"negexp:0.3", "negexp"},
		{"refzone:100", "refzone:100"},
		{"refzone:100:0.8", "refzone:100"},
		{"  UNIFORM ", "uniform"},
	}
	for _, c := range cases {
		d, err := ParseDistribution(c.spec)
		if err != nil {
			t.Fatalf("ParseDistribution(%q): %v", c.spec, err)
		}
		if d.Name() != c.want {
			t.Fatalf("ParseDistribution(%q).Name() = %q, want %q", c.spec, d.Name(), c.want)
		}
	}
}

func TestParseDistributionErrors(t *testing.T) {
	for _, spec := range []string{"bogus", "zipf:x", "constant:x", "refzone", "refzone:x", "refzone:5:x", "negexp:x"} {
		if _, err := ParseDistribution(spec); err == nil {
			t.Fatalf("ParseDistribution(%q) succeeded, want error", spec)
		}
	}
}

// FuzzParseDistribution holds every spec the command line can pass for
// DIST1..DIST5 to one contract: ParseDistribution either rejects it, or
// every draw from the result stays inside the requested interval. A draw
// outside it becomes an out-of-range index in generation or a bad
// transaction root.
func FuzzParseDistribution(f *testing.F) {
	for _, spec := range []string{
		"uniform", "constant:5", "roundrobin", "zipf:1.5", "normal",
		"negexp:0.3", "selfsimilar", "selfsimilar:0.1", "refzone:100:0.8",
		"selfsimilar:NaN", "selfsimilar:1e-300", "zipf:-Inf", "negexp:Inf",
		"refzone:5:nan", "constant:9223372036854775807",
	} {
		f.Add(spec, int16(1), uint8(20), int64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, lo int16, span uint8, seed int64) {
		d, err := ParseDistribution(spec)
		if err != nil {
			return
		}
		// Spans stay small: zipf caches one float per value per skew.
		l := int(lo)
		h := l + int(span%32)
		s := New(seed)
		for i := 0; i < 64; i++ {
			center := l + i%(h-l+1)
			if v := d.Draw(s, l, h, center); v < l || v > h {
				t.Fatalf("%q: Draw(%d, %d, center %d) = %d", spec, l, h, center, v)
			}
		}
	})
}

func BenchmarkUint32(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Intn(1000)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	s := New(1)
	d := NewZipf(1.0)
	d.Draw(s, 1, 20000, 0) // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Draw(s, 1, 20000, 0)
	}
}

func TestSelfSimilarEightyTwenty(t *testing.T) {
	s := New(31)
	d := SelfSimilar{} // default 0.2 skew: 80% of draws in the first 20%
	const n = 100000
	inHead := 0
	for i := 0; i < n; i++ {
		v := d.Draw(s, 1, 1000, 0)
		if v < 1 || v > 1000 {
			t.Fatalf("draw %d out of range", v)
		}
		if v <= 200 {
			inHead++
		}
	}
	frac := float64(inHead) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("head mass = %v, want ~0.8", frac)
	}
}

func TestSelfSimilarDegenerate(t *testing.T) {
	s := New(1)
	if v := (SelfSimilar{}).Draw(s, 7, 7, 0); v != 7 {
		t.Fatalf("degenerate draw = %d", v)
	}
	// Invalid skews fall back to 0.2.
	if (SelfSimilar{Skew: 0.9}).Name() != "selfsimilar:0.2" {
		t.Fatal("invalid skew not defaulted in Name")
	}
}

func TestParseSelfSimilar(t *testing.T) {
	d, err := ParseDistribution("selfsimilar:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "selfsimilar:0.1" {
		t.Fatalf("name = %s", d.Name())
	}
	if _, err := ParseDistribution("selfsimilar:x"); err == nil {
		t.Fatal("bad skew accepted")
	}
}
