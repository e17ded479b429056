package dist

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/parres/picprk/internal/grid"
)

func mesh(t testing.TB, L int) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(L, grid.DefaultCharge)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApportionExactTotal(t *testing.T) {
	cases := []struct {
		w []float64
		n int
	}{
		{[]float64{1, 1, 1, 1}, 10},
		{[]float64{1, 2, 3}, 100},
		{[]float64{0.001, 0.999}, 7},
		{[]float64{5}, 3},
		{[]float64{1, 0, 1}, 9},
	}
	for _, c := range cases {
		counts, err := Apportion(c.w, c.n)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, v := range counts {
			if v < 0 {
				t.Errorf("negative count %d", v)
			}
			if c.w[i] == 0 && v != 0 {
				t.Errorf("zero weight got %d particles", v)
			}
			sum += v
		}
		if sum != c.n {
			t.Errorf("weights %v n=%d: total %d", c.w, c.n, sum)
		}
	}
}

func TestApportionErrors(t *testing.T) {
	if _, err := Apportion([]float64{0, 0}, 5); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := Apportion([]float64{-1, 2}, 5); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Apportion([]float64{math.NaN()}, 5); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestApportionProperty(t *testing.T) {
	f := func(raw []uint16, n uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var tot float64
		for i, r := range raw {
			w[i] = float64(r)
			tot += w[i]
		}
		if tot == 0 {
			return true
		}
		counts, err := Apportion(w, int(n))
		if err != nil {
			return false
		}
		sum := 0
		for i, c := range counts {
			// Largest-remainder never deviates more than 1 from the exact share.
			exact := float64(n) * w[i] / tot
			if math.Abs(float64(c)-exact) >= 1.0+1e-9 {
				return false
			}
			sum += c
		}
		return sum == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricWeightsRatio(t *testing.T) {
	g := Geometric{R: 0.5}
	w := g.Weights(5)
	for i := 1; i < 5; i++ {
		if math.Abs(w[i]/w[i-1]-0.5) > 1e-12 {
			t.Errorf("ratio at %d: %v", i, w[i]/w[i-1])
		}
	}
	// r=1 degenerates to uniform (paper §III-E1).
	u := Geometric{R: 1}.Weights(4)
	for _, v := range u {
		if v != 1 {
			t.Errorf("r=1 weight %v", v)
		}
	}
}

func TestGeometricBlockLoadsFormGeometricSeries(t *testing.T) {
	// Paper eq. 8: particle counts per block column form a geometric series
	// with ratio r^(c/P).
	m := mesh(t, 64)
	cfg := Config{Mesh: m, N: 100000, Dist: Geometric{R: 0.9}, Seed: 1}
	counts, err := ColumnCounts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const P = 8
	block := make([]float64, P)
	for i, c := range counts {
		block[i/(64/P)] += float64(c)
	}
	wantRatio := math.Pow(0.9, 64.0/P)
	for i := 1; i < P; i++ {
		ratio := block[i] / block[i-1]
		if math.Abs(ratio-wantRatio) > 0.02 {
			t.Errorf("block ratio %d: %v, want ≈%v", i, ratio, wantRatio)
		}
	}
}

func TestSinusoidalWeights(t *testing.T) {
	w := Sinusoidal{}.Weights(101)
	if math.Abs(w[0]-2) > 1e-12 {
		t.Errorf("w[0]=%v, want 2", w[0])
	}
	if math.Abs(w[50]) > 1e-12 {
		t.Errorf("w[mid]=%v, want 0", w[50])
	}
	if math.Abs(w[100]-2) > 1e-9 {
		t.Errorf("w[last]=%v, want 2", w[100])
	}
	for i, v := range w {
		if v < 0 {
			t.Errorf("negative weight at %d", i)
		}
	}
	if got := (Sinusoidal{}).Weights(1); got[0] != 1 {
		t.Errorf("c=1 weight %v", got)
	}
}

func TestLinearWeights(t *testing.T) {
	l := Linear{Alpha: 1, Beta: 2}
	w := l.Weights(5)
	if w[0] != 2 || math.Abs(w[4]-1) > 1e-12 {
		t.Errorf("linear endpoints %v", w)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Error("linear weights must decrease for positive alpha")
		}
	}
	// Clamped at zero, never negative.
	steep := Linear{Alpha: 4, Beta: 2}.Weights(5)
	for _, v := range steep {
		if v < 0 {
			t.Errorf("negative clamped weight %v", v)
		}
	}
}

func TestPatchWeightsAndRows(t *testing.T) {
	p := Patch{X0: 2, X1: 5, Y0: 1, Y1: 3}
	w := p.Weights(8)
	for i, v := range w {
		want := 0.0
		if i >= 2 && i < 5 {
			want = 1
		}
		if v != want {
			t.Errorf("w[%d]=%v", i, v)
		}
	}
	lo, hi := p.RowRange(8)
	if lo != 1 || hi != 3 {
		t.Errorf("rows [%d,%d)", lo, hi)
	}
}

func TestBaseChargeCenterValue(t *testing.T) {
	// At xπ = h/2 with q = 1: qπ = 1/(2√2).
	got := BaseCharge(1, 0.5)
	want := 1 / (2 * math.Sqrt2)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("BaseCharge = %v, want %v", got, want)
	}
	// Scales inversely with mesh charge magnitude.
	if math.Abs(BaseCharge(2, 0.5)-want/2) > 1e-15 {
		t.Error("BaseCharge must scale as 1/q")
	}
}

func TestInitializeBasics(t *testing.T) {
	m := mesh(t, 16)
	cfg := Config{Mesh: m, N: 500, K: 1, M: -2, Dist: Geometric{R: 0.8}, Seed: 99}
	ps, err := Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 500 {
		t.Fatalf("got %d particles", len(ps))
	}
	seen := map[uint64]bool{}
	base := BaseCharge(m.Q, 0.5)
	for i := range ps {
		p := &ps[i]
		if L := m.Size(); p.ID == 0 || !(p.X >= 0 && p.X < L && p.Y >= 0 && p.Y < L) ||
			math.IsNaN(p.VX) || math.IsNaN(p.VY) || p.K < 0 || (p.Dir != 1 && p.Dir != -1) {
			t.Fatalf("invalid placement: %+v", *p)
		}
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
		// Cell-center placement.
		if math.Mod(p.X, 1) != 0.5 || math.Mod(p.Y, 1) != 0.5 {
			t.Fatalf("particle %d not at cell center: (%v,%v)", p.ID, p.X, p.Y)
		}
		// Charge magnitude is (2K+1)·qπ, sign from column parity.
		if math.Abs(math.Abs(p.Q)-3*base) > 1e-15 {
			t.Fatalf("charge magnitude %v", p.Q)
		}
		col := int(p.X)
		wantSign := 1.0
		if col%2 == 1 {
			wantSign = -1
		}
		if math.Signbit(p.Q) == (wantSign > 0) {
			t.Fatalf("charge sign wrong in column %d: %v", col, p.Q)
		}
		if p.VY != -2 || p.VX != 0 {
			t.Fatalf("velocity (%v,%v)", p.VX, p.VY)
		}
		if p.K != 1 || p.M != -2 || p.Dir != 1 || p.Born != 0 {
			t.Fatalf("trajectory params %+v", p)
		}
	}
	// IDs are 1..N.
	for id := uint64(1); id <= 500; id++ {
		if !seen[id] {
			t.Fatalf("missing ID %d", id)
		}
	}
}

func TestInitializeDeterministic(t *testing.T) {
	m := mesh(t, 32)
	cfg := Config{Mesh: m, N: 1000, Dist: Sinusoidal{}, Seed: 7}
	a, err := Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic init at %d", i)
		}
	}
	cfg.Seed = 8
	c, _ := Initialize(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placement")
	}
}

func TestInitializePatchRespectsRegion(t *testing.T) {
	m := mesh(t, 16)
	p := Patch{X0: 4, X1: 8, Y0: 10, Y1: 12}
	ps, err := Initialize(Config{Mesh: m, N: 300, Dist: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		cx, cy := m.CellOf(ps[i].X, ps[i].Y)
		if cx < 4 || cx >= 8 || cy < 10 || cy >= 12 {
			t.Fatalf("particle outside patch: (%d,%d)", cx, cy)
		}
	}
}

func TestInitializeValidation(t *testing.T) {
	m := mesh(t, 8)
	if _, err := Initialize(Config{Mesh: m, N: -1}); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := Initialize(Config{Mesh: m, N: 5, K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Initialize(Config{Mesh: m, N: 5, Dir: 2}); err == nil {
		t.Error("bad Dir accepted")
	}
	if _, err := Initialize(Config{N: 5}); err == nil {
		t.Error("zero mesh accepted")
	}
	if _, err := Initialize(Config{Mesh: m, N: 0}); err != nil {
		t.Error("N=0 should be allowed")
	}
}

func TestRNGDeterminismAndSpread(t *testing.T) {
	a := NewRNG(1, 2, 3)
	b := NewRNG(1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seeds diverged")
		}
	}
	c := NewRNG(1, 2, 4)
	if a.Uint64() == c.Uint64() {
		t.Error("different seeds collided immediately")
	}
	// Intn stays in range; Float64 in [0,1).
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Errorf("digit %d count %d deviates >10%%", d, c)
		}
	}
}

// linearApportion is Apportion's leftover rule as it stood before the sort:
// one linear scan per leftover particle for the largest unused remainder,
// ties to the lower index. Kept verbatim so the reference cannot drift.
func linearApportion(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		c := int(math.Floor(exact))
		counts[i] = c
		assigned += c
		rems = append(rems, rem{i, exact - float64(c)})
	}
	left := n - assigned
	for left > 0 {
		best := -1
		for j := range rems {
			if rems[j].frac < 0 {
				continue
			}
			if best == -1 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		left--
	}
	return counts
}

// FuzzApportion checks the one-sort leftover rule against the linear scans
// it replaced. Each byte of raw is one weight, scaled so that small
// alphabets give many exact ties and wide ones many distinct remainders.
func FuzzApportion(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint32(100), uint8(0))      // Uniform: every remainder ties
	f.Add([]byte{0, 3, 0, 0, 5, 0}, uint32(11), uint8(1))          // zero weights
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint32(4), uint8(2))  // n < len(weights)
	f.Add([]byte{200, 17, 3, 255, 1, 64}, uint32(1<<30), uint8(3)) // large n
	f.Add([]byte{1, 2, 3}, uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, n uint32, scale uint8) {
		w := make([]float64, len(raw))
		nonzero := false
		for i, b := range raw {
			w[i] = float64(b) * math.Pow(1.5, float64(scale%16))
			nonzero = nonzero || b != 0
		}
		if !nonzero {
			return
		}
		got, err := Apportion(w, int(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := linearApportion(w, int(n)); !slices.Equal(got, want) {
			t.Fatalf("weights %v n=%d: sort gives %v, linear scans %v", w, n, got, want)
		}
	})
}
