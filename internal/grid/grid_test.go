package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMeshValidation(t *testing.T) {
	cases := []struct {
		L  int
		q  float64
		ok bool
	}{
		{8, 1, true}, {2, 0.5, true}, {0, 1, false}, {-4, 1, false},
		{7, 1, false}, {8, 0, false}, {8, -1, false}, {8, math.NaN(), false},
		{8, math.Inf(1), false},
	}
	for _, c := range cases {
		_, err := NewMesh(c.L, c.q)
		if (err == nil) != c.ok {
			t.Errorf("NewMesh(%d, %v): err=%v, want ok=%v", c.L, c.q, err, c.ok)
		}
	}
}

func TestPointChargeAlternatesByColumn(t *testing.T) {
	m := MustMesh(6, 2.5)
	for i := 0; i < 6; i++ {
		want := 2.5
		if i%2 == 1 {
			want = -2.5
		}
		for j := 0; j < 6; j++ {
			if got := m.PointCharge(i, j); got != want {
				t.Errorf("charge(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestPointChargePeriodicConsistency(t *testing.T) {
	m := MustMesh(8, 1)
	for i := -16; i < 16; i++ {
		if m.PointCharge(i, 0) != m.PointCharge(i+8, 3) {
			t.Errorf("charge not periodic at i=%d", i)
		}
	}
	// Even L guarantees the parity pattern survives the wrap.
	if m.PointCharge(-1, 0) != m.PointCharge(7, 0) {
		t.Error("wrap parity broken")
	}
}

func TestWrapCoord(t *testing.T) {
	m := MustMesh(4, 1)
	cases := map[float64]float64{
		0: 0, 3.5: 3.5, 4: 0, 4.5: 0.5, -0.5: 3.5, -4: 0, 8.25: 0.25, -8.5: 3.5,
	}
	for in, want := range cases {
		if got := m.WrapCoord(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("WrapCoord(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestWrapCoordProperty(t *testing.T) {
	m := MustMesh(10, 1)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		w := m.WrapCoord(x)
		return w >= 0 && w < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapIndexProperty(t *testing.T) {
	f := func(i int16, n uint8) bool {
		if n == 0 {
			return true
		}
		w := WrapIndex(int(i), int(n))
		return w >= 0 && w < int(n) && (w-int(i))%int(n) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellOf(t *testing.T) {
	m := MustMesh(4, 1)
	cases := []struct {
		x, y   float64
		cx, cy int
	}{
		{0.5, 0.5, 0, 0}, {3.999, 0, 3, 0}, {0, 3.5, 0, 3}, {2, 2, 2, 2},
	}
	for _, c := range cases {
		cx, cy := m.CellOf(c.x, c.y)
		if cx != c.cx || cy != c.cy {
			t.Errorf("CellOf(%v,%v) = (%d,%d), want (%d,%d)", c.x, c.y, cx, cy, c.cx, c.cy)
		}
	}
}

func TestColumnSign(t *testing.T) {
	m := MustMesh(6, 1)
	for i := -6; i < 12; i++ {
		want := 1
		if WrapIndex(i, 6)%2 == 1 {
			want = -1
		}
		if got := m.ColumnSign(i); got != want {
			t.Errorf("ColumnSign(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestBlockMatchesMesh(t *testing.T) {
	m := MustMesh(10, 1.5)
	b, err := NewBlock(m, 3, 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := 4; j <= 8; j++ { // ghost ring included
		for i := 2; i <= 7; i++ {
			if got, want := b.Charge(i, j), m.PointCharge(i, j); got != want {
				t.Errorf("block charge(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestBlockAtPeriodicSeam(t *testing.T) {
	m := MustMesh(8, 1)
	// Block owning the last two columns: its right ghost is column 8 == 0.
	b, err := NewBlock(m, 6, 0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Charge(8, 3), m.PointCharge(0, 3); got != want {
		t.Errorf("seam ghost charge = %v, want %v", got, want)
	}
	if got, want := b.Charge(5, 0), m.PointCharge(5, 0); got != want {
		t.Errorf("left ghost charge = %v, want %v", got, want)
	}
	// A block starting at 0 asked for ghost column -1 == 7.
	b2, err := NewBlock(m, 0, 0, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b2.Charge(-1, 2), m.PointCharge(7, 2); got != want {
		t.Errorf("wrapped left ghost = %v, want %v", got, want)
	}
}

// A block owns a cell when the cell's one-point rectangle checks against
// it; ownership runs across the periodic seam.
func TestBlockOwnsCell(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 6, 2, 3, 4) // wraps: owns columns 6,7,0
	cases := []struct {
		cx, cy int
		own    bool
	}{
		{6, 2, true}, {7, 5, true}, {0, 3, true}, {1, 3, false},
		{6, 6, false}, {5, 2, false}, {0, 1, false},
	}
	for _, c := range cases {
		err := b.CheckRect([]float64{m.PointCharge(c.cx, c.cy)}, c.cx, c.cy, 1, 1)
		if got := err == nil; got != c.own {
			t.Errorf("owns (%d,%d) = %v, want %v (%v)", c.cx, c.cy, got, c.own, err)
		}
	}
}

func TestBlockChargeOutsidePanics(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 2, 2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-ghost access")
		}
	}()
	b.Charge(6, 2)
}

// A block cedes its two rightmost columns to a neighbour that grows over
// them: the neighbour re-materializes for its new rectangle and checks the
// ceded columns against it.
func TestExtractAndResize(t *testing.T) {
	m := MustMesh(12, 1)
	b, err := NewBlock(m, 2, 0, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	cols := b.AppendRect(nil, 6, 0, 2, 12)
	if len(cols) != 2*12 {
		t.Fatalf("appended %d values", len(cols))
	}
	// The neighbour previously owned [8,12) and grows to [6,12).
	nb, err := NewBlock(m, 8, 0, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.Reinit(m, 6, 0, 6, 12); err != nil {
		t.Fatal(err)
	}
	if err := nb.CheckRect(cols, 6, 0, 2, 12); err != nil {
		t.Fatal(err)
	}
	if nb.X0 != 6 || nb.NX != 6 {
		t.Fatalf("resize gave X0=%d NX=%d", nb.X0, nb.NX)
	}
	if got, want := nb.Charge(6, 4), m.PointCharge(6, 4); got != want {
		t.Errorf("post-resize charge = %v, want %v", got, want)
	}
}

func TestResizeRejectsCorruptedData(t *testing.T) {
	m := MustMesh(12, 1)
	b, _ := NewBlock(m, 2, 0, 6, 12)
	cols := b.AppendRect(nil, 6, 0, 2, 12)
	cols[5] = 42 // corrupt one charge in transit
	nb, _ := NewBlock(m, 6, 0, 6, 12)
	if err := nb.CheckRect(cols, 6, 0, 2, 12); err == nil {
		t.Error("expected corrupted migration data to be rejected")
	}
}

func TestResizeErrors(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 4)
	if err := b.Reinit(m, 0, 0, 0, 4); err == nil {
		t.Error("zero-width resize accepted")
	}
	if err := b.Reinit(m, 0, 0, 9, 4); err == nil {
		t.Error("resize wider than the domain accepted")
	}
	if err := b.ReinitFromData(m, 0, 0, 4, 4, make([]float64, 7)); err == nil {
		t.Error("ragged incoming data accepted")
	}
	if err := b.CheckRect(make([]float64, 4), 6, 0, 1, 4); err == nil {
		t.Error("incoming column outside block accepted")
	}
}

// Column bands not wholly owned are errors to CheckRect; AppendRect, whose
// caller derives the band from its own decomposition, panics on them.
func TestExtractColumnsValidation(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 8)
	for _, r := range [][4]int{
		{-1, 0, 1, 8}, // negative start
		{3, 0, 2, 8},  // overrun
		{0, 0, 0, 8},  // zero width
	} {
		if err := b.CheckRect(nil, r[0], r[1], r[2], r[3]); err == nil {
			t.Errorf("column band %v accepted by block [0,4)x[0,8)", r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRect of columns the block does not own did not panic")
		}
	}()
	b.AppendRect(nil, 3, 0, 2, 8)
}

func TestNewBlockValidation(t *testing.T) {
	m := MustMesh(8, 1)
	if _, err := NewBlock(m, 0, 0, 0, 4); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewBlock(m, 0, 0, 9, 4); err == nil {
		t.Error("oversized block accepted")
	}
}

// wrapCoordMod is WrapCoord as it stood before the in-domain shortcut: the
// reference the shortcut, and Wrap, must equal bit for bit.
func wrapCoordMod(m Mesh, x float64) float64 {
	L := float64(m.L)
	x = math.Mod(x, L)
	if x < 0 {
		x += L
	}
	if x >= L {
		x -= L
	}
	return x
}

func checkWrapCoordBitwise(t *testing.T, m Mesh, x float64) {
	t.Helper()
	want := wrapCoordMod(m, x)
	for _, got := range []float64{m.WrapCoord(x), Wrap(x, float64(m.L))} {
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("L=%d: WrapCoord/Wrap(%v [%#x]) = %v [%#x], math.Mod form gives %v [%#x]",
				m.L, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestWrapCoordMatchesModBitwise pins the shortcut on the edge values — the
// signed zeros, both domain edges and their neighbours one ulp away,
// multiples of L, huge magnitudes, non-finite input — and on a sweep.
func TestWrapCoordMatchesModBitwise(t *testing.T) {
	for _, L := range []int{2, 10, 64, 512} {
		m := MustMesh(L, 1)
		fl := float64(L)
		for _, x := range []float64{
			math.Copysign(0, -1), 0, fl, math.Nextafter(fl, 0), math.Nextafter(fl, 2*fl),
			math.Nextafter(0, -1), math.Nextafter(0, 1), -fl, 2 * fl, -2 * fl, 0.5, fl - 0.5,
			1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			math.Inf(1), math.Inf(-1), math.NaN(),
			// The edges of wrapOutside's division-free band, ±L and ±2L,
			// each with both neighbours (−L is where −0 must survive).
			math.Nextafter(-fl, 0), math.Nextafter(-fl, -2*fl),
			math.Nextafter(2*fl, 0), math.Nextafter(2*fl, 3*fl),
			math.Nextafter(-2*fl, 0), math.Nextafter(-2*fl, -3*fl),
		} {
			checkWrapCoordBitwise(t, m, x)
		}
		rng := rand.New(rand.NewSource(int64(L)))
		for i := 0; i < 20000; i++ {
			checkWrapCoordBitwise(t, m, (rng.Float64()*6-3)*fl)
			checkWrapCoordBitwise(t, m, math.Float64frombits(rng.Uint64()))
		}
	}
}

// FuzzWrapCoord extends the bitwise pin to whatever bit patterns the fuzzer
// finds; `go test` runs the seed corpus.
func FuzzWrapCoord(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 64, -64, 63.99999999999999, -5e-324, 128, 1e300, -1e300} {
		f.Add(x, 64)
	}
	f.Fuzz(func(t *testing.T, x float64, L int) {
		if L <= 0 || L%2 != 0 || L > 1<<20 {
			return
		}
		checkWrapCoordBitwise(t, MustMesh(L, 1), x)
	})
}
