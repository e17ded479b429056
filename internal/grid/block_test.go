package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMeshAccessors(t *testing.T) {
	m := MustMesh(12, 1.5)
	if m.Size() != 12 {
		t.Errorf("Size = %v", m.Size())
	}
	if m.Cells() != 144 {
		t.Errorf("Cells = %v", m.Cells())
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMesh accepted odd L")
		}
	}()
	MustMesh(7, 1)
}

func TestBlockAccessors(t *testing.T) {
	m := MustMesh(8, 1)
	b, err := NewBlock(m, 2, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mesh() != m {
		t.Error("Mesh accessor wrong")
	}
}

// A row band of one block, appended row-major, checks against a block that
// owns the same rows next; corruption in transit is refused.
func TestExtractRowsRoundtrip(t *testing.T) {
	m := MustMesh(12, 1)
	b, err := NewBlock(m, 2, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	rows := b.AppendRect(nil, 2, 5, 5, 3)
	if len(rows) != 3*5 {
		t.Fatalf("appended %d values", len(rows))
	}
	for k := 0; k < 3; k++ {
		for gi := 0; gi < 5; gi++ {
			if rows[k*5+gi] != m.PointCharge(2+gi, 5+k) {
				t.Fatalf("row data wrong at (%d,%d)", gi, k)
			}
		}
	}
	nb, err := NewBlock(m, 2, 5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.CheckRect(rows, 2, 5, 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := nb.CheckRect(rows[1:], 2, 5, 5, 3); err == nil {
		t.Error("short rows accepted")
	}
	rows[7] = 99
	if err := nb.CheckRect(rows, 2, 5, 5, 3); err == nil {
		t.Error("corrupted rows accepted")
	}
}

func TestExtractRowsValidation(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 4)
	for _, r := range [][4]int{
		{0, -1, 4, 1}, // negative start
		{0, 3, 4, 2},  // overrun
		{0, 0, 4, 0},  // zero height
	} {
		if err := b.CheckRect(nil, r[0], r[1], r[2], r[3]); err == nil {
			t.Errorf("row band %v accepted by block [0,4)x[0,4)", r)
		}
	}
}

// Rectangles that are not wholly owned, empty, outside the domain or too
// large to multiply out are refused before any data is looked at, and data
// of the wrong length is refused.
func TestValidateRowsOutsideBlock(t *testing.T) {
	m := MustMesh(12, 1)
	b, _ := NewBlock(m, 0, 0, 4, 2)
	for _, r := range [][4]int{
		{0, 5, 4, 1}, {0, 2, 4, 1}, {3, 0, 2, 1}, {11, 0, 2, 1}, {0, 0, 0, 1}, {0, 0, 1, -1},
		{-1, 0, 1, 1}, {12, 0, 1, 1}, {0, 0, 1 << 62, 1 << 62},
	} {
		if err := b.CheckRect(make([]float64, 4), r[0], r[1], r[2], r[3]); err == nil {
			t.Errorf("rectangle %v accepted by block [0,4)x[0,2)", r)
		}
	}
	if err := b.CheckRect(make([]float64, 5), 0, 0, 4, 1); err == nil {
		t.Error("ragged row data accepted")
	}
}

// A column band checks against the block that owns those columns next,
// also when the band and the block run across the periodic seam.
func TestValidateColumnsDirect(t *testing.T) {
	m := MustMesh(10, 1)
	src, _ := NewBlock(m, 2, 0, 4, 10)
	cols := src.AppendRect(nil, 4, 0, 2, 10)
	dst, _ := NewBlock(m, 4, 0, 4, 10)
	if err := dst.CheckRect(cols, 4, 0, 2, 10); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckRect(cols, 0, 0, 2, 10); err == nil {
		t.Error("columns outside block accepted")
	}
	if err := dst.CheckRect(make([]float64, 7), 4, 0, 2, 10); err == nil {
		t.Error("ragged column data accepted")
	}
	cols[3] = -42
	if err := dst.CheckRect(cols, 4, 0, 2, 10); err == nil {
		t.Error("corrupted columns accepted")
	}

	src, _ = NewBlock(m, 8, 3, 5, 6) // owns columns 8,9,0,1,2
	seam := src.AppendRect(nil, 9, 3, 3, 6)
	for k := 0; k < 6; k++ {
		for i := 0; i < 3; i++ {
			if seam[k*3+i] != m.PointCharge(9+i, 3+k) {
				t.Fatalf("seam column data wrong at (%d,%d)", i, k)
			}
		}
	}
	dst, _ = NewBlock(m, 9, 0, 4, 10)
	if err := dst.CheckRect(seam, 9, 3, 3, 6); err != nil {
		t.Fatal(err)
	}
}

// A whole block across the periodic seam ships as one rectangle and
// rebuilds an identical block; AppendRect keeps what dst already held.
func TestOwnedDataRoundtrip(t *testing.T) {
	m := MustMesh(8, 2)
	b, _ := NewBlock(m, 6, 6, 3, 3) // wraps the periodic seam
	data := b.AppendRect([]float64{-1}, 6, 6, 3, 3)
	if len(data) != 1+9 || data[0] != -1 {
		t.Fatalf("appended %v", data)
	}
	data = data[1:]
	var nb Block
	if err := nb.ReinitFromData(m, 6, 6, 3, 3, data); err != nil {
		t.Fatal(err)
	}
	for j := 6; j < 9; j++ {
		for i := 6; i < 9; i++ {
			if nb.Charge(i, j) != b.Charge(i, j) {
				t.Fatalf("rebuilt block differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewBlockFromDataRejectsCorruption(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 3, 3)
	data := b.AppendRect(nil, 0, 0, 3, 3)
	var nb Block
	if err := nb.ReinitFromData(m, 0, 0, 3, 3, data); err != nil {
		t.Fatal(err)
	}
	data[4] = 7
	if err := nb.ReinitFromData(m, 0, 0, 3, 3, data); err == nil {
		t.Error("corrupted block data accepted")
	}
	if err := nb.ReinitFromData(m, 0, 0, 3, 3, data[:5]); err == nil {
		t.Error("short block data accepted")
	}
	// 2^32 × 2^32 wraps to 0 values: no data for an unallocatable block.
	if err := nb.ReinitFromData(Mesh{L: 1 << 62, Q: 1}, 0, 0, 1<<32, 1<<32, nil); err == nil {
		t.Error("block dimensions whose product overflows accepted")
	}
}

func TestCellOfNegativeAndEdge(t *testing.T) {
	m := MustMesh(4, 1)
	cx, cy := m.CellOf(-0.5, 4.0)
	if cx != 3 || cy != 0 {
		t.Errorf("CellOf(-0.5, 4.0) = (%d,%d), want (3,0)", cx, cy)
	}
}

// BenchmarkCornerCharges reads the corner charges of a stream of cells from
// a 512×512 block (a 2 MB charge array): in cell order (column, then row,
// three particles a cell), the order a filled container holds its particles
// in, and the same cells shuffled, the order a container drawn at random
// would read them in. ns/op is per cell read.
func BenchmarkCornerCharges(b *testing.B) {
	const L, perCell = 512, 3
	blk, err := NewBlock(MustMesh(L, DefaultCharge), 0, 0, L, L)
	if err != nil {
		b.Fatal(err)
	}
	ordered := make([][2]int, 0, L*L*perCell)
	for cx := range L {
		for cy := range L {
			for range perCell {
				ordered = append(ordered, [2]int{cx, cy})
			}
		}
	}
	shuffled := slices.Clone(ordered)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name  string
		cells [][2]int
	}{{"cell-order", ordered}, {"shuffled", shuffled}} {
		b.Run(tc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				c := tc.cells[i%len(tc.cells)]
				q00, q10, q01, q11 := blk.CornerCharges(c[0], c[1])
				sum += q00 + q10 + q01 + q11
			}
			if math.IsNaN(sum) {
				b.Fatal("NaN charge")
			}
		})
	}
}
