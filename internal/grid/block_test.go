package grid

import (
	"strings"
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
	if m.Charge(3, 5) != m.PointCharge(3, 5) {
		t.Error("Charge alias disagrees with PointCharge")
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
	if b.Bytes() != 8*(3+2)*(4+2) {
		t.Errorf("Bytes = %d", b.Bytes())
	}
}

func TestExtractRowsRoundtrip(t *testing.T) {
	m := MustMesh(12, 1)
	b, err := NewBlock(m, 2, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := b.ExtractRows(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*5 {
		t.Fatalf("extracted %d values", len(rows))
	}
	for k := 0; k < 3; k++ {
		for gi := 0; gi < 5; gi++ {
			if rows[k*5+gi] != m.PointCharge(2+gi, 4+1+k) {
				t.Fatalf("row data wrong at (%d,%d)", gi, k)
			}
		}
	}
	// A neighbor block that owns the same rows validates them.
	nb, err := NewBlock(m, 2, 5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.ValidateRows(rows, 5); err != nil {
		t.Fatal(err)
	}
	// Corruption is rejected.
	rows[7] = 99
	if err := nb.ValidateRows(rows, 5); err == nil {
		t.Error("corrupted rows accepted")
	}
	if err := nb.ValidateRows(nil, 5); err != nil {
		t.Errorf("empty rows rejected: %v", err)
	}
}

func TestExtractRowsValidation(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 4)
	if _, err := b.ExtractRows(-1, 1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := b.ExtractRows(3, 2); err == nil {
		t.Error("overrun accepted")
	}
	if _, err := b.ExtractRows(0, 0); err == nil {
		t.Error("zero height accepted")
	}
}

func TestValidateRowsOutsideBlock(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 2)
	rows := make([]float64, 4)
	if err := b.ValidateRows(rows, 5); err == nil {
		t.Error("row outside block accepted")
	}
	// Ragged length.
	if err := b.ValidateRows(make([]float64, 5), 0); err == nil {
		t.Error("ragged row data accepted")
	}
}

func TestValidateColumnsDirect(t *testing.T) {
	m := MustMesh(10, 1)
	src, _ := NewBlock(m, 2, 0, 4, 10)
	cols, err := src.ExtractColumns(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewBlock(m, 4, 0, 4, 10)
	if err := dst.ValidateColumns(cols, 4); err != nil {
		t.Fatal(err)
	}
	cols[3] = -42
	if err := dst.ValidateColumns(cols, 4); err == nil {
		t.Error("corrupted columns accepted")
	}
	if err := dst.ValidateColumns(make([]float64, 10), 0); err == nil {
		t.Error("columns outside block accepted")
	}
	if err := dst.ValidateColumns(make([]float64, 7), 4); err == nil {
		t.Error("ragged column data accepted")
	}
	if err := dst.ValidateColumns(nil, 4); err != nil {
		t.Errorf("empty columns rejected: %v", err)
	}
}

func TestOwnedDataRoundtrip(t *testing.T) {
	m := MustMesh(8, 2)
	b, _ := NewBlock(m, 6, 6, 3, 3) // wraps the periodic seam
	data := b.OwnedData()
	if len(data) != 9 {
		t.Fatalf("owned data %d values", len(data))
	}
	nb, err := NewBlockFromData(m, 6, 6, 3, 3, data)
	if err != nil {
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
	data := b.OwnedData()
	data[4] = 7
	if _, err := NewBlockFromData(m, 0, 0, 3, 3, data); err == nil {
		t.Error("corrupted block data accepted")
	}
	if _, err := NewBlockFromData(m, 0, 0, 3, 3, data[:5]); err == nil {
		t.Error("short block data accepted")
	}
	// 2^32 × 2^32 wraps to 0 values: no data for an unallocatable block.
	if _, err := NewBlockFromData(Mesh{L: 1 << 62, Q: 1}, 0, 0, 1<<32, 1<<32, nil); err == nil {
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

func TestResizeErrors(t *testing.T) {
	m := MustMesh(8, 1)
	b, _ := NewBlock(m, 0, 0, 4, 4)
	if err := b.Resize(0, 0, 0, 4, nil, 0); err == nil {
		t.Error("zero-width resize accepted")
	}
	if err := b.Resize(0, 0, 4, 4, make([]float64, 7), 0); err == nil ||
		!strings.Contains(err.Error(), "divisible") {
		t.Error("ragged incoming data accepted")
	}
	if err := b.Resize(0, 0, 4, 4, make([]float64, 4), 6); err == nil {
		t.Error("incoming column outside new block accepted")
	}
}
