package decomp

import (
	"testing"
	"testing/quick"
)

func TestUniformBounds(t *testing.T) {
	b, err := NewUniformBounds(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(10); err != nil {
		t.Fatal(err)
	}
	if b.N() != 3 || b.L() != 10 {
		t.Fatalf("N=%d L=%d", b.N(), b.L())
	}
	total := 0
	for i := 0; i < 3; i++ {
		w := b.Width(i)
		if w < 3 || w > 4 {
			t.Errorf("block %d width %d", i, w)
		}
		total += w
	}
	if total != 10 {
		t.Errorf("widths sum to %d", total)
	}
}

func TestUniformBoundsErrors(t *testing.T) {
	if _, err := NewUniformBounds(4, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewUniformBounds(3, 4); err == nil {
		t.Error("more blocks than cells accepted")
	}
}

func TestOwnerExhaustive(t *testing.T) {
	b := MustUniformBounds(100, 7)
	for cell := 0; cell < 100; cell++ {
		o := b.Owner(cell)
		if cell < b.Lo(o) || cell >= b.Hi(o) {
			t.Fatalf("cell %d assigned to block %d [%d,%d)", cell, o, b.Lo(o), b.Hi(o))
		}
	}
}

func TestOwnerProperty(t *testing.T) {
	f := func(Lr, nr uint8, cellr uint16) bool {
		L := int(Lr%200) + 1
		n := int(nr)%L + 1
		b := MustUniformBounds(L, n)
		cell := int(cellr) % L
		o := b.Owner(cell)
		return o >= 0 && o < n && cell >= b.Lo(o) && cell < b.Hi(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	b := MustUniformBounds(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Owner(10)
}

func TestBoundsValidate(t *testing.T) {
	bad := []Bounds{
		{Cuts: []int{0}},
		{Cuts: []int{1, 10}},
		{Cuts: []int{0, 9}},
		{Cuts: []int{0, 5, 5, 10}},
		{Cuts: []int{0, 6, 5, 10}},
	}
	for i, b := range bad {
		if err := b.Validate(10); err == nil {
			t.Errorf("bad bounds %d accepted", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := MustUniformBounds(10, 2)
	c := b.Clone()
	c.Cuts[1] = 7
	if b.Cuts[1] == 7 {
		t.Error("clone shares backing array")
	}
	if !b.Equal(b.Clone()) || b.Equal(c) {
		t.Error("Equal misbehaves")
	}
}

func TestGrid2D(t *testing.T) {
	g, err := NewUniform2D(12, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(12); err != nil {
		t.Fatal(err)
	}
	// Ranks are numbered row by row, x fastest: rank = py*PX + px.
	if g.Rank(2, 1) != 6 {
		t.Errorf("Rank(2,1) = %d", g.Rank(2, 1))
	}
	px, py := g.Coords(6)
	if px != 2 || py != 1 {
		t.Errorf("Coords(6) = (%d,%d)", px, py)
	}
	// Every cell owned by exactly the rank whose rect contains it.
	for cy := 0; cy < 12; cy++ {
		for cx := 0; cx < 12; cx++ {
			r := g.OwnerOfCell(cx, cy)
			x0, y0, nx, ny := g.RankRect(r)
			if cx < x0 || cx >= x0+nx || cy < y0 || cy >= y0+ny {
				t.Fatalf("cell (%d,%d) owner %d rect (%d,%d,%d,%d)", cx, cy, r, x0, y0, nx, ny)
			}
		}
	}
	// Rects tile the domain.
	area := 0
	for r := 0; r < 12; r++ {
		_, _, nx, ny := g.RankRect(r)
		area += nx * ny
	}
	if area != 144 {
		t.Errorf("rects cover %d cells", area)
	}
}

func TestGrid2DCloneEqual(t *testing.T) {
	g, _ := NewUniform2D(12, 4, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone not equal")
	}
	c.X.Cuts[1] = 2
	if g.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if g.X.Cuts[1] == 2 {
		t.Error("clone shares cuts")
	}
}

func TestGrid2DValidateMismatch(t *testing.T) {
	g, _ := NewUniform2D(12, 4, 3)
	g.PX = 5
	if err := g.Validate(12); err == nil {
		t.Error("inconsistent grid accepted")
	}
}
