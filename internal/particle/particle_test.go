package particle

import "testing"

func TestExpectedAt(t *testing.T) {
	p := Particle{X0: 2.5, Y0: 3.5, K: 0, M: 1, Dir: 1}
	x, y := p.ExpectedAt(3, 8)
	if x != 5.5 || y != 6.5 {
		t.Errorf("got (%v,%v), want (5.5,6.5)", x, y)
	}
	// Wraps periodically.
	x, y = p.ExpectedAt(7, 8)
	if x != 1.5 || y != 2.5 {
		t.Errorf("wrap: got (%v,%v), want (1.5,2.5)", x, y)
	}
	// K>1 and negative direction.
	p = Particle{X0: 4.5, Y0: 0.5, K: 1, M: -1, Dir: -1}
	x, y = p.ExpectedAt(1, 8)
	if x != 1.5 || y != 7.5 {
		t.Errorf("k/dir: got (%v,%v), want (1.5,7.5)", x, y)
	}
}

func TestExpectedAtZeroSteps(t *testing.T) {
	p := Particle{X0: 2.5, Y0: 3.5, K: 2, M: 5, Dir: 1}
	x, y := p.ExpectedAt(0, 8)
	if x != 2.5 || y != 3.5 {
		t.Errorf("s=0 must return the initial position, got (%v,%v)", x, y)
	}
}
