package ampi

import (
	"testing"
)

func TestGridNeighbors(t *testing.T) {
	nbs := GridNeighbors(4, 3)
	if len(nbs) != 12 {
		t.Fatalf("%d entries", len(nbs))
	}
	// VP 5 = (1,1): neighbors (2,1)=6, (0,1)=4, (1,2)=9, (1,0)=1.
	want := map[int]bool{6: true, 4: true, 9: true, 1: true}
	for _, nb := range nbs[5] {
		if !want[nb] {
			t.Errorf("unexpected neighbor %d of VP 5", nb)
		}
		delete(want, nb)
	}
	if len(want) != 0 {
		t.Errorf("missing neighbors %v", want)
	}
	// Periodic wrap: VP 0 = (0,0) has left neighbor (3,0)=3 and down (0,2)=8.
	hasWrap := false
	for _, nb := range nbs[0] {
		if nb == 3 || nb == 8 {
			hasWrap = true
		}
	}
	if !hasWrap {
		t.Error("periodic wrap missing")
	}
}

func TestFragmentationExtremes(t *testing.T) {
	nbs := GridNeighbors(8, 4)
	// Block placement on a 4-core, 1-node-per-2-cores machine: compact.
	place, err := BlockPlacement(8, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, 32)
	for vp := range owner {
		owner[vp] = place(vp)
	}
	compact := Fragmentation(nbs, owner, 2, 4)
	// Round-robin placement: maximally scattered.
	scattered := make([]int, 32)
	for vp := range scattered {
		scattered[vp] = vp % 4
	}
	frag := Fragmentation(nbs, scattered, 2, 4)
	if compact >= frag {
		t.Errorf("compact %v not below scattered %v", compact, frag)
	}
	if compact < 0 || frag > 1 {
		t.Errorf("fragmentation out of range: %v %v", compact, frag)
	}
	// Everything on one node: zero.
	same := make([]int, 32)
	if f := Fragmentation(nbs, same, 2, 4); f != 0 {
		t.Errorf("single-node fragmentation %v", f)
	}
}

func TestHintedGreedyBalancesLikeGreedy(t *testing.T) {
	loads := make([]float64, 64)
	owner := make([]int, 64)
	for i := range loads {
		loads[i] = float64(1 + i%7)
		owner[i] = i % 8
	}
	h := (&HintedGreedyLB{}).WithTopology(GridNeighbors(8, 8), 4)
	got := h.Plan(loads, owner, 8)
	if len(got) != 64 {
		t.Fatalf("plan length %d", len(got))
	}
	greedy := GreedyLB{}.Plan(loads, owner, 8)
	hMax := MaxCoreLoad(loads, got, 8)
	gMax := MaxCoreLoad(loads, greedy, 8)
	// Within the slack band of the greedy optimum.
	if hMax > gMax*1.15 {
		t.Errorf("hinted max load %v too far above greedy %v", hMax, gMax)
	}
}

func TestHintedGreedyReducesFragmentation(t *testing.T) {
	// A skewed load on a 16x8 VP grid over 16 cores (4 nodes of 4): hinted
	// placement must fragment the domain less than plain greedy at similar
	// balance.
	const vx, vy, ncores, cpn = 16, 8, 16, 4
	nbs := GridNeighbors(vx, vy)
	loads := make([]float64, vx*vy)
	owner := make([]int, vx*vy)
	place, err := BlockPlacement(vx, vy, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for vp := range loads {
		loads[vp] = float64(1 + (vp%vx)*(vp%vx)) // skewed in x
		owner[vp] = place(vp)
	}
	h := (&HintedGreedyLB{}).WithTopology(nbs, cpn)
	hinted := h.Plan(loads, owner, ncores)
	greedy := GreedyLB{}.Plan(loads, owner, ncores)

	fh := Fragmentation(nbs, hinted, cpn, ncores)
	fg := Fragmentation(nbs, greedy, cpn, ncores)
	if fh >= fg {
		t.Errorf("hinted fragmentation %.3f not below greedy %.3f", fh, fg)
	}
	// And balance stays comparable.
	if MaxCoreLoad(loads, hinted, ncores) > MaxCoreLoad(loads, greedy, ncores)*1.2 {
		t.Errorf("hinted sacrificed too much balance")
	}
}

func TestHintedGreedyDeterministic(t *testing.T) {
	loads := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	owner := make([]int, 8)
	h1 := (&HintedGreedyLB{}).WithTopology(GridNeighbors(4, 2), 2)
	h2 := (&HintedGreedyLB{}).WithTopology(GridNeighbors(4, 2), 2)
	a := h1.Plan(loads, owner, 4)
	b := h2.Plan(loads, owner, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestHintedGreedyWithoutTopology(t *testing.T) {
	// Without WithTopology the strategy must still produce a valid plan.
	h := &HintedGreedyLB{}
	loads := []float64{3, 1, 4, 1, 5}
	got := h.Plan(loads, make([]int, 5), 2)
	for _, c := range got {
		if c < 0 || c >= 2 {
			t.Fatalf("invalid core %d", c)
		}
	}
}
