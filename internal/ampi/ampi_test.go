package ampi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGreedyLBBalances(t *testing.T) {
	loads := []float64{100, 1, 1, 1, 50, 50, 2, 3}
	owner := []int{0, 0, 0, 0, 0, 0, 0, 0}
	newOwner := GreedyLB{}.Plan(loads, owner, 4)
	if len(newOwner) != 8 {
		t.Fatalf("plan length %d", len(newOwner))
	}
	// The heaviest VP must sit alone-ish: max core load should be 100.
	if m := MaxCoreLoad(loads, newOwner, 4); m != 100 {
		t.Errorf("greedy max core load %v, want 100", m)
	}
}

func TestGreedyLBDeterministicUnderTies(t *testing.T) {
	loads := []float64{5, 5, 5, 5, 5, 5}
	owner := make([]int, 6)
	a := GreedyLB{}.Plan(loads, owner, 3)
	b := GreedyLB{}.Plan(loads, owner, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy plan not deterministic")
		}
	}
}

func TestRefineLBImprovesWithoutFullReshuffle(t *testing.T) {
	// Core 0 hosts everything; refine should shed load but touch few VPs.
	n := 16
	loads := make([]float64, n)
	owner := make([]int, n)
	for i := range loads {
		loads[i] = float64(10 + i)
	}
	newOwner := RefineLB{}.Plan(loads, owner, 4)
	before := MaxCoreLoad(loads, owner, 4)
	after := MaxCoreLoad(loads, newOwner, 4)
	if after >= before {
		t.Fatalf("refine did not improve: %v -> %v", before, after)
	}
	var total float64
	for _, l := range loads {
		total += l
	}
	if after > total/4*1.3 {
		t.Errorf("refine max load %v far from ideal %v", after, total/4)
	}
}

func TestRefineLBKeepsBalancedPlacement(t *testing.T) {
	loads := []float64{10, 10, 10, 10}
	owner := []int{0, 1, 2, 3}
	newOwner := RefineLB{}.Plan(loads, owner, 4)
	if Moves(owner, newOwner) != 0 {
		t.Errorf("refine moved VPs in a perfectly balanced placement: %v", newOwner)
	}
}

func TestRefineLBRespectsMaxMoves(t *testing.T) {
	n := 32
	loads := make([]float64, n)
	owner := make([]int, n)
	for i := range loads {
		loads[i] = 1
	}
	newOwner := RefineLB{MaxMoves: 3}.Plan(loads, owner, 8)
	if m := Moves(owner, newOwner); m > 3 {
		t.Errorf("refine made %d moves, cap was 3", m)
	}
}

func TestRotateAndNull(t *testing.T) {
	owner := []int{0, 1, 2}
	if m := Moves(owner, (NullLB{}).Plan(nil, owner, 3)); m != 0 {
		t.Errorf("null moved %d", m)
	}
	rot := (RotateLB{}).Plan(nil, owner, 3)
	want := []int{1, 2, 0}
	for i := range rot {
		if rot[i] != want[i] {
			t.Errorf("rotate = %v, want %v", rot, want)
		}
	}
}

func TestStrategiesProperty(t *testing.T) {
	// Every strategy must return a valid owner vector and (for greedy and
	// refine) never worsen the maximum core load.
	f := func(rawLoads []uint16, ncoresRaw uint8) bool {
		if len(rawLoads) == 0 {
			return true
		}
		ncores := int(ncoresRaw%7) + 1
		loads := make([]float64, len(rawLoads))
		owner := make([]int, len(rawLoads))
		for i, r := range rawLoads {
			loads[i] = float64(r % 1000)
			owner[i] = i % ncores
		}
		before := MaxCoreLoad(loads, owner, ncores)
		var total, maxItem float64
		for _, l := range loads {
			total += l
			if l > maxItem {
				maxItem = l
			}
		}
		// List-scheduling guarantee: when the last VP lands on the least
		// loaded core, that core held at most the average, so the makespan
		// is bounded by avg + maxItem. (The tighter 4/3·OPT bound needs the
		// NP-hard OPT.)
		bound := total/float64(ncores) + maxItem
		h := (&HintedGreedyLB{}).WithTopology(GridNeighbors(len(loads), 1), 2)
		for _, s := range []Strategy{NullLB{}, RotateLB{}, GreedyLB{}, RefineLB{}, WorkStealLB{}, h} {
			got := s.Plan(loads, owner, ncores)
			if len(got) != len(owner) {
				return false
			}
			for _, c := range got {
				if c < 0 || c >= ncores {
					return false
				}
			}
			switch s.(type) {
			case RefineLB, WorkStealLB:
				// Incremental strategies never worsen the maximum.
				if MaxCoreLoad(loads, got, ncores) > before+1e-9 {
					return false
				}
			case GreedyLB:
				if MaxCoreLoad(loads, got, ncores) > bound+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockPlacement(t *testing.T) {
	place, err := BlockPlacement(8, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// VP grid 8x4 on core grid 4x2: blocks of 2x2 VPs per core.
	counts := map[int]int{}
	for vp := 0; vp < 32; vp++ {
		counts[place(vp)]++
	}
	if len(counts) != 8 {
		t.Fatalf("placement uses %d cores", len(counts))
	}
	for c, n := range counts {
		if n != 4 {
			t.Errorf("core %d hosts %d VPs", c, n)
		}
	}
	// Compactness: VPs 0,1 (adjacent in x) share a core; 0 and 2 do not.
	if place(0) != place(1) || place(0) == place(2) {
		t.Errorf("placement not blocked: %d %d %d", place(0), place(1), place(2))
	}
	if _, err := BlockPlacement(7, 4, 4, 2); err == nil {
		t.Error("indivisible grid accepted")
	}
}

func TestMaxCoreLoadAndMoves(t *testing.T) {
	loads := []float64{1, 2, 3}
	owner := []int{0, 0, 1}
	if m := MaxCoreLoad(loads, owner, 2); m != 3 {
		t.Errorf("MaxCoreLoad = %v", m)
	}
	if m := Moves([]int{0, 1, 2}, []int{0, 2, 2}); m != 1 {
		t.Errorf("Moves = %d", m)
	}
}

func TestRefineHalvesGap(t *testing.T) {
	// Two cores, gap 100, one VP of load 50 on the heavy core: refine
	// should move exactly that VP and equalize.
	loads := []float64{50, 25, 25, 50}
	owner := []int{0, 0, 0, 1}
	newOwner := RefineLB{}.Plan(loads, owner, 2)
	after := MaxCoreLoad(loads, newOwner, 2)
	if math.Abs(after-75) > 1e-9 {
		t.Errorf("refine max %v, want 75", after)
	}
	if Moves(owner, newOwner) > 2 {
		t.Errorf("refine used %d moves", Moves(owner, newOwner))
	}
}
