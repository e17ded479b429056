package driver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/parres/picprk/internal/ampi"
)

// balanceLog runs an ampi engine with strategy s on p ranks and returns its
// decision log, failing the test on an empty one: an empty log compares
// equal to anything.
func balanceLog(t *testing.T, cfg Config, p int, s ampi.Strategy) []string {
	t.Helper()
	res, err := must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 5, Strategy: s})).Run(p)
	if err != nil {
		t.Fatalf("P=%d: %v", p, err)
	}
	if len(res.BalanceLog) == 0 {
		t.Fatalf("P=%d: the balancer never moved a VP; the comparison would be vacuous", p)
	}
	return res.BalanceLog
}

// TestAMPIEngineDefaultsToRefineLB pins where the ampi driver's default
// strategy lives: AMPIParams without a Strategy decides exactly as
// RefineLB, the paper's choice.
func TestAMPIEngineDefaultsToRefineLB(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 20)
	for _, p := range []int{2, 3} {
		if got, want := balanceLog(t, cfg, p, nil), balanceLog(t, cfg, p, ampi.RefineLB{}); !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: nil strategy logged\n%v\nRefineLB logged\n%v", p, got, want)
		}
	}
}

// TestAMPIEngineLeavesStrategyUnchanged gives one HintedGreedyLB value to
// engines of two world sizes. The topology hint of the second must not
// reach the first: the P = 4 run decides exactly as with a fresh value.
func TestAMPIEngineLeavesStrategyUnchanged(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 20)
	shared := &ampi.HintedGreedyLB{}
	small := must(NewAMPIEngine(4, cfg, AMPIParams{Overdecompose: 4, Every: 5, Strategy: shared}))
	must(NewAMPIEngine(16, cfg, AMPIParams{Overdecompose: 4, Every: 5, Strategy: shared}))
	res, err := small.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := balanceLog(t, cfg, 4, &ampi.HintedGreedyLB{}); !reflect.DeepEqual(res.BalanceLog, want) {
		t.Errorf("shared value logged\n%v\nfresh value logged\n%v", res.BalanceLog, want)
	}
	if !reflect.DeepEqual(shared, &ampi.HintedGreedyLB{}) {
		t.Errorf("the engines wrote into the caller's strategy: %+v", shared)
	}
}

// TestSharedHintedStrategyConcurrentEngines builds and runs the P = 4 and
// P = 16 engines at the same time from one HintedGreedyLB value; under the
// race detector it checks that no engine writes into the shared value, and
// each run decides exactly as with a fresh one.
func TestSharedHintedStrategyConcurrentEngines(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 20)
	sizes := []int{4, 16}
	want := make([][]string, len(sizes))
	for i, p := range sizes {
		want[i] = balanceLog(t, cfg, p, &ampi.HintedGreedyLB{})
	}
	shared := &ampi.HintedGreedyLB{}
	got := make([][]string, len(sizes))
	errs := make([]error, len(sizes))
	var wg sync.WaitGroup
	for i, p := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 5, Strategy: shared})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := eng.Run(p)
			if err != nil {
				errs[i] = fmt.Errorf("P=%d: %w", p, err)
				return
			}
			got[i] = res.BalanceLog
		}()
	}
	wg.Wait()
	for i, p := range sizes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("P=%d: shared value logged\n%v\nfresh value logged\n%v", p, got[i], want[i])
		}
	}
}
