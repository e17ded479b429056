package trace

import (
	"testing"
	"time"

	"github.com/parres/picprk/internal/telemetry"
)

func TestTimeAccumulates(t *testing.T) {
	var r Recorder
	r.Time(telemetry.Compute, func() { time.Sleep(2 * time.Millisecond) })
	r.Time(telemetry.Compute, func() { time.Sleep(2 * time.Millisecond) })
	if r.Get(telemetry.Compute) < 4*time.Millisecond {
		t.Errorf("compute time %v", r.Get(telemetry.Compute))
	}
	if r.Get(telemetry.Exchange) != 0 {
		t.Errorf("exchange should be zero, got %v", r.Get(telemetry.Exchange))
	}
}

func TestAddAndGet(t *testing.T) {
	var r Recorder
	r.Add(telemetry.Compute, time.Second)
	r.Add(telemetry.Exchange, 2*time.Second)
	r.Add(telemetry.Balance, 3*time.Second)
	r.Add(telemetry.Migrate, 4*time.Second)
	if r.Get(telemetry.Compute) != time.Second || r.Get(telemetry.Exchange) != 2*time.Second ||
		r.Get(telemetry.Balance) != 3*time.Second || r.Get(telemetry.Migrate) != 4*time.Second ||
		r.Get(telemetry.Particles) != 0 {
		t.Errorf("rows %v %v %v %v %v", r.Get(telemetry.Compute), r.Get(telemetry.Exchange),
			r.Get(telemetry.Balance), r.Get(telemetry.Migrate), r.Get(telemetry.Particles))
	}
}

func TestObserveParticles(t *testing.T) {
	var r Recorder
	r.ObserveParticles(10)
	r.ObserveParticles(5)
	r.ObserveParticles(20)
	r.ObserveParticles(15)
	if r.MaxParticles != 20 {
		t.Errorf("high water %d", r.MaxParticles)
	}
}
