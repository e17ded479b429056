package pup

import "testing"

// FuzzUnpack feeds arbitrary bytes to a PUP unpacker over a struct with
// every primitive: it must never panic or allocate absurd amounts.
func FuzzUnpack(f *testing.F) {
	good, _ := Pack(&demo{F: []float64{1, 2}, G: "seed", Sub: []pair{{1, 2}}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	for _, b := range overflowingLengths() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d demo
		if err := Unpack(&d, data); err != nil {
			return
		}
		// Anything accepted must re-pack without error.
		if _, err := Pack(&d); err != nil {
			t.Fatalf("accepted value failed to re-pack: %v", err)
		}
	})
}
