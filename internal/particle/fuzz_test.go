package particle

import "testing"

// FuzzDecode feeds arbitrary bytes to the KindParticles payload decoder —
// the one a socket reaches: it must never panic, and any buffer it accepts
// must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(encode(f, []Particle{{ID: 1, X: 0.5, Y: 0.5, Q: -0.35, X0: 0.5, Y0: 0.5, Dir: 1}}))
	f.Add([]byte{})
	f.Add(make([]byte, 8+wireSize-1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := decode(data)
		if err != nil {
			return
		}
		if got := encode(t, ps); string(got) != string(data) {
			t.Fatalf("accepted buffer does not round-trip")
		}
	})
}
