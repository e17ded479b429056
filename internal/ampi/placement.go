package ampi

import "fmt"

// BlockPlacement returns an initial VP placement that keeps each core's
// subdomains compact: VPs laid out on a vx×vy grid are assigned to cores on
// a px×py grid by spatial blocks, matching the paper's assumption that "the
// initial assignment of VPs to cores is such that the corresponding
// underlying subdomains of cores are compact" (§V-B). vx must be a multiple
// of px and vy of py.
func BlockPlacement(vx, vy, px, py int) (func(vp int) int, error) {
	if vx%px != 0 || vy%py != 0 {
		return nil, fmt.Errorf("ampi: VP grid %dx%d not divisible by core grid %dx%d", vx, vy, px, py)
	}
	bx, by := vx/px, vy/py
	return func(vp int) int {
		gx, gy := vp%vx, vp/vx
		return (gy/by)*px + gx/bx
	}, nil
}
