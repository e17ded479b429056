package memtest

import "testing"

var sink []byte

func TestLeastMeasuresTheCall(t *testing.T) {
	arms := 0
	got := Least(1<<30, func() { arms++; sink = make([]byte, 1<<20) }, func() { sink = make([]byte, 64<<10) })
	if got < 64<<10 || got >= 1<<20 {
		t.Fatalf("Least = %d, want the call's 64 KB and not the arm's 1 MB", got)
	}
	if arms != 1 {
		t.Fatalf("armed %d times for a call within limit, want 1", arms)
	}
	calls := 0
	if got := Least(0, nil, func() { calls++; sink = make([]byte, 4096) }); got < 4096 || calls != 3 {
		t.Fatalf("over limit: %d bytes after %d calls, want ≥ 4096 after 3", got, calls)
	}
}
