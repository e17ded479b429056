package core

// forceLanes is force for an even n, two particles per packed SSE2
// instruction (force_amd64.s). Each lane performs forceQQ's IEEE
// operations in forceQQ's order — the same MULSD/ADDSD/SQRTSD/DIVSD/SUBSD
// the Go compiler emits for it, packed — so every lane's result is forceQQ's
// bit for bit. SSE2 is part of the amd64 baseline: no feature check.
//
// b must not escape, or the move loop's stack buffer would move to the heap
// on every call.
//
//go:noescape
func forceLanes(b *forceBuf, n int)
