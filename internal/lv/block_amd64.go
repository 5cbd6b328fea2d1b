package lv

// rounds512 is Block's AVX-512 round kernel: it advances the first
// 8·groups lanes of b, in groups of eight held in registers, by up to
// kernelRounds events each and returns when a lane needs the Go round (see
// Block). groups is 1 or 2. Call it only when cpufeat.Widest reports
// AVX512 and those lanes are live.
//
//go:noescape
func rounds512(b *Block, groups int)

// roundsAVX2 is Block's AVX2 round kernel: rounds512 for the first
// 4·groups lanes, in groups of four. Call it only when cpufeat.Widest
// reports AVX2 or wider and those lanes are live.
//
//go:noescape
func roundsAVX2(b *Block, groups int)
