package lv

// roundsAVX2 is Block's AVX2 round kernel: it advances all BlockLanes
// lanes of b by up to kernelRounds events each and returns when a lane
// needs the Go round (see Block). Call it only when cpufeat.AVX2 reports
// true and every lane is live.
//
//go:noescape
func roundsAVX2(b *Block)
