//go:build !amd64

package protocols

// ticks512 and ticksAVX2 are never called off amd64, where cpufeat.Widest
// reports Portable. Refusing without advancing a lane meets the kernels'
// contract: the Go round then runs a full round on every lane.
func ticks512(*lockstepEngine, int) (refused bool)  { return true }
func ticksAVX2(*lockstepEngine, int) (refused bool) { return true }
