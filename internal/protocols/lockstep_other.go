//go:build !amd64

package protocols

// ticksAVX2 is never called off amd64, where cpufeat.AVX2 reports false.
// Refusing without advancing a lane meets the kernel's contract: the Go
// round then runs a full round on every lane.
func ticksAVX2(*lockstepEngine, int) (refused bool) { return true }
