package experiment

import (
	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
)

// choProtocol is the Cho et al. model: the self-destructive LV chain with
// unit rates and no individual deaths (δ = 0).
func choProtocol() consensus.LVProtocol {
	return consensus.LVProtocol{Params: lv.Neutral(1, 0, 1, 0, lv.SelfDestructive), Label: "Cho et al. (delta=0, SD LV)"}
}

// andaurAdapter is the Andaur et al. resource-consumer reconstruction with
// the resource capacity tied to the population size (resources scale with
// the experiment, matching their thermodynamically sensible regime).
type andaurAdapter struct{}

// Name implements consensus.Protocol.
func (andaurAdapter) Name() string { return "Andaur et al. (bounded growth, NSD)" }

// Trial implements consensus.Protocol.
func (andaurAdapter) Trial(n, delta int, src *rng.Source) (bool, error) {
	p := protocols.AndaurProtocol{Beta: 1, Alpha: 1, ResourceCap: n}
	return p.Trial(n, delta, src)
}
