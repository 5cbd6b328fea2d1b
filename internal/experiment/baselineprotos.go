package experiment

import (
	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
)

// baselineProtocols returns every protocol compared in E-BASE, in
// presentation order. kernel selects the event loop of the population
// protocols; the other entries have a single engine and ignore it.
func baselineProtocols(kernel protocols.PopulationKernel) []consensus.Protocol {
	am := protocols.NewThreeStateAM()
	am.Kernel = kernel
	exact := protocols.NewFourStateExact()
	exact.Kernel = kernel
	return []consensus.Protocol{
		consensus.LVProtocol{
			Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
			Label:  "LV self-destructive",
		},
		consensus.LVProtocol{
			Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive),
			Label:  "LV non-self-destructive",
		},
		choProtocol(),
		andaurAdapter{},
		protocols.CondonProtocol{Variant: protocols.SingleB},
		protocols.CondonProtocol{Variant: protocols.DoubleB},
		protocols.CondonProtocol{Variant: protocols.HeavyB},
		protocols.CondonProtocol{Variant: protocols.TriMajority},
		am,
		exact,
	}
}
