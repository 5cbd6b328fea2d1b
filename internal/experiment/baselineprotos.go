package experiment

import (
	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
)

// baselineProtocols returns every protocol compared in E-BASE, in
// presentation order.
func baselineProtocols() []consensus.Protocol {
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
		protocols.NewThreeStateAM(),
		protocols.NewFourStateExact(),
	}
}
