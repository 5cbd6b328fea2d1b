package scenario

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/exploit"
	"lvmajority/internal/gossip"
	"lvmajority/internal/lv"
	"lvmajority/internal/moran"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
)

// The model kinds a Spec describes.
const (
	// ModelLV is the paper's two-species Lotka–Volterra chain with
	// explicit rate constants.
	ModelLV = "lv"
	// ModelProtocol is a named protocol from the registry.
	ModelProtocol = "protocol"
	// ModelCRN is an inline chemical reaction network.
	ModelCRN = "crn"
)

// The kernel names a ProtocolModel still accepts, and ignores.
//
// Deprecated: a population protocol's rule table picks its engine.
const (
	KernelBatch    = "batch"
	KernelLockstep = "lockstep"
)

// validate checks the model's internal consistency.
func (m *Model) validate() error {
	switch m.Kind {
	case ModelLV:
		if m.LV == nil || m.Protocol != nil || m.CRN != nil {
			return fmt.Errorf("scenario: lv model must set exactly the lv field")
		}
		if _, err := m.LV.Params(); err != nil {
			return err
		}
		switch m.LV.Ties {
		case "", "loss", "coinflip":
		default:
			return fmt.Errorf("scenario: unknown ties value %q (want loss or coinflip)", m.LV.Ties)
		}
		if m.LV.MaxSteps < 0 {
			return fmt.Errorf("scenario: negative max_steps %d", m.LV.MaxSteps)
		}
	case ModelProtocol:
		if m.Protocol == nil || m.LV != nil || m.CRN != nil {
			return fmt.Errorf("scenario: protocol model must set exactly the protocol field")
		}
		p, err := ProtocolByName(m.Protocol.Name)
		if err != nil {
			return err
		}
		switch m.Protocol.Kernel {
		case "":
		case KernelBatch, KernelLockstep:
			// A kernel only ever meant something for population
			// protocols; rejecting the mismatch here keeps the contract
			// that a Validate-clean spec means what it says.
			if _, ok := p.(*protocols.PopulationProtocol); !ok {
				return fmt.Errorf("scenario: protocol %q is not a population protocol; it has no kernel", m.Protocol.Name)
			}
		default:
			return fmt.Errorf("scenario: unknown kernel %q (want batch or lockstep, which are ignored)", m.Protocol.Kernel)
		}
	case ModelCRN:
		if m.CRN == nil || m.LV != nil || m.Protocol != nil {
			return fmt.Errorf("scenario: crn model must set exactly the crn field")
		}
		if _, err := crn.Parse(m.CRN.Text); err != nil {
			return err
		}
		switch m.CRN.Engine {
		case "", crn.EngineDirect, crn.EngineLeap:
		default:
			return fmt.Errorf("scenario: unknown crn engine %q (want direct or leap)", m.CRN.Engine)
		}
	default:
		return fmt.Errorf("scenario: unknown model kind %q (want lv, protocol, or crn)", m.Kind)
	}
	return nil
}

// Params converts the LV model to lv.Params, validating the rates.
func (m *LVModel) Params() (lv.Params, error) {
	var comp lv.Competition
	switch m.Competition {
	case "sd":
		comp = lv.SelfDestructive
	case "nsd":
		comp = lv.NonSelfDestructive
	default:
		return lv.Params{}, fmt.Errorf("scenario: unknown competition model %q (want sd or nsd)", m.Competition)
	}
	p := lv.Params{
		Beta: m.Beta, Delta: m.Death,
		Alpha:       [2]float64{m.Alpha0, m.Alpha1},
		Gamma:       [2]float64{m.Gamma0, m.Gamma1},
		Competition: comp,
	}
	if err := p.Validate(); err != nil {
		return lv.Params{}, err
	}
	return p, nil
}

// BuildProtocol builds the consensus.Protocol the estimate, threshold, and
// sweep tasks measure. It is exported for the fabric worker, which receives
// a Model over the wire and must build exactly the protocol that the
// coordinator's local run would build; every other caller goes through the
// Runner.
func (m *Model) BuildProtocol() (consensus.Protocol, error) {
	switch m.Kind {
	case ModelLV:
		params, err := m.LV.Params()
		if err != nil {
			return nil, err
		}
		ties := consensus.TieIsLoss
		if m.LV.Ties == "coinflip" {
			ties = consensus.TieIsCoinFlip
		}
		return consensus.LVProtocol{
			Params:   params,
			Ties:     ties,
			MaxSteps: m.LV.MaxSteps,
			Label:    m.LV.Label,
		}, nil
	case ModelProtocol:
		return ProtocolByName(m.Protocol.Name)
	case ModelCRN:
		net, err := crn.Parse(m.CRN.Text)
		if err != nil {
			return nil, err
		}
		if net.NumSpecies() != 2 {
			return nil, fmt.Errorf("scenario: consensus tasks need a two-species network, got %d species", net.NumSpecies())
		}
		return &crnProtocol{net: net, engine: m.CRN.Engine, text: m.CRN.Text}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown model kind %q", m.Kind)
	}
}

// crnDefaultMaxSteps bounds a CRN consensus trial, mirroring the crnrun
// batch default.
const crnDefaultMaxSteps = 10_000_000

// crnProtocol adapts a two-species CRN to the consensus.Protocol interface:
// the first declared species is the majority by convention, a trial starts
// from SplitInitial(n, delta), and the majority wins when it alone survives
// at absorption (or at the step budget).
type crnProtocol struct {
	net    *crn.Network
	engine string
	text   string
}

// Name implements consensus.Protocol.
func (p *crnProtocol) Name() string {
	return fmt.Sprintf("crn[%d reactions]", p.net.NumReactions())
}

// CacheKey implements sweep.CacheKeyer: the network text (hashed) and the
// engine identify the dynamics, so editing the network invalidates cached
// probes.
func (p *crnProtocol) CacheKey() string {
	return fmt.Sprintf("crn:%x|engine=%s", sha256.Sum256([]byte(p.text)), p.engine)
}

// Trial implements consensus.Protocol.
func (p *crnProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	a, b, err := consensus.SplitInitial(n, delta)
	if err != nil {
		return false, err
	}
	e, err := crn.NewEngine(p.net, []int{a, b}, p.engine, false, src)
	if err != nil {
		return false, err
	}
	if _, err := crn.Run(e, func(state []int) bool {
		return state[0] == 0 || state[1] == 0
	}, crnDefaultMaxSteps, 0); err != nil {
		return false, err
	}
	s := e.StateView()
	return s[0] > 0 && s[1] == 0, nil
}

// protocolRegistry maps registry names to constructors. A function rather
// than a package variable keeps the package free of mutable globals.
func protocolRegistry() map[string]func() consensus.Protocol {
	return map[string]func() consensus.Protocol{
		"lv-sd": func() consensus.Protocol {
			return consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Label: "lv-sd"}
		},
		"lv-nsd": func() consensus.Protocol {
			return consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive), Label: "lv-nsd"}
		},
		"cho": func() consensus.Protocol {
			return consensus.LVProtocol{Params: lv.Neutral(1, 0, 1, 0, lv.SelfDestructive), Label: "Cho et al. (delta=0, self-destructive LV)"}
		},
		"andaur": func() consensus.Protocol { return protocols.AndaurProtocol{Beta: 1, Alpha: 1, ResourceCap: 1 << 20} },
		"condon-single-b": func() consensus.Protocol {
			return protocols.CondonProtocol{Variant: protocols.SingleB}
		},
		"condon-double-b": func() consensus.Protocol {
			return protocols.CondonProtocol{Variant: protocols.DoubleB}
		},
		"condon-heavy-b": func() consensus.Protocol {
			return protocols.CondonProtocol{Variant: protocols.HeavyB}
		},
		"condon-tri": func() consensus.Protocol {
			return protocols.CondonProtocol{Variant: protocols.TriMajority}
		},
		"3-state-am":    func() consensus.Protocol { return protocols.NewThreeStateAM() },
		"4-state-exact": func() consensus.Protocol { return protocols.NewFourStateExact() },
		"ternary":       func() consensus.Protocol { return protocols.NewTernarySignaling() },
		"voter":         func() consensus.Protocol { return &gossip.Protocol{Dynamics: gossip.Voter{}} },
		"two-choices":   func() consensus.Protocol { return &gossip.Protocol{Dynamics: gossip.TwoChoices{}} },
		"3-majority":    func() consensus.Protocol { return &gossip.Protocol{Dynamics: gossip.ThreeMajority{}} },
		"usd":           func() consensus.Protocol { return &gossip.Protocol{Dynamics: gossip.Undecided{}} },
		"moran":         func() consensus.Protocol { return &moran.Protocol{Fitness: 1} },
		"chemostat": func() consensus.Protocol {
			return &exploit.Protocol{Params: exploit.Params{Lambda: 200, Mu: 1, Beta: 0.1, Delta: 1, R0: 10}}
		},
	}
}

// ProtocolByName builds the named protocol from the registry. This is the
// one protocol name space shared by the threshold CLI, specs, and the
// server.
func ProtocolByName(name string) (consensus.Protocol, error) {
	build, ok := protocolRegistry()[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown protocol %q (known: %v)", name, ProtocolNames())
	}
	return build(), nil
}

// ProtocolNames returns the sorted registry names.
func ProtocolNames() []string {
	reg := protocolRegistry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
