package core

import "reactivenoc/internal/noc"

// baselinePolicy is the packet-switched network without any circuit
// machinery: no manager is built for it, so none of its walk hooks ever
// run.
type baselinePolicy struct{ basePolicy }

func (baselinePolicy) Traits(Options) Traits { return Traits{} }

// speculativePolicy is the related-work comparator of the paper's
// references [16-19]: the baseline network, reserving nothing, whose head
// flits may cross an uncontended router in a single cycle. Like the
// baseline it builds no manager.
type speculativePolicy struct{ basePolicy }

func (speculativePolicy) Traits(Options) Traits { return Traits{} }

func (speculativePolicy) NetConfig(cfg noc.NetConfig, _ Options) noc.NetConfig {
	cfg.Speculative = true
	return cfg
}
