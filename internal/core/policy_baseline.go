package core

import "reactivenoc/internal/noc"

// baselinePolicy is the packet-switched network without any circuit
// machinery: no manager is built for it, so none of its walk hooks ever
// run. It also hosts the speculative-router comparator, which changes the
// router pipeline but reserves nothing.
type baselinePolicy struct{ basePolicy }

func (baselinePolicy) Traits(*Options) Traits { return Traits{Mech: MechNone} }

func (baselinePolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.Speculative = o.SpeculativeRouter
}
