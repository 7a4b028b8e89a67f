package tracefeed

import "reactivenoc/internal/workload"

// The adversarial generator suite: traffic the stationary evaluation
// profiles never produce, aimed at the regimes where profile-based
// switching degrades (PAPERS.md: He & Cao) — a single contended tile,
// permutation traffic with no reuse locality across destinations, duty
// cycled bursts that defeat window averaging, and phase changes that
// invalidate whatever the predictor learned. Each is registered as a
// first-class workload name at package init, so importing tracefeed
// (which internal/chip does) makes them resolvable everywhere a
// workload name is accepted: rcsim -workload, sweep columns, differ
// specs and the spec fingerprint.

// Hotspot funnels every shared access to lines homed on the central
// tile. The elevated shared fraction keeps the hotspot's queue full.
func Hotspot() workload.Profile {
	p := workload.Micro()
	p.Name = "hotspot"
	p.Pattern = workload.PatternHotspot
	p.SharedLines = 1024
	p.SharedFraction = 0.030
	return p
}

// Transpose sends core (x,y)'s shared accesses to lines homed on tile
// (y,x) — the classic bit-permutation worst case for dimension-ordered
// routing.
func Transpose() workload.Profile {
	p := workload.Micro()
	p.Name = "transpose"
	p.Pattern = workload.PatternTranspose
	p.SharedLines = 1024
	p.SharedFraction = 0.020
	return p
}

// Tornado targets the tile halfway around the row, maximizing average
// hop distance in the X dimension.
func Tornado() workload.Profile {
	p := workload.Micro()
	p.Name = "tornado"
	p.Pattern = workload.PatternTornado
	p.SharedLines = 1024
	p.SharedFraction = 0.020
	return p
}

// OnOff chops the micro profile into bursts: heavy traffic for 400 ops,
// silence for 1200 (duty cycle 1/4). The timed-window predictor sees
// circuits go cold mid-window.
func OnOff() workload.Profile {
	p := workload.Micro()
	p.Name = "onoff"
	p.BurstOn = 400
	p.BurstOff = 1200
	p.StreamFraction = 0.040
	p.SharedFraction = 0.020
	return p
}

// Phased ping-pongs between a communication-heavy phase and a
// compute-quiet one every 1500 ops: the phase-changing mix that
// invalidates profile-based tuning. phasedQuiet is its other half.
func Phased() workload.Profile {
	p := workload.Micro()
	p.Name = "phased"
	p.StreamFraction = 0.040
	p.SharedFraction = 0.020
	p.PhaseOps = 1500
	p.PhaseNext = "phased_quiet"
	return p
}

func phasedQuiet() workload.Profile {
	p := workload.Micro()
	p.Name = "phased_quiet"
	p.MemFraction = 0.10
	p.StreamFraction = 0.004
	p.SharedFraction = 0.002
	p.ColdFraction = 0.0002
	p.PhaseOps = 1500
	p.PhaseNext = "phased"
	return p
}

// Generators lists the adversarial suite in its canonical order (the
// order -list-workloads and rcsweep -exp tune report them).
func Generators() []workload.Profile {
	return []workload.Profile{
		Hotspot(), Transpose(), Tornado(), OnOff(), Phased(),
	}
}

func init() {
	for _, p := range Generators() {
		workload.Register(p)
	}
	// The quiet half of the phased ping-pong must resolve by name for
	// the phase switch (and is a usable workload in its own right).
	workload.Register(phasedQuiet())
}
