package workload

import "reactivenoc/internal/cache"

// RegionClass labels which of a profile's regions an address falls in —
// the address-region field of a trace record. The numeric values are part
// of the binary trace format (internal/tracefeed) and must not be
// reordered.
type RegionClass uint8

const (
	// RegionNone marks compute operations (no address).
	RegionNone RegionClass = iota
	// RegionHot is the L1-resident private region.
	RegionHot
	// RegionStream is the L2-resident streaming region.
	RegionStream
	// RegionCold is the never-warm region that reaches memory.
	RegionCold
	// RegionShared is the globally shared region.
	RegionShared
	// RegionOther is anything the profile does not claim (trace replays,
	// foreign address spaces).
	RegionOther
)

// String names the class for diagnostics.
func (rc RegionClass) String() string {
	switch rc {
	case RegionNone:
		return "none"
	case RegionHot:
		return "hot"
	case RegionStream:
		return "stream"
	case RegionCold:
		return "cold"
	case RegionShared:
		return "shared"
	default:
		return "other"
	}
}

// Classify maps an address of core coreID's stream onto the region it
// belongs to, plus a sharer hint (how widely the line is expected to be
// shared: 0 = private, 1 = read-shared region, 2 = contended shared-hot
// eighth). The trace recorder stores both with every record so a trace is
// analyzable without the profile that produced it.
func (p Profile) Classify(coreID int, a cache.Addr) (RegionClass, uint8) {
	if a >= sharedBase {
		hot := p.SharedLines / 8
		if hot < 1 {
			hot = 1
		}
		if a < sharedBase+cache.Addr(hot)*lineBytes {
			return RegionShared, 2
		}
		return RegionShared, 1
	}
	inRegion := func(base cache.Addr, lines int) bool {
		return lines > 0 && a >= base && a < base+cache.Addr(lines)*lineBytes
	}
	switch {
	case inRegion(hotBase(coreID), p.HotLines):
		return RegionHot, 0
	case inRegion(streamBase(coreID), p.StreamLines):
		return RegionStream, 0
	case inRegion(coldBase(coreID), p.ColdLines):
		return RegionCold, 0
	}
	return RegionOther, 0
}
