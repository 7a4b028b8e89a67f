package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// DumpCircuits renders every live circuit entry and registry record for
// stall diagnostics.
func (mg *Manager) DumpCircuits(now sim.Cycle) string {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	for id, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range tb.inputs[d] {
				if !e.active(now) {
					continue
				}
				use := "idle"
				if e.inUse != nil {
					use = fmt.Sprintf("in use by msg %d", e.inUse.ID)
				}
				win := ""
				if e.timed() {
					win = fmt.Sprintf(" window=[%d,%d]", e.winStart, e.winEnd)
				}
				add("router %d in %v: circuit (%d,%#x) out=%v %s%s\n",
					id, d, e.dest, e.block, e.out, use, win)
			}
		}
	}
	for ni, regs := range mg.regs {
		for k, rec := range regs {
			add("NI %d: record (%d,%#x) complete=%v failed=%v inUse=%v\n",
				ni, k.dest, k.block, rec.complete, rec.failed, rec.inUse)
		}
	}
	if len(b) == 0 {
		return "no live circuits\n"
	}
	return string(b)
}

// AuditQuiescent verifies the mechanism leaked nothing once the chip is
// idle: every circuit entry released or expired, every registry record
// consumed, no reservation walk or scrounger ride outstanding.
func (mg *Manager) AuditQuiescent(now sim.Cycle) error {
	for id, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range tb.inputs[d] {
				if e.inUse != nil {
					return fmt.Errorf("core: router %d port %v entry (%d,%#x) still in use",
						id, d, e.dest, e.block)
				}
				if e.built && !e.expired(now) && !e.timed() {
					return fmt.Errorf("core: router %d port %v leaks untimed entry (%d,%#x)",
						id, d, e.dest, e.block)
				}
			}
		}
	}
	for ni, regs := range mg.regs {
		for k := range regs {
			return fmt.Errorf("core: NI %d leaks circuit record (%d,%#x)", ni, k.dest, k.block)
		}
	}
	if mg.walksLive != 0 {
		return fmt.Errorf("core: %d reservation walks outstanding", mg.walksLive)
	}
	if mg.ridesLive != 0 {
		return fmt.Errorf("core: %d scrounger rides outstanding", mg.ridesLive)
	}
	return nil
}
