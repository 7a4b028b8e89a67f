// Package reactivenoc reproduces "Dynamic construction of circuits for
// reactive traffic in homogeneous CMPs" (Ortín-Obón et al., DATE 2014): a
// cycle-accurate chip-multiprocessor simulator — mesh NoC with wormhole VC
// routers, MESI directory coherence, trace-driven cores — plus the paper's
// Reactive Circuits mechanism and the full evaluation harness.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. internal/core is the
// mechanism: one reservation walk, with each switching policy — the paper's
// variants and the related work's — its Traits plus the steps where it
// departs (DESIGN.md §5f). cmd/rcsweep regenerates
// every table and figure (internal/exp: each experiment is a list of run
// specs and a fold over their results); benchmark/ holds rcbench, the
// repository's benchmark.
package reactivenoc
