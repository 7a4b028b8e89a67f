package verify

import "reactivenoc/internal/fault"

// OraclesFor maps each injectable fault class to the oracle names allowed
// to catch it. The chaos suite and cmd/rcverify assert against this
// mapping, so every corruption class is pinned to its intended detector —
// a fault absorbed by the generic watchdog instead counts as a detection
// regression even though the run still failed.
func OraclesFor(c fault.Class) []string {
	switch c {
	case fault.FlipBuiltBit, fault.TruncateWindow:
		// The NI registry still advertises the circuit the router lost
		// (or whose window can no longer fit the reply): the
		// registry/table cross-check sees the divergence first.
		return []string{"circuit-registry"}
	case fault.DropUndoToken:
		// The stranded downstream entries are claimed by no record,
		// rider, or token: the leak oracle names them while the run is
		// still hot.
		return []string{"circuit-leak"}
	case fault.WithholdCredit:
		// A vanished credit breaks the per-link conservation sum on the
		// next check boundary.
		return []string{"credit-conservation"}
	case fault.ReorderReply:
		// A message the bank sent after a NoAck data reply reaches the L1
		// first: the delivery-order oracle compares the two per pair.
		return []string{"noack-order"}
	case fault.StallLink:
		// A frozen link starves the fabric: zero flit movement with
		// traffic in flight trips the progress oracle, or the deadlock
		// oracle when the waits-for graph is genuinely cyclic.
		return []string{"progress", "deadlock"}
	}
	return nil
}
