// Package cluster turns a list of rcserved nodes into one service: a
// consistent-hash ring that partitions spec fingerprints (and with them the
// nodes' result caches) across the nodes, and a failure-aware client that
// fans sweep cells out to the owning node and re-dispatches to the ring
// successor when a node dies mid-sweep.
//
// The cluster is the list of addresses the client is given (rcsweep
// -remote a,b,c); a node needs no list, since it serves whatever it is
// sent. Like the
// paper's circuits, routing is reactive: there is no control plane that
// tracks the fleet. A node is found dead by the request that needed it —
// the transport error is the signal — and the client suspects it locally
// for a few seconds and hands the job to the next node in ring order.
// Dispatch is at-least-once exactly the way a re-tried circuit setup is:
// a re-dispatch after a node failure can never double-count, because every
// node deduplicates by spec fingerprint — the serving-layer analogue of
// the setup/ack/undo tokens that keep a re-built circuit from
// double-reserving a link.
package cluster
