// Package cluster turns a fleet of rcserved nodes into one service: a
// lightweight discovery registry with heartbeats and TTL expiry, a
// consistent-hash ring that partitions spec fingerprints (and with them the
// nodes' result caches) across the live nodes, and a failure-aware client
// that fans sweep cells out to the owning node and re-dispatches to the
// ring successor when a node dies mid-sweep.
//
// The design deliberately mirrors the paper's circuit-construction
// protocol one level up. A node registration is a circuit setup: it is
// acknowledged (the heartbeat response), kept alive by traffic (further
// heartbeats), and torn down either explicitly (DELETE, the undo token) or
// by timeout (TTL expiry, the speculative teardown). Job dispatch is
// at-least-once exactly the way a re-tried circuit setup is: a re-dispatch
// after a node failure can never double-count, because every node
// deduplicates by spec fingerprint — the serving-layer analogue of the
// setup/ack/undo tokens that keep a re-built circuit from double-reserving
// a link.
//
// Every call to the registry — membership fetch and probe, heartbeat,
// leave, event report — is made with serve.Call, and the registry answers
// through serve.WriteJSON/WriteError/WriteMetrics: the cluster has no wire
// code of its own, so a registry failure reads like a node failure.
//
// Roles:
//
//   - Registry: the discovery service. Usually embedded in one rcserved
//     process (-registry); any node can host it.
//   - Agent: runs inside each rcserved node; registers and heartbeats.
//   - Client: used by rcsweep -remote when pointed at a registry; routes
//     each Spec.Fingerprint() through the ring, absorbs per-node
//     backpressure, and hands jobs off to surviving nodes on failure.
package cluster
