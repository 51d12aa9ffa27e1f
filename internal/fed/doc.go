// Package fed implements multi-RIC federation with live UE-state
// migration. A deployment runs several near-RT RIC instances, each
// owning a contiguous slice of the UE-hash space; an SMO-side
// coordinator publishes the ownership ring and A1 policies to every
// instance over a checkpointed pub/sub bus, and UEs migrate between
// instances without losing detection continuity.
//
// The pieces:
//
//   - Ring (ring.go): a consistent-hash ring mapping UE IDs to instance
//     IDs. Each epoch is published to the SDL and fanned out on the bus,
//     so instances converge on the same ownership view.
//   - Broker / Client (bus.go): the cross-instance bus. Topics are
//     retained, offset-numbered message logs; a subscriber names the
//     offset it resumes from, so a reconnecting instance replays what it
//     missed instead of starting blind. When the bus is unreachable an
//     instance degrades to standalone detection rather than stopping.
//   - Instance (instance.go): one federated RIC — a core.Node (the
//     whole loop, gNB agent to mitigation engine; DESIGN.md §11,
//     "Composition") plus the bus client and the migration protocol
//     endpoints. Tests and the federation bench feed its gNB
//     agent with Instance.GNB().InjectTelemetry, which gives them the
//     UE identities they need, and wait on Cluster.WaitRecords before a
//     step that must see everything injected.
//   - Coordinator (coordinator.go): the SMO side — ring epochs on
//     join/leave and policy fan-out.
//   - Cluster (cluster.go): an in-process harness wiring N instances to
//     one coordinator, used by tests and xsec-bench -fed.
//
// Migration keeps the evidence trail intact: the source records a
// "migration out" provenance event on the UE's last chain, and the
// destination records the matching "migration in" on the first chain it
// scores.
package fed
