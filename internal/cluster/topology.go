package cluster

// Topology places hosts into failure domains. Hosts map to racks
// round-robin by ID (rack = id % Racks), so the assignment is balanced,
// independent of fleet size, and stable under joins: host IDs are
// monotonic, and a host that joins mid-run lands in a definite rack no
// matter when or in what order it is observed. Racks group contiguously
// into zones (zone = rack * Zones / Racks).
//
// A nil *Topology means a flat fleet: every host is rack 0 / zone 0,
// every domain-kind fault event is a deterministic no-op, and the
// domain-aware policies degrade to plain headroom scoring — so turning
// the topology off never changes single-host behavior.
type Topology struct {
	// Racks is the number of failure domains; <= 1 behaves as flat.
	Racks int
	// Zones optionally groups racks; 0 or 1 means one zone.
	Zones int
	// MemBytes, when non-empty, gives per-host memory capacities,
	// cycled by host ID (host i gets MemBytes[i % len]). Empty means
	// every host uses Config.HostMemBytes. Cycling keeps heterogeneous
	// fleets balanced across racks: with len(MemBytes) == Racks each
	// rack is internally uniform but racks differ.
	MemBytes []int64
}

// RackOf returns the host's rack index (0 on a flat fleet).
func (t *Topology) RackOf(id int) int {
	if t == nil || t.Racks <= 1 {
		return 0
	}
	return id % t.Racks
}

// ZoneOfRack returns the rack's zone index (0 on a flat fleet).
func (t *Topology) ZoneOfRack(rack int) int {
	if t == nil || t.Zones <= 1 || t.Racks <= 1 {
		return 0
	}
	return rack * t.Zones / t.Racks
}

// HostMem returns host id's memory capacity in bytes, falling back to
// def when the topology carries no per-host sizes.
func (t *Topology) HostMem(id int, def int64) int64 {
	if t == nil || len(t.MemBytes) == 0 {
		return def
	}
	return t.MemBytes[id%len(t.MemBytes)]
}

// ValidRack reports whether rack names an existing domain — the guard
// that makes dangling rack targets in fuzzed fault plans safe no-ops.
func (t *Topology) ValidRack(rack int) bool {
	return t != nil && rack >= 0 && rack < t.Racks
}
