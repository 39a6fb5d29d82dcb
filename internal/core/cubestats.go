package core

// CubeStats is the per-device (per-cube) slice of the engine's traffic
// accounting, maintained for multi-cube fabrics. The counters live
// outside Stats deliberately: Stats is walked reflectively by result
// digests and pinned by golden payloads, so the per-cube breakdown is a
// parallel structure rather than new Stats fields.
//
// Every counter is incremented from the crossbar stages (request routing
// and response registration), never from the vault pass. The counters
// are engine-lifetime totals; they are not windowed by a driver's
// warm-up.
type CubeStats struct {
	// Delivered counts memory requests delivered into this cube's
	// vaults, with the Reads/Writes/Atomics class split taken at
	// delivery time.
	Delivered uint64
	Reads     uint64
	Writes    uint64
	Atomics   uint64
	// Modes counts mode (register) requests serviced by this cube's
	// logic base.
	Modes uint64
	// Responses counts response packets this cube's vaults registered
	// with its crossbar.
	Responses uint64
	// ReqRelayed and RspRelayed count inter-cube link crossings this
	// cube initiated: request packets forwarded one hop toward another
	// cube, and response packets relayed one hop toward the host.
	ReqRelayed uint64
	RspRelayed uint64
}

// CubeStats returns a copy of the per-cube counter slice, indexed by
// cube ID.
func (h *HMC) CubeStats() []CubeStats {
	out := make([]CubeStats, len(h.cubeStats))
	copy(out, h.cubeStats)
	return out
}
