package core

// Stats accumulates engine-level counters. They are always collected (the
// cost is a few increments per event) and complement the configurable
// tracing infrastructure: tracing captures per-event locality and timing,
// Stats captures totals.
type Stats struct {
	// Requests serviced by vaults, by class.
	Reads   uint64
	Writes  uint64
	Atomics uint64
	Posted  uint64 // posted writes/atomics (no response generated)
	Modes   uint64 // MODE_READ / MODE_WRITE register accesses

	// BytesRead and BytesWritten count the data payload bytes moved by
	// vault service (read response data and write/atomic request data),
	// for bandwidth and energy accounting.
	BytesRead    uint64
	BytesWritten uint64
	// ColumnFetches counts 32-byte column accesses at the banks: "read or
	// write requests to a target bank are always performed in 32-bytes
	// for each column fetch", so a 16-byte request still costs one fetch
	// and a 64-byte request costs two.
	ColumnFetches uint64

	// Responses delivered into host-visible crossbar response queues and
	// popped by Recv.
	Responses uint64
	Recvs     uint64

	// Congestion and routing events.
	XbarRqstStalls uint64 // request blocked entering a vault or next hop
	XbarRspStalls  uint64 // response blocked entering a crossbar queue
	VaultRspStalls uint64 // response blocked by a full vault response queue
	BankConflicts  uint64
	LatencyEvents  uint64 // quad-locality latency penalties
	RouteHops      uint64 // inter-device pass-through forwards
	SendStalls     uint64 // Send rejected by a full crossbar queue
	Errors         uint64 // error conditions recognized (responses, drops)
	RefreshStalls  uint64 // requests deferred by a bank under refresh

	// Fault-model counters.
	LinkRetransmits uint64 // transparent link-level retransmissions
	ErrorResponses  uint64 // ERROR response packets generated
	LinkFailures    uint64 // links permanently failed (endpoints, once each)
	Reroutes        uint64 // packets forwarded around a failed link
	PoisonedReads   uint64 // reads returning poisoned data (vault faults)

	// Flow control.
	FlowPackets uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Atomics += o.Atomics
	s.Posted += o.Posted
	s.Modes += o.Modes
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.ColumnFetches += o.ColumnFetches
	s.Responses += o.Responses
	s.Recvs += o.Recvs
	s.XbarRqstStalls += o.XbarRqstStalls
	s.XbarRspStalls += o.XbarRspStalls
	s.VaultRspStalls += o.VaultRspStalls
	s.BankConflicts += o.BankConflicts
	s.LatencyEvents += o.LatencyEvents
	s.RouteHops += o.RouteHops
	s.SendStalls += o.SendStalls
	s.Errors += o.Errors
	s.RefreshStalls += o.RefreshStalls
	s.LinkRetransmits += o.LinkRetransmits
	s.ErrorResponses += o.ErrorResponses
	s.LinkFailures += o.LinkFailures
	s.Reroutes += o.Reroutes
	s.PoisonedReads += o.PoisonedReads
	s.FlowPackets += o.FlowPackets
}

// Sub returns s - o field by field. It supports measurement windows:
// snapshot the stats at the start of the window and subtract at the end.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes,
		Atomics: s.Atomics - o.Atomics, Posted: s.Posted - o.Posted,
		Modes:     s.Modes - o.Modes,
		BytesRead: s.BytesRead - o.BytesRead, BytesWritten: s.BytesWritten - o.BytesWritten,
		ColumnFetches: s.ColumnFetches - o.ColumnFetches,
		Responses:     s.Responses - o.Responses, Recvs: s.Recvs - o.Recvs,
		XbarRqstStalls:  s.XbarRqstStalls - o.XbarRqstStalls,
		XbarRspStalls:   s.XbarRspStalls - o.XbarRspStalls,
		VaultRspStalls:  s.VaultRspStalls - o.VaultRspStalls,
		BankConflicts:   s.BankConflicts - o.BankConflicts,
		LatencyEvents:   s.LatencyEvents - o.LatencyEvents,
		RouteHops:       s.RouteHops - o.RouteHops,
		SendStalls:      s.SendStalls - o.SendStalls,
		Errors:          s.Errors - o.Errors,
		RefreshStalls:   s.RefreshStalls - o.RefreshStalls,
		LinkRetransmits: s.LinkRetransmits - o.LinkRetransmits,
		ErrorResponses:  s.ErrorResponses - o.ErrorResponses,
		LinkFailures:    s.LinkFailures - o.LinkFailures,
		Reroutes:        s.Reroutes - o.Reroutes,
		PoisonedReads:   s.PoisonedReads - o.PoisonedReads,
		FlowPackets:     s.FlowPackets - o.FlowPackets,
	}
}

// Serviced returns the total number of requests serviced by vaults and the
// register interface.
func (s Stats) Serviced() uint64 {
	return s.Reads + s.Writes + s.Atomics + s.Modes
}
