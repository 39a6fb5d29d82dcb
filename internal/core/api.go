package core

import (
	"fmt"

	"hmcsim/internal/device"
	"hmcsim/internal/packet"
	"hmcsim/internal/trace"
)

// BuildMemRequest assembles the header and tail words for a memory request
// packet, the analogue of hmcsim_build_memrequest. The caller lays the
// packet out as head, data words..., tail and passes it to Send. The
// sequence number is drawn from a rolling per-link counter keyed by the
// link the caller intends to send on.
func (h *HMC) BuildMemRequest(cub uint8, physAddr uint64, tag uint16, cmd packet.Command, link int) (head, tail uint64, err error) {
	seq := h.nextSeq(link)
	p, err := packet.BuildRequest(packet.Request{
		CUB:  cub,
		Addr: physAddr,
		Tag:  tag,
		Cmd:  cmd,
		SLID: uint8(link),
		Seq:  seq,
		Data: make([]uint64, cmd.DataBytes()/8),
	})
	if err != nil {
		return 0, 0, err
	}
	w := p.Words()
	return w[0], w[len(w)-1], nil
}

// BuildRequestPacket assembles a complete, CRC-stamped request packet
// (head, data, tail) ready for Send. It is the convenience companion to
// the C-style BuildMemRequest.
func (h *HMC) BuildRequestPacket(req packet.Request, link int) ([]uint64, error) {
	req.SLID = uint8(link)
	req.Seq = h.nextSeq(link)
	p, err := packet.BuildRequest(req)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(p.Words()))
	copy(out, p.Words())
	return out, nil
}

// nextSeq draws the rolling 3-bit sequence number for a link. The counter
// advances even when the subsequent Send stalls — the per-link sequence
// reflects build order, not acceptance order — so digest-pinned runs must
// preserve every draw. SendRequest draws after its device and link range
// checks (a call that names no link perturbs none) and before its
// host-link, link-down, link-failed and stall rejections, whose
// draw-on-rejection order the fault and stall digests pin.
func (h *HMC) nextSeq(link int) uint8 {
	if link < 0 || link >= len(h.seq) {
		return 0
	}
	seq := h.seq[link]
	h.seq[link] = (seq + 1) & 0x7
	return seq
}

// SendRequest builds and submits a request in one step, the
// allocation-free fast path of the BuildRequestPacket + Send pair: the
// per-link sequence number is drawn, the packet is encoded directly into
// a pooled buffer (its CRC left to the first read of its words, which a
// request serviced and answered never has) and enqueued on the crossbar. Semantics match Send: ErrStall on back-pressure,
// ErrLinkFailed when the transfer trips a hard link failure. Flow packets
// are not accepted; use Send for those.
func (h *HMC) SendRequest(dev, link int, req packet.Request) error {
	if err := h.seal(); err != nil {
		return err
	}
	d := h.Device(dev)
	if d == nil {
		return fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	if link < 0 || link >= len(d.Links) {
		return fmt.Errorf("%w: link %d", ErrRange, link)
	}
	// A call naming no link of this object draws nothing; every later
	// rejection does (see nextSeq), so the draw sits exactly here.
	req.SLID = uint8(link)
	req.Seq = h.nextSeq(link)
	l := &d.Links[link]
	if !l.Active || l.DstCube != h.HostID() {
		return ErrNotHostLink
	}
	if linkDown(d, link) {
		return ErrLinkDown
	}
	if h.linkFailed(dev, link) {
		return ErrLinkFailed
	}
	if !req.Cmd.IsRequest() {
		return fmt.Errorf("hmcsim: cannot send %v packets", req.Cmd)
	}
	rs := &h.retry[dev][link]
	if l.RqstQ.Full() || rs.pending {
		h.stats.SendStalls++
		if h.mask&trace.KindXbarRqstStall != 0 {
			h.emit(trace.Event{
				Kind: trace.KindXbarRqstStall, Dev: dev, Link: link,
				Quad: l.Quad, Vault: trace.None, Bank: trace.None,
				Addr: req.Addr, Tag: req.Tag, Cmd: req.Cmd.String(),
				Aux: uint64(l.RqstQ.Len()),
			})
		}
		return ErrStall
	}
	p := h.pool.Get()
	if err := packet.BuildRequestInto(p, req); err != nil {
		h.pool.Put(p)
		return err
	}
	return h.acceptRequest(d, dev, link, l, rs, p)
}

// acceptRequest runs the ingress fault rolls and enqueues a fully formed
// pooled request packet. It owns p: on every outcome the packet ends up
// in the crossbar queue, the retry buffer, or back in the pool.
func (h *HMC) acceptRequest(d *device.Device, dev, link int, l *device.Link, rs *retryState, p *packet.Packet) error {
	if h.fault.LinkFailure() {
		// The transfer trips a hard SERDES failure: the packet is lost
		// on the wire and the link carries no further traffic. The host
		// re-issues on a surviving link.
		h.failLink(dev, link)
		h.pool.Put(p)
		return ErrLinkFailed
	}
	l.ReqFlits += uint64(p.Flits())
	if h.faultTransient(p) {
		// The transfer arrived CRC-corrupt. The transmitting link
		// controller keeps the packet in its retry buffer and replays
		// it on subsequent cycles — transparently to the host, which
		// sees the packet as accepted.
		h.holdRetry(rs, p, 1)
		h.stats.LinkRetransmits++
		if h.mask&trace.KindRetry != 0 {
			h.emit(trace.Event{
				Kind: trace.KindRetry, Dev: dev, Link: link, Quad: l.Quad,
				Vault: trace.None, Bank: trace.None,
				Addr: p.Addr(), Tag: p.Tag(), Cmd: p.Cmd().String(), Aux: 1,
			})
		}
		return nil
	}
	if h.mask&trace.KindSend != 0 {
		h.emit(trace.Event{
			Kind: trace.KindSend, Dev: dev, Link: link, Quad: l.Quad,
			Vault: trace.None, Bank: trace.None,
			Addr: p.Addr(), Tag: p.Tag(), Cmd: p.Cmd().String(),
		})
	}
	return l.RqstQ.Push(p, h.clk)
}

// Send submits a preformatted, fully formed, compliant request packet
// (head word, data words, tail word) on host link `link` of device `dev`.
// The packet interacts directly with the crossbar request queue of the
// target device: if the queue has no free slot, Send returns ErrStall and
// the host should clock the simulation before retrying.
//
// Flow-control packets (NULL, PRET, TRET, IRTRY) are consumed by the link
// logic immediately and never occupy queue slots.
//
// Note that the caller-supplied CRC must be valid: Send validates the
// packet exactly as a compliant device would. The source link identifier
// is stamped by the link logic on ingress.
func (h *HMC) Send(dev, link int, words []uint64) error {
	if err := h.seal(); err != nil {
		return err
	}
	d := h.Device(dev)
	if d == nil {
		return fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	if link < 0 || link >= len(d.Links) {
		return fmt.Errorf("%w: link %d", ErrRange, link)
	}
	l := &d.Links[link]
	if !l.Active || l.DstCube != h.HostID() {
		return ErrNotHostLink
	}
	if linkDown(d, link) {
		return ErrLinkDown
	}
	if h.linkFailed(dev, link) {
		return ErrLinkFailed
	}
	sp, err := packet.FromWords(words)
	if err != nil {
		return err
	}
	cmd := sp.Cmd()
	if cmd.IsFlow() {
		h.consumeFlow(l, &sp)
		return nil
	}
	if !cmd.IsRequest() {
		return fmt.Errorf("hmcsim: cannot send %v packets", cmd)
	}
	rs := &h.retry[dev][link]
	if l.RqstQ.Full() || rs.pending {
		// Genuine back-pressure: no free crossbar slot, or the link
		// controller is mid-retry and its buffer is occupied.
		h.stats.SendStalls++
		if h.mask&trace.KindXbarRqstStall != 0 {
			h.emit(trace.Event{
				Kind: trace.KindXbarRqstStall, Dev: dev, Link: link,
				Quad: l.Quad, Vault: trace.None, Bank: trace.None,
				Addr: sp.Addr(), Tag: sp.Tag(), Cmd: cmd.String(),
				Aux: uint64(l.RqstQ.Len()),
			})
		}
		return ErrStall
	}
	// The packet is accepted: move it into a pooled buffer the simulation
	// owns, stamping the ingress source link ID so the response can be
	// returned on the same link.
	p := h.pool.Get()
	*p = sp
	p.SetSLID(uint8(link))
	p.Finalize()
	return h.acceptRequest(d, dev, link, l, rs, p)
}

// consumeFlow applies a flow-control packet to the link logic.
func (h *HMC) consumeFlow(l *device.Link, p *packet.Packet) {
	h.stats.FlowPackets++
	switch p.Cmd() {
	case packet.CmdTRET:
		l.Tokens += int(p.RTC())
	case packet.CmdPRET:
		l.Tokens -= int(p.RTC())
	}
	// NULL and IRTRY are absorbed; the rudimentary retry model does not
	// replay link buffers.
}

// Recv polls host link `link` of device `dev` for a candidate response
// packet and returns it as fully formed packet words. Responses may arrive
// out of order; it is up to the calling application to decode and
// correlate the response tag to the originating request. Recv returns
// ErrStall when no response is waiting.
func (h *HMC) Recv(dev, link int) ([]uint64, error) {
	if err := h.seal(); err != nil {
		return nil, err
	}
	d := h.Device(dev)
	if d == nil {
		return nil, fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	if link < 0 || link >= len(d.Links) {
		return nil, fmt.Errorf("%w: link %d", ErrRange, link)
	}
	l := &d.Links[link]
	if !l.Active || l.DstCube != h.HostID() {
		return nil, ErrNotHostLink
	}
	if linkDown(d, link) {
		return nil, ErrLinkDown
	}
	if h.linkFailed(dev, link) {
		return nil, ErrLinkFailed
	}
	p, ok := l.RspQ.Pop()
	if !ok {
		return nil, ErrStall
	}
	h.stats.Recvs++
	l.RspFlits += uint64(p.Flits())
	out := make([]uint64, len(p.Words()))
	copy(out, p.Words())
	h.pool.Put(p)
	return out, nil
}

// RecvReady reports whether a receive on the port could return anything
// but ErrStall: a response is waiting, or the port is one a receive
// rejects (out of range, not a host link, down, failed), or the object is
// not sealed yet and the receive would seal it. A host that polls only
// ready ports sees every response and every error a host that polls all
// of them does, and pays for the empty ones with one bit test each.
func (h *HMC) RecvReady(dev, link int) bool {
	d := h.Device(dev)
	if !h.sealed || d == nil || link < 0 || link >= len(d.Links) {
		return true
	}
	if h.occ[dev].rsp&(1<<uint(link)) != 0 {
		return true
	}
	l := &d.Links[link]
	return !l.Active || l.DstCube != h.HostID() || linkDown(d, link) || h.linkFailed(dev, link)
}

// RecvPacket is Recv without the copy: it returns the decoded response
// directly. The Data slice of the result is only valid until the next
// simulation call.
func (h *HMC) RecvPacket(dev, link int) (packet.Response, error) {
	if err := h.seal(); err != nil {
		return packet.Response{}, err
	}
	d := h.Device(dev)
	if d == nil {
		return packet.Response{}, fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	if link < 0 || link >= len(d.Links) {
		return packet.Response{}, fmt.Errorf("%w: link %d", ErrRange, link)
	}
	l := &d.Links[link]
	if !l.Active || l.DstCube != h.HostID() {
		return packet.Response{}, ErrNotHostLink
	}
	if linkDown(d, link) {
		return packet.Response{}, ErrLinkDown
	}
	if h.linkFailed(dev, link) {
		return packet.Response{}, ErrLinkFailed
	}
	p, ok := l.RspQ.Pop()
	if !ok {
		return packet.Response{}, ErrStall
	}
	h.stats.Recvs++
	l.RspFlits += uint64(p.Flits())
	rsp, err := p.AsResponse()
	// The buffer is recycled immediately: per the documented contract the
	// returned Data slice is only valid until the next simulation call.
	h.pool.Put(p)
	return rsp, err
}

// DecodeMemResponse decodes raw response packet words, the analogue of
// hmcsim_decode_memresponse.
func DecodeMemResponse(words []uint64) (packet.Response, error) {
	p, err := packet.FromWords(words)
	if err != nil {
		return packet.Response{}, err
	}
	return p.AsResponse()
}
