package packet

import (
	"errors"
	"fmt"
)

// Packet geometry. A FLIT (flow unit) is 16 bytes, i.e. two 64-bit words.
// Every packet is between 1 and 9 FLITs: a 64-bit header word, zero or more
// data words, and a 64-bit tail word.
const (
	// FlitBytes is the size of one flow unit.
	FlitBytes = 16
	// WordsPerFlit is the number of 64-bit words per FLIT.
	WordsPerFlit = 2
	// MaxFlits is the maximum packet length defined by the specification.
	MaxFlits = 9
	// MaxWords is the maximum packet length in 64-bit words.
	MaxWords = MaxFlits * WordsPerFlit
	// MaxDataBytes is the largest request or response data payload.
	MaxDataBytes = (MaxFlits - 1) * FlitBytes
)

// Header bit layout (all packets):
//
//	[5:0]   CMD      command code
//	[6]     reserved
//	[10:7]  LNG      packet length in FLITs
//	[14:11] DLN      duplicate of LNG (integrity cross-check)
//	[23:15] TAG      9-bit transaction tag
//	[57:24] ADRS     34-bit physical address (requests)
//	[26:24] SLID     source link ID (responses; shares the ADRS field)
//	[63:58] CUB      cube ID (3 specification bits [63:61] plus the adjacent
//	                 reserved bits as an extended 6-bit field; see below)
//
// Tail bit layout (all packets):
//
//	[7:0]   RRP      return retry pointer
//	[15:8]  FRP      forward retry pointer
//	[18:16] SEQ      sequence number
//	[19]    DINV     data-invalid indicator (responses)
//	[26:20] ERRSTAT  error status (responses)
//	[26:24] SLID     source link ID (requests; overlays ERRSTAT bits)
//	[31:27] RTC      return token count
//	[63:32] CRC      Koopman CRC-32 over the packet with this field zeroed
//
// Extended CUB: the specification's 3-bit CUB limits a chained network to
// eight cubes, which is too small for the mesh and torus topologies of the
// paper's Figure 1. HMC-Sim in Go widens CUB into the adjacent reserved
// header bits, giving 6 bits (up to 62 devices plus the host ID).
// Configurations with at most 7 devices remain bit-compatible with the
// specification layout.
const (
	cmdShift, cmdMask   = 0, 0x3F
	lngShift, lngMask   = 7, 0xF
	dlnShift, dlnMask   = 11, 0xF
	tagShift, tagMask   = 15, 0x1FF
	adrsShift, adrsMask = 24, 0x3_FFFF_FFFF // 34 bits
	cubShift, cubMask   = 58, 0x3F

	rrpShift, rrpMask         = 0, 0xFF
	frpShift, frpMask         = 8, 0xFF
	seqShift, seqMask         = 16, 0x7
	dinvShift                 = 19
	errStatShift, errStatMask = 20, 0x7F
	slidShift, slidMask       = 24, 0x7
	rtcShift, rtcMask         = 27, 0x1F
	crcShift                  = 32

	// crcFieldMask selects the CRC field within the tail word.
	crcFieldMask uint64 = 0xFFFFFFFF << crcShift
)

// TagBits is the width of the transaction tag field; tags range over
// [0, MaxTag].
const (
	TagBits = 9
	MaxTag  = 1<<TagBits - 1
)

// AddrBits is the width of the physical address field.
const AddrBits = 34

// MaxCUB is the largest cube ID representable in the extended CUB field.
const MaxCUB = cubMask

// ERRSTAT codes reported by error response packets. The zero value means
// no error.
const (
	ErrStatOK        uint8 = 0x00
	ErrStatCube      uint8 = 0x01 // destination cube unreachable / invalid
	ErrStatVault     uint8 = 0x02 // vault decode out of range
	ErrStatBank      uint8 = 0x03 // bank decode out of range
	ErrStatCmd       uint8 = 0x04 // command unsupported at the vault
	ErrStatAddr      uint8 = 0x05 // physical address out of configured range
	ErrStatTopology  uint8 = 0x06 // no route to destination (misconfigured topology)
	ErrStatLinkCRC   uint8 = 0x07 // link retry budget exhausted (persistent CRC faults)
	ErrStatVaultFail uint8 = 0x08 // request targets a permanently failed vault
	ErrStatPoison    uint8 = 0x09 // read data poisoned by a vault fault
	ErrStatRegister  uint8 = 0x20 // invalid register index in a mode request
)

// Errors returned by packet validation and decoding.
var (
	ErrBadLength = errors.New("packet: length field does not match packet size")
	ErrBadCRC    = errors.New("packet: CRC mismatch")
	ErrBadDLN    = errors.New("packet: DLN does not duplicate LNG")
	ErrBadCmd    = errors.New("packet: unknown command code")
	ErrNotReq    = errors.New("packet: not a request packet")
	ErrNotRsp    = errors.New("packet: not a response packet")
)

// Packet is a fully formed HMC packet: a header word, optional data words
// and a tail word. The zero Packet is invalid; construct packets with
// BuildRequest, BuildResponse, BuildFlow or FromWords.
type Packet struct {
	raw   [MaxWords]uint64
	words int32
	// crcDue marks a packet built in place (BuildRequestInto,
	// BuildResponseInto) whose CRC field is still zero: the stamp is
	// computed from the words when they are first read (Words,
	// VerifyCRC), not when they are written. It packs beside words.
	crcDue bool
	// Retries counts the transparent link-level retransmissions the
	// packet has consumed on its current hop (fault model); it persists
	// across clock edges until the packet moves on. Arrived records the
	// device clock at which the packet entered the queue holding it, for
	// the link-latency dwell and the idle-skip wheel. queue.Queue.Push
	// stamps both; neither is part of the packet's words or of any
	// digest. A Packet is 160 bytes.
	Retries uint8
	Arrived uint64
}

// Words returns the packet contents as a slice of 64-bit words backed by
// the packet's storage: header, data..., tail. A packet built in place
// has its CRC stamped here, on the first read of its words, so the
// words returned always carry a valid CRC unless a field was mutated
// after the stamp without Finalize.
func (p *Packet) Words() []uint64 {
	if p.crcDue {
		p.Finalize()
	}
	return p.raw[:p.words]
}

// Flits returns the packet length in FLITs.
func (p *Packet) Flits() int { return int(p.words) / WordsPerFlit }

// Bytes returns the packet length in bytes.
func (p *Packet) Bytes() int { return int(p.words) * 8 }

func (p *Packet) header() uint64 { return p.raw[0] }
func (p *Packet) tail() uint64   { return p.raw[p.words-1] }

// sized reports whether the word count is a packet length the
// specification allows, whole FLITs or not.
func (p *Packet) sized() bool { return p.words >= WordsPerFlit && p.words <= MaxWords }

// Cmd returns the packet command code.
func (p *Packet) Cmd() Command { return Command(p.header() >> cmdShift & cmdMask) }

// LNG returns the header length field in FLITs.
func (p *Packet) LNG() int { return int(p.header() >> lngShift & lngMask) }

// DLN returns the duplicate length field in FLITs.
func (p *Packet) DLN() int { return int(p.header() >> dlnShift & dlnMask) }

// Tag returns the 9-bit transaction tag.
func (p *Packet) Tag() uint16 { return uint16(p.header() >> tagShift & tagMask) }

// Addr returns the 34-bit physical address field. Only meaningful for
// request packets.
func (p *Packet) Addr() uint64 { return p.header() >> adrsShift & adrsMask }

// CUB returns the destination (requests) or source (responses) cube ID.
func (p *Packet) CUB() uint8 { return uint8(p.header() >> cubShift & cubMask) }

// Seq returns the 3-bit sequence number from the tail.
func (p *Packet) Seq() uint8 { return uint8(p.tail() >> seqShift & seqMask) }

// RRP returns the return retry pointer from the tail.
func (p *Packet) RRP() uint8 { return uint8(p.tail() >> rrpShift & rrpMask) }

// FRP returns the forward retry pointer from the tail.
func (p *Packet) FRP() uint8 { return uint8(p.tail() >> frpShift & frpMask) }

// RTC returns the return token count from the tail.
func (p *Packet) RTC() uint8 { return uint8(p.tail() >> rtcShift & rtcMask) }

// SLID returns the source link ID. For request packets it lives in the
// tail; for response packets it lives in the header (sharing the unused
// address field).
func (p *Packet) SLID() uint8 {
	if p.Cmd().IsResponse() {
		return uint8(p.header() >> adrsShift & slidMask)
	}
	return uint8(p.tail() >> slidShift & slidMask)
}

// ErrStat returns the error status field. Only meaningful for responses.
func (p *Packet) ErrStat() uint8 { return uint8(p.tail() >> errStatShift & errStatMask) }

// DInv reports the data-invalid indicator. Only meaningful for responses.
func (p *Packet) DInv() bool { return p.tail()>>dinvShift&1 == 1 }

// Data returns the packet data words (everything between header and tail),
// backed by the packet's storage. Reading the data does not stamp the
// CRC: the CRC field lives in the tail.
func (p *Packet) Data() []uint64 { return p.raw[1 : p.words-1] }

// SetCUB rewrites the cube ID field. Finalize must be called afterwards to
// restore CRC validity.
func (p *Packet) SetCUB(cub uint8) {
	p.raw[0] = p.raw[0]&^(uint64(cubMask)<<cubShift) | uint64(cub&cubMask)<<cubShift
}

// SetSLID rewrites the source link ID. Devices stamp the ingress link into
// arriving request packets so that responses can be returned on the same
// link. Finalize must be called afterwards to restore CRC validity.
func (p *Packet) SetSLID(slid uint8) {
	if p.Cmd().IsResponse() {
		p.raw[0] = p.raw[0]&^(uint64(slidMask)<<adrsShift) | uint64(slid&slidMask)<<adrsShift
		return
	}
	i := p.words - 1
	p.raw[i] = p.raw[i]&^(uint64(slidMask)<<slidShift) | uint64(slid&slidMask)<<slidShift
}

// SetSeq rewrites the sequence number in the tail. Finalize must be called
// afterwards to restore CRC validity.
func (p *Packet) SetSeq(seq uint8) {
	i := p.words - 1
	p.raw[i] = p.raw[i]&^(uint64(seqMask)<<seqShift) | uint64(seq&seqMask)<<seqShift
}

// SetRTC rewrites the return token count in the tail. Finalize must be
// called afterwards to restore CRC validity.
func (p *Packet) SetRTC(rtc uint8) {
	i := p.words - 1
	p.raw[i] = p.raw[i]&^(uint64(rtcMask)<<rtcShift) | uint64(rtc&rtcMask)<<rtcShift
}

// Finalize recomputes and stores the packet CRC. It must be called after
// any field mutation. On a packet whose word count is no packet length
// (the zero Packet, say) it does nothing.
func (p *Packet) Finalize() {
	if !p.sized() {
		return
	}
	p.crcDue = false
	i := p.words - 1
	p.raw[i] &^= crcFieldMask
	crc := CRC(p.raw[:p.words])
	p.raw[i] |= uint64(crc) << crcShift
}

// VerifyCRC reports whether the stored CRC matches the packet contents. A
// packet built in place and not yet read is stamped here (see Words), and
// matches by construction. A packet whose word count is no packet length
// fails.
func (p *Packet) VerifyCRC() bool {
	if !p.sized() {
		return false
	}
	if p.crcDue {
		p.Finalize()
		return true
	}
	i := p.words - 1
	stored := uint32(p.raw[i] >> crcShift)
	saved := p.raw[i]
	p.raw[i] &^= crcFieldMask
	crc := CRC(p.raw[:p.words])
	p.raw[i] = saved
	return crc == stored
}

// Validate checks structural packet integrity: a known command, matching
// LNG/DLN fields, a length field consistent with the stored word count, and
// a valid CRC.
func (p *Packet) Validate() error {
	if !p.sized() || p.words%WordsPerFlit != 0 {
		return ErrBadLength
	}
	if !p.Cmd().Valid() {
		return fmt.Errorf("%w: %#02x", ErrBadCmd, uint8(p.Cmd()))
	}
	if p.LNG() != p.Flits() {
		return ErrBadLength
	}
	if p.DLN() != p.LNG() {
		return ErrBadDLN
	}
	if !p.VerifyCRC() {
		return ErrBadCRC
	}
	return nil
}

// FromWords constructs a packet from raw words (header, data..., tail) as
// produced by an external host implementation, and validates it.
func FromWords(words []uint64) (Packet, error) {
	var p Packet
	if len(words) < WordsPerFlit || len(words) > MaxWords || len(words)%WordsPerFlit != 0 {
		return p, ErrBadLength
	}
	p.words = int32(len(words))
	copy(p.raw[:], words)
	if err := p.Validate(); err != nil {
		return Packet{}, err
	}
	return p, nil
}

func buildHeader(cmd Command, flits int, tag uint16, addrOrSlid uint64, cub uint8) uint64 {
	return uint64(cmd&cmdMask)<<cmdShift |
		uint64(flits&lngMask)<<lngShift |
		uint64(flits&dlnMask)<<dlnShift |
		uint64(tag&tagMask)<<tagShift |
		(addrOrSlid&adrsMask)<<adrsShift |
		uint64(cub&cubMask)<<cubShift
}

// Request describes a request packet in decoded form.
type Request struct {
	CUB  uint8   // destination cube ID
	Addr uint64  // 34-bit physical address (register index for mode requests)
	Tag  uint16  // 9-bit transaction tag
	Cmd  Command // request command
	SLID uint8   // source link ID
	Seq  uint8   // sequence number
	Data []uint64
}

// BuildRequest encodes r as a fully formed, CRC-stamped packet. The data
// payload length must match the command's defined payload size.
func BuildRequest(r Request) (Packet, error) {
	var p Packet
	if err := BuildRequestInto(&p, r); err != nil {
		return Packet{}, err
	}
	p.Finalize()
	return p, nil
}

// BuildRequestInto encodes r into p's storage without allocating: the
// zero-copy companion of BuildRequest used by the simulation hot path
// with pooled packets. The CRC is not computed here: the tail's CRC
// field is left zero and the packet marked, and the first read of its
// words (Words, VerifyCRC, Validate) stamps it, so a packet whose words
// never leave the engine never pays for one. On error p is left
// unspecified.
func BuildRequestInto(p *Packet, r Request) error {
	if !r.Cmd.IsRequest() && !r.Cmd.IsFlow() {
		return fmt.Errorf("packet: %v is not a request command", r.Cmd)
	}
	want := r.Cmd.DataBytes() / 8
	if len(r.Data) != want {
		return fmt.Errorf("packet: %v requires %d data words, got %d", r.Cmd, want, len(r.Data))
	}
	if r.Addr > adrsMask {
		return fmt.Errorf("packet: address %#x exceeds %d bits", r.Addr, AddrBits)
	}
	if r.Tag > MaxTag {
		return fmt.Errorf("packet: tag %d exceeds %d bits", r.Tag, TagBits)
	}
	flits := r.Cmd.Flits()
	p.words = int32(flits * WordsPerFlit)
	p.raw[0] = buildHeader(r.Cmd, flits, r.Tag, r.Addr, r.CUB)
	copy(p.raw[1:p.words-1], r.Data)
	p.raw[p.words-1] = uint64(r.SLID&slidMask)<<slidShift | uint64(r.Seq&seqMask)<<seqShift
	p.crcDue = true
	return nil
}

// AsRequest decodes p into Request form. The returned Data slice aliases
// the packet storage.
func (p *Packet) AsRequest() (Request, error) {
	if !p.Cmd().IsRequest() {
		return Request{}, ErrNotReq
	}
	return Request{
		CUB:  p.CUB(),
		Addr: p.Addr(),
		Tag:  p.Tag(),
		Cmd:  p.Cmd(),
		SLID: p.SLID(),
		Seq:  p.Seq(),
		Data: p.Data(),
	}, nil
}

// Response describes a response packet in decoded form.
type Response struct {
	CUB     uint8   // cube ID of the responding device
	Tag     uint16  // tag copied from the originating request
	Cmd     Command // response command
	SLID    uint8   // source link the originating request arrived on
	Seq     uint8
	ErrStat uint8
	DInv    bool
	Data    []uint64
}

// BuildResponse encodes r as a fully formed, CRC-stamped packet.
func BuildResponse(r Response) (Packet, error) {
	var p Packet
	if err := BuildResponseInto(&p, r); err != nil {
		return Packet{}, err
	}
	p.Finalize()
	return p, nil
}

// BuildResponseInto encodes r into p's storage without allocating. p may
// be the very packet the request arrived in (the vault stages recycle the
// request's pooled buffer for its response); r.Data must not alias p's
// data words in that case. Like BuildRequestInto it leaves the CRC to
// the first read of the words. On error p is left unspecified.
func BuildResponseInto(p *Packet, r Response) error {
	if !r.Cmd.IsResponse() {
		return fmt.Errorf("packet: %v is not a response command", r.Cmd)
	}
	if len(r.Data)%WordsPerFlit != 0 || len(r.Data) > MaxWords-WordsPerFlit {
		return fmt.Errorf("packet: response data must be whole FLITs, got %d words", len(r.Data))
	}
	flits := 1 + len(r.Data)/WordsPerFlit
	p.words = int32(flits * WordsPerFlit)
	p.raw[0] = buildHeader(r.Cmd, flits, r.Tag, uint64(r.SLID&slidMask), r.CUB)
	copy(p.raw[1:p.words-1], r.Data)
	tail := uint64(r.Seq&seqMask)<<seqShift |
		uint64(r.ErrStat&errStatMask)<<errStatShift
	if r.DInv {
		tail |= 1 << dinvShift
	}
	p.raw[p.words-1] = tail
	p.crcDue = true
	return nil
}

// AsResponse decodes p into Response form. The returned Data slice aliases
// the packet storage.
func (p *Packet) AsResponse() (Response, error) {
	if !p.Cmd().IsResponse() {
		return Response{}, ErrNotRsp
	}
	return Response{
		CUB:     p.CUB(),
		Tag:     p.Tag(),
		Cmd:     p.Cmd(),
		SLID:    p.SLID(),
		Seq:     p.Seq(),
		ErrStat: p.ErrStat(),
		DInv:    p.DInv(),
		Data:    p.Data(),
	}, nil
}

// BuildFlow encodes a single-FLIT flow-control packet (NULL, PRET, TRET or
// IRTRY) carrying a return token count.
func BuildFlow(cmd Command, rtc uint8) (Packet, error) {
	var p Packet
	if !cmd.IsFlow() {
		return p, fmt.Errorf("packet: %v is not a flow command", cmd)
	}
	p.words = WordsPerFlit
	p.raw[0] = buildHeader(cmd, 1, 0, 0, 0)
	p.raw[1] = uint64(rtc&rtcMask) << rtcShift
	p.Finalize()
	return p, nil
}

// ErrorResponse builds an error response packet for the request req with
// the given error status, preserving the request's tag, SLID and sequence
// number so the host can correlate the failure.
func ErrorResponse(req *Packet, cub uint8, errStat uint8) Packet {
	var p Packet
	ErrorResponseInto(&p, req, cub, errStat)
	p.Finalize()
	return p
}

// ErrorResponseInto is ErrorResponse without the copy: it encodes the
// error response into p's storage. p may be req itself — the correlation
// fields are captured before the storage is overwritten, so a queued
// packet can be poisoned in place. It builds through BuildResponseInto,
// so the CRC is stamped when the words are first read.
func ErrorResponseInto(p *Packet, req *Packet, cub uint8, errStat uint8) {
	r := Response{
		CUB:     cub,
		Tag:     req.Tag(),
		Cmd:     CmdError,
		SLID:    req.SLID(),
		Seq:     req.Seq(),
		ErrStat: errStat,
		DInv:    true,
	}
	if err := BuildResponseInto(p, r); err != nil {
		// BuildResponseInto cannot fail for a dataless CmdError packet.
		panic("packet: ErrorResponse: " + err.Error())
	}
}

// String returns a one-line human-readable rendering of the packet.
func (p *Packet) String() string {
	c := p.Cmd()
	if c.IsResponse() {
		return fmt.Sprintf("%v cub=%d tag=%d slid=%d errstat=%#02x flits=%d",
			c, p.CUB(), p.Tag(), p.SLID(), p.ErrStat(), p.Flits())
	}
	return fmt.Sprintf("%v cub=%d tag=%d addr=%#x slid=%d flits=%d",
		c, p.CUB(), p.Tag(), p.Addr(), p.SLID(), p.Flits())
}
