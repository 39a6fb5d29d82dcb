package packet

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRequestRoundTrip(t *testing.T) {
	data := make([]uint64, 8)
	for i := range data {
		data[i] = uint64(i) * 0x0101010101010101
	}
	in := Request{
		CUB:  3,
		Addr: 0x2_DEAD_BEEF,
		Tag:  257,
		Cmd:  CmdWR64,
		SLID: 5,
		Seq:  6,
		Data: data,
	}
	p, err := BuildRequest(in)
	if err != nil {
		t.Fatalf("BuildRequest: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Flits() != 5 {
		t.Errorf("Flits() = %d, want 5", p.Flits())
	}
	out, err := p.AsRequest()
	if err != nil {
		t.Fatalf("AsRequest: %v", err)
	}
	if out.CUB != in.CUB || out.Addr != in.Addr || out.Tag != in.Tag ||
		out.Cmd != in.Cmd || out.SLID&0x7 != in.SLID&0x7 || out.Seq != in.Seq&0x7 {
		t.Errorf("round trip mismatch: in=%+v out=%+v", in, out)
	}
	for i := range data {
		if out.Data[i] != data[i] {
			t.Errorf("data[%d] = %#x, want %#x", i, out.Data[i], data[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	data := []uint64{0xAAAA, 0xBBBB}
	in := Response{
		CUB:     2,
		Tag:     511,
		Cmd:     CmdRDRS,
		SLID:    7,
		Seq:     3,
		ErrStat: 0,
		Data:    data,
	}
	p, err := BuildResponse(in)
	if err != nil {
		t.Fatalf("BuildResponse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := p.AsResponse()
	if err != nil {
		t.Fatalf("AsResponse: %v", err)
	}
	if out.CUB != in.CUB || out.Tag != in.Tag || out.Cmd != in.Cmd ||
		out.SLID != in.SLID || out.Seq != in.Seq || out.ErrStat != in.ErrStat ||
		out.DInv != in.DInv {
		t.Errorf("round trip mismatch: in=%+v out=%+v", in, out)
	}
	if out.Data[0] != 0xAAAA || out.Data[1] != 0xBBBB {
		t.Errorf("data mismatch: %v", out.Data)
	}
}

func TestReadRequestIsSingleFlit(t *testing.T) {
	// "Read requests are always configured using a single FLIT."
	for c := CmdRD16; c <= CmdRD128; c++ {
		p, err := BuildRequest(Request{Cmd: c, Addr: 0x1000})
		if err != nil {
			t.Fatalf("BuildRequest(%v): %v", c, err)
		}
		if p.Flits() != 1 || p.Bytes() != FlitBytes {
			t.Errorf("%v request: %d flits, %d bytes; want 1 flit, 16 bytes", c, p.Flits(), p.Bytes())
		}
	}
}

func TestMaxPacketSize(t *testing.T) {
	// "The maximum packet size contains 9 FLITs, or 144-bytes."
	p, err := BuildRequest(Request{Cmd: CmdWR128, Data: make([]uint64, 16)})
	if err != nil {
		t.Fatalf("BuildRequest(WR128): %v", err)
	}
	if p.Flits() != MaxFlits || p.Bytes() != 144 {
		t.Errorf("WR128 packet: %d flits, %d bytes; want 9 flits, 144 bytes", p.Flits(), p.Bytes())
	}
}

func TestBuildRequestRejectsBadInput(t *testing.T) {
	if _, err := BuildRequest(Request{Cmd: CmdRDRS}); err == nil {
		t.Error("BuildRequest accepted a response command")
	}
	if _, err := BuildRequest(Request{Cmd: CmdWR64, Data: make([]uint64, 4)}); err == nil {
		t.Error("BuildRequest accepted short data for WR64")
	}
	if _, err := BuildRequest(Request{Cmd: CmdRD16, Addr: 1 << AddrBits}); err == nil {
		t.Error("BuildRequest accepted out-of-range address")
	}
	if _, err := BuildRequest(Request{Cmd: CmdRD16, Tag: MaxTag + 1}); err == nil {
		t.Error("BuildRequest accepted out-of-range tag")
	}
}

func TestBuildResponseRejectsBadInput(t *testing.T) {
	if _, err := BuildResponse(Response{Cmd: CmdRD16}); err == nil {
		t.Error("BuildResponse accepted a request command")
	}
	if _, err := BuildResponse(Response{Cmd: CmdRDRS, Data: make([]uint64, 3)}); err == nil {
		t.Error("BuildResponse accepted non-FLIT-aligned data")
	}
	if _, err := BuildResponse(Response{Cmd: CmdRDRS, Data: make([]uint64, 18)}); err == nil {
		t.Error("BuildResponse accepted oversize data")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	p, err := BuildRequest(Request{Cmd: CmdWR32, Addr: 0xABCD, Data: make([]uint64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !p.VerifyCRC() {
		t.Fatal("fresh packet fails CRC")
	}
	// Flip every bit position in turn (excluding the CRC field itself) and
	// confirm detection.
	for w := int32(0); w < p.words; w++ {
		for bit := 0; bit < 64; bit++ {
			if w == p.words-1 && bit >= 32 {
				continue // CRC field
			}
			p.raw[w] ^= 1 << bit
			if p.VerifyCRC() {
				t.Fatalf("single-bit corruption at word %d bit %d undetected", w, bit)
			}
			p.raw[w] ^= 1 << bit
		}
	}
}

func TestMutationThenFinalizeRestoresCRC(t *testing.T) {
	p, err := BuildRequest(Request{Cmd: CmdRD64, Addr: 0x1234, Tag: 42})
	if err != nil {
		t.Fatal(err)
	}
	p.SetSLID(3)
	if p.VerifyCRC() {
		t.Error("CRC unexpectedly valid after mutation without Finalize")
	}
	p.Finalize()
	if !p.VerifyCRC() {
		t.Error("CRC invalid after Finalize")
	}
	if p.SLID() != 3 {
		t.Errorf("SLID = %d, want 3", p.SLID())
	}
	if p.Addr() != 0x1234 || p.Tag() != 42 {
		t.Error("SetSLID corrupted other fields")
	}
}

// TestVerifyCRCZeroPacket holds VerifyCRC and Finalize to packets whose
// word count is no packet length: the check fails and the stamp does
// nothing, where both used to index the word before the first.
func TestVerifyCRCZeroPacket(t *testing.T) {
	for _, n := range []int32{0, 1, MaxWords + 1, MaxWords + 2} {
		p := Packet{words: n}
		if p.VerifyCRC() {
			t.Errorf("%d words: VerifyCRC = true", n)
		}
		p.Finalize()
		if p != (Packet{words: n}) {
			t.Errorf("%d words: Finalize wrote %x", n, p.raw)
		}
		if err := p.Validate(); err != ErrBadLength {
			t.Errorf("%d words: Validate = %v, want ErrBadLength", n, err)
		}
	}
}

// TestPacketSize pins the packet buffer at 160 bytes: the CRC-pending
// mark and the retry count pack beside the word count, and the arrival
// clock fills the rest of the 160-byte size class a 152-byte object
// already took, instead of growing every pool slab.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 160 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want 160", got)
	}
}

// TestIntoBuildersMatchValueBuilders is the stamp contract: a packet
// built in place, whose CRC waits for the first read of its words, reads
// exactly as the CRC-stamped packet the value builder returns — request,
// response, error response, and a response built over its own request's
// buffer as the vault stages do.
func TestIntoBuildersMatchValueBuilders(t *testing.T) {
	same := func(what string, into, value *Packet) bool {
		if !slices.Equal(into.Words(), value.Words()) || !into.VerifyCRC() {
			t.Logf("%s: in place %x, value %x", what, into.Words(), value.Words())
			return false
		}
		return true
	}
	f := func(seed int64, errStat uint8, dinv bool) bool {
		r := rand.New(rand.NewSource(seed))
		req := quickRequest(r)
		want, err := BuildRequest(req)
		if err != nil {
			return false
		}
		var got Packet
		if err := BuildRequestInto(&got, req); err != nil || !same("request", &got, &want) {
			return false
		}
		rsp := Response{
			CUB: uint8(r.Intn(MaxCUB + 1)), Tag: req.Tag, Cmd: CmdRDRS,
			SLID: req.SLID, Seq: req.Seq, ErrStat: errStat, DInv: dinv,
			Data: make([]uint64, WordsPerFlit*r.Intn(MaxFlits)),
		}
		for i := range rsp.Data {
			rsp.Data[i] = r.Uint64()
		}
		wantRsp, err := BuildResponse(rsp)
		if err != nil {
			return false
		}
		var gotRsp Packet
		if err := BuildResponseInto(&gotRsp, rsp); err != nil || !same("response", &gotRsp, &wantRsp) {
			return false
		}
		// In place over the request's buffer, read or not before.
		if r.Intn(2) == 0 {
			got.Words()
		}
		if err := BuildResponseInto(&got, rsp); err != nil || !same("response over its request", &got, &wantRsp) {
			return false
		}
		wantErr := ErrorResponse(&want, rsp.CUB, errStat)
		var gotErr Packet
		ErrorResponseInto(&gotErr, &want, rsp.CUB, errStat)
		if !same("error response", &gotErr, &wantErr) {
			return false
		}
		ErrorResponseInto(&want, &want, rsp.CUB, errStat)
		return same("error response over its request", &want, &wantErr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSetCUB(t *testing.T) {
	p, err := BuildRequest(Request{Cmd: CmdRD16, CUB: 1, Addr: 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	p.SetCUB(33)
	p.Finalize()
	if p.CUB() != 33 {
		t.Errorf("CUB = %d, want 33", p.CUB())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate after SetCUB: %v", err)
	}
}

func TestResponseSLIDLivesInHeader(t *testing.T) {
	rsp, err := BuildResponse(Response{Cmd: CmdWRRS, SLID: 5, Tag: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.SLID() != 5 {
		t.Errorf("response SLID = %d, want 5", rsp.SLID())
	}
	rsp.SetSLID(2)
	rsp.Finalize()
	if rsp.SLID() != 2 {
		t.Errorf("response SLID after SetSLID = %d, want 2", rsp.SLID())
	}
	if rsp.Tag() != 10 {
		t.Error("SetSLID corrupted the response tag")
	}
}

func TestFromWordsValidates(t *testing.T) {
	p, err := BuildRequest(Request{Cmd: CmdWR16, Addr: 0x40, Data: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	words := append([]uint64(nil), p.Words()...)
	q, err := FromWords(words)
	if err != nil {
		t.Fatalf("FromWords: %v", err)
	}
	if q.Cmd() != CmdWR16 || q.Addr() != 0x40 {
		t.Error("FromWords field mismatch")
	}

	// Corrupt the payload: CRC must catch it.
	words[1] ^= 1
	if _, err := FromWords(words); err == nil {
		t.Error("FromWords accepted corrupted packet")
	}
	words[1] ^= 1

	// Odd word counts are not whole FLITs.
	if _, err := FromWords(words[:3]); err == nil {
		t.Error("FromWords accepted non-FLIT-aligned words")
	}
	if _, err := FromWords(nil); err == nil {
		t.Error("FromWords accepted empty input")
	}
	if _, err := FromWords(make([]uint64, MaxWords+2)); err == nil {
		t.Error("FromWords accepted oversize input")
	}
}

func TestErrorResponse(t *testing.T) {
	req, err := BuildRequest(Request{Cmd: CmdRD64, CUB: 9, Addr: 0x100, Tag: 77, SLID: 4, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	rsp := ErrorResponse(&req, 9, ErrStatVault)
	if rsp.Cmd() != CmdError {
		t.Errorf("cmd = %v, want ERROR", rsp.Cmd())
	}
	if rsp.Tag() != 77 || rsp.SLID() != 4 || rsp.Seq() != 2 {
		t.Errorf("error response did not preserve correlation fields: tag=%d slid=%d seq=%d",
			rsp.Tag(), rsp.SLID(), rsp.Seq())
	}
	if rsp.ErrStat() != ErrStatVault {
		t.Errorf("errstat = %#x, want %#x", rsp.ErrStat(), ErrStatVault)
	}
	if !rsp.DInv() {
		t.Error("error response should set DINV")
	}
	if err := rsp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildFlow(t *testing.T) {
	for _, c := range []Command{CmdNULL, CmdPRET, CmdTRET, CmdIRTRY} {
		p, err := BuildFlow(c, 9)
		if err != nil {
			t.Fatalf("BuildFlow(%v): %v", c, err)
		}
		if p.Flits() != 1 {
			t.Errorf("flow packet %v is %d flits", c, p.Flits())
		}
		if p.RTC() != 9 {
			t.Errorf("RTC = %d, want 9", p.RTC())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", c, err)
		}
	}
	if _, err := BuildFlow(CmdRD16, 0); err == nil {
		t.Error("BuildFlow accepted a non-flow command")
	}
}

func TestDLNMismatchDetected(t *testing.T) {
	p, err := BuildRequest(Request{Cmd: CmdRD16, Addr: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt DLN and re-finalize so only the DLN check can catch it.
	p.raw[0] ^= uint64(1) << dlnShift
	p.Finalize()
	if err := p.Validate(); err != ErrBadDLN {
		t.Errorf("Validate = %v, want ErrBadDLN", err)
	}
}

// quickRequest generates a random but well-formed request for property
// tests.
func quickRequest(r *rand.Rand) Request {
	cmds := []Command{
		CmdRD16, CmdRD32, CmdRD64, CmdRD128,
		CmdWR16, CmdWR32, CmdWR64, CmdWR128,
		CmdPWR16, CmdPWR64, CmdBWR, Cmd2ADD8, CmdADD16,
		CmdMDRD, CmdMDWR,
	}
	cmd := cmds[r.Intn(len(cmds))]
	data := make([]uint64, cmd.DataBytes()/8)
	for i := range data {
		data[i] = r.Uint64()
	}
	return Request{
		CUB:  uint8(r.Intn(MaxCUB + 1)),
		Addr: r.Uint64() & (1<<AddrBits - 1),
		Tag:  uint16(r.Intn(MaxTag + 1)),
		Cmd:  cmd,
		SLID: uint8(r.Intn(8)),
		Seq:  uint8(r.Intn(8)),
		Data: data,
	}
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := quickRequest(r)
		p, err := BuildRequest(in)
		if err != nil {
			t.Logf("BuildRequest: %v", err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		out, err := p.AsRequest()
		if err != nil {
			return false
		}
		if out.CUB != in.CUB || out.Addr != in.Addr || out.Tag != in.Tag ||
			out.Cmd != in.Cmd || out.SLID != in.SLID || out.Seq != in.Seq {
			return false
		}
		for i := range in.Data {
			if out.Data[i] != in.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCRCDetectsSingleBitFlips(t *testing.T) {
	f := func(seed int64, wordSel, bitSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p, err := BuildRequest(quickRequest(r))
		if err != nil {
			return false
		}
		w := int32(wordSel) % p.words
		bit := int(bitSel) % 64
		if w == p.words-1 && bit >= 32 {
			return true // flipping the CRC field itself; skip
		}
		p.raw[w] ^= 1 << bit
		return !p.VerifyCRC()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWordsRoundTripThroughFromWords(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, err := BuildRequest(quickRequest(r))
		if err != nil {
			return false
		}
		q, err := FromWords(p.Words())
		if err != nil {
			return false
		}
		pw, qw := p.Words(), q.Words()
		if len(pw) != len(qw) {
			return false
		}
		for i := range pw {
			if pw[i] != qw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCRCKnownValues(t *testing.T) {
	// Pin the CRC implementation so the wire format stays stable across
	// refactors.
	if got := CRC([]uint64{0}); got != crcUpdate(0, 0) {
		t.Errorf("CRC([0]) = %#x inconsistent with crcUpdate", got)
	}
	got1 := CRC([]uint64{0x0123456789ABCDEF})
	got2 := CRC([]uint64{0x0123456789ABCDEF})
	if got1 != got2 {
		t.Error("CRC not deterministic")
	}
	if CRC([]uint64{1}) == CRC([]uint64{2}) {
		t.Error("CRC collision on trivially distinct inputs")
	}
}

func BenchmarkPacketBuildRequest(b *testing.B) {
	data := make([]uint64, 8)
	var i uint64
	for b.Loop() {
		_, err := BuildRequest(Request{
			CUB: 1, Addr: i & 0x3FFFFFFF, Tag: uint16(i) & MaxTag,
			Cmd: CmdWR64, Data: data,
		})
		if err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkPacketDecodeResponse(b *testing.B) {
	p, err := BuildResponse(Response{
		CUB: 1, Tag: 3, Cmd: CmdRDRS, Data: make([]uint64, 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := p.AsResponse(); err != nil {
			b.Fatal(err)
		}
	}
}
