package packet

import (
	"slices"
	"testing"
)

// FuzzErrorResponse drives the ERROR-response path of the fault model:
// arbitrary word soup — malformed tags, truncated payloads, corrupt CRCs
// — is decoded, and every packet the validator accepts is converted to a
// CmdError response, which must encode and decode losslessly with the
// correlation fields (tag, source link, sequence) preserved.
func FuzzErrorResponse(f *testing.F) {
	req, err := BuildRequest(Request{Cmd: CmdRD64, Addr: 0x1000, Tag: 42, SLID: 3, Seq: 5})
	if err != nil {
		f.Fatal(err)
	}
	rsp, err := BuildResponse(Response{Cmd: CmdRDRS, Tag: 511, SLID: 7, Data: make([]uint64, 8)})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []Packet{req, rsp} {
		var seed []byte
		for _, w := range p.Words() {
			for i := 0; i < 8; i++ {
				seed = append(seed, byte(w>>(8*i)))
			}
		}
		f.Add(seed, uint8(0), uint8(ErrStatLinkCRC))
		// A truncated variant: the tail word is cut off.
		f.Add(seed[:len(seed)-8], uint8(1), uint8(ErrStatVaultFail))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cub, errStat uint8) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(raw[i*8+b]) << (8 * b)
			}
		}
		p, err := FromWords(words)
		if err != nil {
			// Malformed input must be rejected, never panic.
			return
		}
		e := ErrorResponse(&p, cub, errStat)
		// The in-place builder, whose CRC waits for the first read of the
		// words, must read exactly as the stamped value.
		var into Packet
		ErrorResponseInto(&into, &p, cub, errStat)
		if !slices.Equal(into.Words(), e.Words()) {
			t.Fatalf("ErrorResponseInto words %x, ErrorResponse words %x", into.Words(), e.Words())
		}
		out, err := FromWords(e.Words())
		if err != nil {
			t.Fatalf("ERROR response failed re-decode: %v\nsource: %v", err, p.String())
		}
		if out.Cmd() != CmdError {
			t.Fatalf("re-decoded command = %v, want CmdError", out.Cmd())
		}
		if out.Tag() != p.Tag() || out.SLID() != p.SLID() || out.Seq() != p.Seq() {
			t.Fatalf("correlation fields corrupted: got tag=%d slid=%d seq=%d, want tag=%d slid=%d seq=%d",
				out.Tag(), out.SLID(), out.Seq(), p.Tag(), p.SLID(), p.Seq())
		}
		if want := errStat & errStatMask; out.ErrStat() != want {
			t.Fatalf("ERRSTAT = %#x, want %#x", out.ErrStat(), want)
		}
		r, err := out.AsResponse()
		if err != nil {
			t.Fatalf("AsResponse on ERROR response: %v", err)
		}
		if !r.DInv {
			t.Fatal("ERROR response without DINV")
		}
	})
}
