package packet

import (
	"math/rand"
	"testing"
)

// crcBitSerial is the reference CRC: the Koopman polynomial applied one
// bit at a time, most significant bit of each byte first, bytes in
// little-endian order within each word. It shares no table with the
// production code, so it catches an error in the table derivation as well
// as one in the slicing step.
func crcBitSerial(words []uint64) uint32 {
	crc := uint32(0)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			crc ^= uint32(byte(w>>(8*i))) << 24
			for bit := 0; bit < 8; bit++ {
				if crc&0x80000000 != 0 {
					crc = crc<<1 ^ crcPoly
				} else {
					crc <<= 1
				}
			}
		}
	}
	return crc
}

// TestCRCPinnedVectors pins the wire values of the CRC: they were read
// off the byte-at-a-time implementation this one replaces, so checkpoints
// and captured traces written before the change still validate.
func TestCRCPinnedVectors(t *testing.T) {
	golden := make([]uint64, MaxWords)
	for i := range golden {
		golden[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	for _, tc := range []struct {
		words []uint64
		want  uint32
	}{
		{[]uint64{0}, 0},
		{[]uint64{0, 0}, 0},
		{[]uint64{1}, 0xbc7f040c},
		{[]uint64{0x0123456789ABCDEF}, 0xae930ebe},
		{[]uint64{0xFFFFFFFFFFFFFFFF, 0xFFFFFFFF}, 0xe458dac9},
		{golden, 0x662f1ce9},
	} {
		if got := CRC(tc.words); got != tc.want {
			t.Errorf("CRC(%#x) = %#08x, want %#08x", tc.words, got, tc.want)
		}
	}
	p, err := BuildRequest(Request{Cmd: CmdWR16, Addr: 0x40, Tag: 7, Data: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Words()[p.words-1]; got != 0x1fcff51e00000000 {
		t.Errorf("WR16 tail = %#016x, want 0x1fcff51e00000000", got)
	}
}

// TestPropertyCRCMatchesBitSerial checks the sliced CRC against the
// bit-serial reference over random words for every legal packet length.
func TestPropertyCRCMatchesBitSerial(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for flits := 1; flits <= MaxFlits; flits++ {
		words := make([]uint64, flits*WordsPerFlit)
		for iter := 0; iter < 2000; iter++ {
			for i := range words {
				words[i] = r.Uint64()
			}
			if got, want := CRC(words), crcBitSerial(words); got != want {
				t.Fatalf("%d FLITs: CRC(%#x) = %#08x, bit-serial reference %#08x",
					flits, words, got, want)
			}
		}
	}
}

// FuzzCRC holds the sliced CRC to the bit-serial reference on arbitrary
// word counts, including the odd ones no packet has.
func FuzzCRC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(raw[i*8+b]) << (8 * b)
			}
		}
		if got, want := CRC(words), crcBitSerial(words); got != want {
			t.Fatalf("CRC(%#x) = %#08x, bit-serial reference %#08x", words, got, want)
		}
	})
}

func BenchmarkCRC(b *testing.B) {
	words := make([]uint64, MaxWords)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.SetBytes(int64(len(words) * 8))
	for b.Loop() {
		CRC(words)
	}
}
