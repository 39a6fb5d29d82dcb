package packet

import "math/bits"

// The HMC specification protects every packet with a 32-bit cyclic
// redundancy code carried in the upper 32 bits of the packet tail. The
// polynomial is the Koopman CRC-32K polynomial (0x741B8CD7), selected for
// embedded-network error detection (Koopman & Chakravarty, DSN 2004, the
// paper's reference [29]).
//
// The CRC is computed over the entire packet with the CRC field itself
// taken as zero, most-significant-word-first, in little-endian byte order
// within each 64-bit word. The implementation is slicing-by-8: one
// 64-bit word per step through eight 256-entry tables, bit-identical to
// folding the same eight bytes one at a time.
//
// A packet built in place (BuildRequestInto, BuildResponseInto) is
// stamped where its words are read (Packet.Words, VerifyCRC), not where
// it is built: a request serviced into its response, and a response the
// host decodes field by field, never pay for a CRC nobody reads. The
// value builders and Finalize stamp at once.

// crcPoly is the Koopman CRC-32K generator polynomial in the conventional
// MSB-first (normal) representation.
const crcPoly uint32 = 0x741B8CD7

// crcTables[k][b] is the CRC register after byte b followed by k zero
// bytes enter a zero register. crcTables[0] is the classic byte-indexed
// table; the other seven are derived from it. All eight are built once
// at package initialization and shared by every engine.
var crcTables [8][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i) << 24
		for bit := 0; bit < 8; bit++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		crcTables[0][i] = crc
	}
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := crcTables[k-1][i]
			crcTables[k][i] = prev<<8 ^ crcTables[0][prev>>24]
		}
	}
}

// crcUpdate folds the eight bytes of word w (little-endian order) into crc.
// The register's four bytes line up, most significant first, with the
// first four bytes of the word; after that XOR every byte of the word
// contributes independently, the first byte through the table that
// trails it with seven zero bytes, the last through the plain table.
func crcUpdate(crc uint32, w uint64) uint32 {
	w ^= uint64(bits.ReverseBytes32(crc))
	return crcTables[7][byte(w)] ^
		crcTables[6][byte(w>>8)] ^
		crcTables[5][byte(w>>16)] ^
		crcTables[4][byte(w>>24)] ^
		crcTables[3][byte(w>>32)] ^
		crcTables[2][byte(w>>40)] ^
		crcTables[1][byte(w>>48)] ^
		crcTables[0][byte(w>>56)]
}

// CRC computes the packet CRC over words. The caller must zero the CRC
// field of the tail word before calling (Finalize and VerifyCRC do this
// automatically).
func CRC(words []uint64) uint32 {
	crc := uint32(0)
	for _, w := range words {
		crc = crcUpdate(crc, w)
	}
	return crc
}
