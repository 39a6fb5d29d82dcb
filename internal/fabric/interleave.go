package fabric

// Interleave spreads one flat host address space across Ways cubes at
// Block-byte granularity: consecutive blocks land on consecutive cubes,
// and each cube sees a dense local address space with the cube-selection
// information removed. For power-of-two Ways the mapping degenerates to
// the classic bit-slice channel interleave of a multi-channel host; the
// modulo form additionally covers non-power-of-two cube counts such as a
// 2x3 mesh.
type Interleave struct {
	// Ways is the cube count (>= 1).
	Ways int
	// Block is the interleave granularity in bytes (a power of two).
	Block uint64
}

// Shard maps a flat address to its owning cube and cube-local address.
func (iv Interleave) Shard(addr uint64) (cube int, local uint64) {
	block := addr / iv.Block
	cube = int(block % uint64(iv.Ways))
	local = (block/uint64(iv.Ways))*iv.Block + addr%iv.Block
	return cube, local
}

// Unshard is the inverse of Shard.
func (iv Interleave) Unshard(cube int, local uint64) uint64 {
	block := local / iv.Block
	return (block*uint64(iv.Ways)+uint64(cube))*iv.Block + local%iv.Block
}
