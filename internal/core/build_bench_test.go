package core

import (
	"fmt"
	"testing"
)

// BenchmarkBuild times building Table I configurations 1 and 4 with every
// link wired to the host: the initialization-time allocation of every
// structure (DESIGN.md inventory rows 3 and 5), most of it queue slots.
// Run with -benchmem; B/op is the engine's footprint.
func BenchmarkBuild(b *testing.B) {
	cfgs := Table1Configs()
	for _, n := range []int{1, 4} {
		cfg := cfgs[n-1]
		b.Run(fmt.Sprintf("config%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for l := 0; l < cfg.NumLinks; l++ {
					if err := h.ConnectHost(0, l); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
