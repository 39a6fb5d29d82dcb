package eval

import (
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/core"
	"hmcsim/internal/host"
)

// relabel is a custom Mapper (the paper's §III-B interface) that applies
// an involution f to the coordinates of the map it wraps. Because f is
// its own inverse, Encode stays the inverse of Decode.
type relabel struct {
	addr.Mapper
	f func(addr.Decoded) addr.Decoded
}

func (m relabel) Decode(a uint64) addr.Decoded { return m.f(m.Mapper.Decode(a)) }
func (m relabel) Encode(d addr.Decoded) uint64 { return m.Mapper.Encode(m.f(d)) }

// TestMapRelabelSymmetry is a metamorphic test of the engine through the
// custom-mapper interface: renaming banks, or vaults within a quadrant,
// changes no structural relation the engine models, so a run on the
// relabelled map must give the plain run's result digest bit for bit. A
// bank or vault that wins or loses arbitration by its index breaks it.
func TestMapRelabelSymmetry(t *testing.T) {
	const n = 1 << 14
	run := func(t *testing.T, cfg core.Config, f func(addr.Decoded) addr.Decoded) uint64 {
		t.Helper()
		h, err := BuildSimple(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			d := h.Device(0)
			d.Map = relabel{Mapper: d.Map, f: f}
		}
		gen, err := RandomWorkload(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		drv, err := host.NewDriver(h, host.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := drv.Run(gen, n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != n {
			t.Fatalf("%d of %d requests completed", res.Completed, n)
		}
		return ResultDigest(res)
	}
	for _, cfg := range core.Table1Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			plain := run(t, cfg, nil)
			relations := []struct {
				name string
				f    func(addr.Decoded) addr.Decoded
			}{
				{"bank reversal", func(d addr.Decoded) addr.Decoded {
					d.Bank = cfg.NumBanks - 1 - d.Bank
					return d
				}},
				{"vault reversal within quadrant", func(d addr.Decoded) addr.Decoded {
					d.Vault = d.Vault&^3 | (3 - d.Vault&3)
					return d
				}},
			}
			for _, r := range relations {
				if got := run(t, cfg, r.f); got != plain {
					t.Errorf("%s: digest %016x, plain run %016x", r.name, got, plain)
				}
			}
		})
	}
}
