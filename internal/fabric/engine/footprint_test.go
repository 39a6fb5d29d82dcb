package engine

import (
	"runtime"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/host"
)

// buildBytes returns the bytes one call of build allocates, averaged over
// 20 calls.
func buildBytes(t *testing.T, build func() error) uint64 {
	t.Helper()
	const rounds = 20
	if err := build(); err != nil { // warm any lazily built tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := build(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestBuildFootprint bounds what building an engine allocates: Table I
// configuration 1 with its host driver, and the 2x2 mesh of the
// fabric-mesh benchmark. Queue slot storage is most of either figure,
// so a fatter slot fails here first. The bounds are the footprints of
// 10-byte queue slots (71,272 and 187,080 B on go 1.24, linux/amd64)
// plus 10 %; 32-byte slots took 134,632 and 440,524 B.
func TestBuildFootprint(t *testing.T) {
	const table1Max, meshMax = 78_400, 205_800
	cfg := core.Table1Configs()[0]
	table1 := buildBytes(t, func() error {
		h, err := eval.BuildSimpleWithOptions(cfg)
		if err != nil {
			return err
		}
		_, err = host.NewDriver(h, host.Options{})
		return err
	})
	mesh := buildBytes(t, func() error {
		_, err := Build(fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2}, cfg)
		return err
	})
	t.Logf("table1 config 1: %d B per build; 2x2 mesh: %d B per build", table1, mesh)
	if table1 > table1Max {
		t.Errorf("building Table I config 1 and its driver allocates %d B, bound %d B", table1, table1Max)
	}
	if mesh > meshMax {
		t.Errorf("building a 2x2 mesh allocates %d B, bound %d B", mesh, meshMax)
	}
}
