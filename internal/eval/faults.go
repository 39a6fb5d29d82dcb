package eval

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/topo"
	"hmcsim/internal/workload"
)

// CampaignPoint is one fault-rate operating point of a campaign: a label
// plus the three per-component rates in parts per million.
type CampaignPoint struct {
	Label        string
	TransientPPM int
	LinkFailPPM  int
	VaultPPM     int
}

// DefaultCampaignPoints is the standard sweep of the fault campaign: a
// clean baseline, two transient rates, a permanent link-failure rate, a
// vault-fault rate and a mixed point.
func DefaultCampaignPoints() []CampaignPoint {
	return []CampaignPoint{
		{Label: "clean"},
		{Label: "transient-1e3", TransientPPM: 1000},
		{Label: "transient-1e5", TransientPPM: 100000},
		{Label: "linkfail-500", LinkFailPPM: 500},
		{Label: "vault-1e4", VaultPPM: 10000},
		{Label: "mixed", TransientPPM: 50000, LinkFailPPM: 10, VaultPPM: 5000},
	}
}

// CampaignOpts parameterizes a fault campaign.
type CampaignOpts struct {
	// Requests per (configuration, point) cell; zero selects 1<<12.
	Requests uint64
	// Seed drives both the workload generator and the fault engine, so a
	// fixed seed reproduces a bit-identical campaign.
	Seed uint32
	// Points is the fault-rate sweep; nil selects DefaultCampaignPoints.
	Points []CampaignPoint
	// Configs is the device-configuration axis; nil selects the paper's
	// four Table I configurations.
	Configs []core.Config
	// MaxRetries bounds the link retry protocol (zero: the default
	// budget).
	MaxRetries int
	// FailedLinks and FailedVaults are failed from reset in every cell —
	// the degraded-mode campaign input.
	FailedLinks  []fault.LinkID
	FailedVaults []fault.VaultID
	// Topology selects the wiring: "simple" (default, every link of every
	// device to the host) or "ring" (RingDevs devices in a cycle with
	// traffic spread across them).
	Topology string
	// RingDevs is the ring size with Topology "ring"; zero selects 4.
	RingDevs int
}

// CampaignRow is one measured campaign cell.
type CampaignRow struct {
	Config core.Config
	Point  CampaignPoint
	Result host.Result
	// Note flags a terminal cell outcome, e.g. the fault schedule severing
	// every host link mid-run. The Result then covers the cell up to that
	// point.
	Note string
}

// FaultCampaign sweeps the fault-rate points across the device
// configurations, returning one row per cell. Every cell runs the random
// access workload; all randomness flows from Opts.Seed, so two campaigns
// with equal options produce identical rows.
func FaultCampaign(opts CampaignOpts) ([]CampaignRow, error) {
	if opts.Requests == 0 {
		opts.Requests = 1 << 12
	}
	points := opts.Points
	if points == nil {
		points = DefaultCampaignPoints()
	}
	configs := opts.Configs
	if configs == nil {
		configs = core.Table1Configs()
	}
	var rows []CampaignRow
	for _, cfg := range configs {
		for _, pt := range points {
			res, err := runCampaignCell(cfg, opts, pt)
			row := CampaignRow{Config: cfg, Point: pt, Result: res}
			if errors.Is(err, host.ErrAllLinksFailed) {
				row.Note = "host disconnected"
			} else if err != nil {
				return nil, fmt.Errorf("eval: %v / %s: %w", cfg, pt.Label, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runCampaignCell(cfg core.Config, opts CampaignOpts, pt CampaignPoint) (host.Result, error) {
	cfg.Fault = fault.Config{
		TransientPPM: pt.TransientPPM,
		LinkFailPPM:  pt.LinkFailPPM,
		VaultPPM:     pt.VaultPPM,
		Seed:         uint64(opts.Seed),
		MaxRetries:   opts.MaxRetries,
		FailedLinks:  opts.FailedLinks,
		FailedVaults: opts.FailedVaults,
	}
	var (
		h     *core.HMC
		err   error
		dopts host.Options
	)
	switch opts.Topology {
	case "", "simple":
		h, err = BuildSimple(cfg)
	case "ring":
		devs := opts.RingDevs
		if devs == 0 {
			devs = 4
		}
		cfg.NumDevs = devs
		var ring *topo.Topology
		ring, err = topo.Ring(devs, cfg.NumLinks)
		if err != nil {
			return host.Result{}, err
		}
		h, err = core.New(cfg, core.WithTopology(ring))
		// Traffic spreads over the ring: the destination cube derives
		// deterministically from the access address, injection stays on
		// device 0's host links.
		dopts.Route = func(a workload.Access) (int, uint64) { return int(a.Addr>>6) % devs, a.Addr }
	default:
		return host.Result{}, fmt.Errorf("unknown campaign topology %q", opts.Topology)
	}
	if err != nil {
		return host.Result{}, err
	}
	gen, err := RandomWorkload(cfg, opts.Seed)
	if err != nil {
		return host.Result{}, err
	}
	d, err := host.NewDriver(h, dopts)
	if err != nil {
		return host.Result{}, err
	}
	return d.Run(gen, opts.Requests)
}

// FormatCampaign renders campaign rows as a fixed-layout table. The output
// is a pure function of the rows: a campaign with a fixed seed formats
// bit-identically across runs.
func FormatCampaign(rows []CampaignRow) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Device Configuration\tPoint\tCycles\tReq/Cyc\tErrRsp\tRetrans\tLinkFail\tReroutes\tPoison\tNote")
	for _, r := range rows {
		e := r.Result.Engine
		note := r.Note
		if note == "" {
			note = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Config, r.Point.Label, r.Result.Cycles, r.Result.Throughput(),
			r.Result.Errors, e.LinkRetransmits, e.LinkFailures, e.Reroutes,
			e.PoisonedReads, note)
	}
	tw.Flush()
	return sb.String()
}
