package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScaleCell identifies one cell of the E14 grid: a mesh size and a number of
// stable-storage servers.
type ScaleCell struct {
	MeshW, MeshH int
	Servers      int
}

// Nodes returns the cell's compute-node count.
func (c ScaleCell) Nodes() int { return c.MeshW * c.MeshH }

// ScaleSchemes is the scheme axis of E14: one representative per protocol
// family — the families contend for storage in qualitatively different ways
// (synchronized bursts vs staggered autonomous writes) — plus each family's
// incremental variant, whose delta encoding shrinks exactly the traffic the
// experiment stresses (checkpoint bytes through the host link and disk).
var ScaleSchemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.CoordNBInc,
	ckpt.Indep, ckpt.IndepInc,
	ckpt.CIC, ckpt.CICInc,
}

// ScaleGrid returns the E14 cell grid: meshes from the paper's 8 nodes up to
// 1024, crossed with storage-server counts, minus combinations with more
// servers than compute nodes (a server needs a distinct attach node).
func ScaleGrid(quick bool) []ScaleCell {
	meshes := pick(quick,
		[][2]int{{4, 2}, {8, 8}},
		[][2]int{{4, 2}, {8, 8}, {16, 16}, {32, 32}})
	servers := pick(quick, []int{1, 4}, []int{1, 4, 16})
	var grid []ScaleCell
	for _, m := range meshes {
		for _, s := range servers {
			if s > m[0]*m[1] {
				continue
			}
			grid = append(grid, ScaleCell{MeshW: m[0], MeshH: m[1], Servers: s})
		}
	}
	return grid
}

// E14 holds per-node checkpoint volume fixed and small while the machine
// grows, so the storage path — not the simulation runtime — is what the
// experiment stresses: at 1024 nodes even 5 KB per rank is 5 MB per round
// aimed at what is, with one server, a single 1.2 MB/s disk behind a single
// 1 MB/s host link.
const (
	scaleStateBytes = 1024
	scaleImageBytes = 4096
	scaleIters      = 40
	scaleOps        = 1e6
)

func scaleWorkload(nodes int) apps.Workload {
	return RingWorkloadN(nodes, scaleStateBytes, scaleIters, scaleOps)
}

// scaleCoordMaxNodes caps the coordinated family's cells. Its marker flood is
// O(n²) control messages per round — every rank markers every channel, the
// protocol's real cost — and simulating the million messages of a 1024-node
// round, each several engine events per hop, costs two orders of magnitude
// more host time than the autonomous families' O(n) traffic. The family comparison lives at and below this
// size; past it only the autonomous families run, and the report says so.
const scaleCoordMaxNodes = 256

// scaleConfig specializes cfg for one grid cell. The explicit nil Topo makes
// the mesh dimensions authoritative even when the caller's cfg carries a
// parsed -topo override: the grid is defined over meshes.
func scaleConfig(cfg par.Config, c ScaleCell) par.Config {
	cc := cfg
	cc.Fabric.Topo = nil
	cc.Fabric.MeshW, cc.Fabric.MeshH = c.MeshW, c.MeshH
	cc.Fabric.HostAttaches = nil
	cc.StorageServers = c.Servers
	cc.CkptImageBytes = scaleImageBytes
	return cc
}

// ScaleExperiment (E14) grows the machine from the paper's 8-node mesh to
// 1024 nodes while sharding stable storage over 1, 4 and 16 servers, and
// measures where the checkpoint traffic bottleneck sits: the busiest single
// storage server's disk and host link, as a fraction of the run. With one
// server the coordinated families' synchronized checkpoint bursts saturate
// the single host link as the machine grows; striping ranks over servers at
// distinct attach points divides both the disk and the link contention by
// the server count.
func ScaleExperiment(w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	return ScaleExperimentGrid(w, cfg, ScaleGrid(quick), ScaleSchemes, r)
}

// ScaleExperimentGrid is ScaleExperiment over an explicit cell grid and
// scheme axis; the determinism tests drive single cells through it. The
// report is byte-deterministic under any runner parallelism: cells land in
// preallocated slots and the table is rendered only after every cell
// finished.
func ScaleExperimentGrid(w io.Writer, cfg par.Config, grid []ScaleCell, schemes []ckpt.Variant, r *Runner) error {
	r = r.orDefault()

	// Fault-free baselines, one per distinct mesh: no checkpoint traffic
	// flows, so the server count cannot affect them.
	type mesh struct{ w, h int }
	var meshes []mesh
	baseOf := make(map[mesh]*sim.Duration)
	for _, c := range grid {
		m := mesh{c.MeshW, c.MeshH}
		if baseOf[m] == nil {
			baseOf[m] = new(sim.Duration)
			meshes = append(meshes, m)
		}
	}
	baseCells := make([]Cell, len(meshes))
	for i, m := range meshes {
		baseCells[i] = Cell{App: fmt.Sprintf("SCALE-%dx%d", m.w, m.h), Scheme: "normal"}
	}
	err := r.ForEach(context.Background(), baseCells, func(ctx context.Context, i int, c Cell) error {
		m := meshes[i]
		cc := scaleConfig(cfg, ScaleCell{MeshW: m.w, MeshH: m.h, Servers: 1})
		res, err := core.Run(scaleWorkload(m.w*m.h), core.Config{Machine: cc})
		if err != nil {
			return err
		}
		*baseOf[m] = res.Exec
		r.Prog.logf("%-18s baseline %.2fs", c.Name(), res.Exec.Seconds())
		return nil
	})
	if err != nil {
		return err
	}

	type srow struct {
		cell   ScaleCell
		scheme ckpt.Variant
		res    core.Result
	}
	var rows []srow
	var cells []Cell
	coordCapped := false
	for _, c := range grid {
		for _, v := range schemes {
			if v.Coordinated() && c.Nodes() > scaleCoordMaxNodes {
				coordCapped = true
				continue
			}
			rows = append(rows, srow{cell: c, scheme: v})
			cells = append(cells, Cell{App: fmt.Sprintf("SCALE-%dn-%ds", c.Nodes(), c.Servers), Scheme: v.String()})
		}
	}
	err = r.ForEach(context.Background(), cells, func(ctx context.Context, i int, c Cell) error {
		cell := rows[i].cell
		base := *baseOf[mesh{cell.MeshW, cell.MeshH}]
		interval := base / 3
		if interval < 1 {
			interval = 1
		}
		res, err := core.Run(scaleWorkload(cell.Nodes()), core.Config{
			Machine:        scaleConfig(cfg, cell),
			Scheme:         rows[i].scheme,
			Interval:       interval,
			MaxCheckpoints: 2,
		})
		if err != nil {
			return err
		}
		rows[i].res = res
		r.Prog.logf("%-24s exec %.2fs, busiest link %4.1f%%, busiest disk %4.1f%%", c.Name(),
			res.Exec.Seconds(), busyPct(res.MaxHostLinkBusy, res.Exec), busyPct(res.MaxDiskBusy, res.Exec))
		return nil
	})
	if err != nil {
		return err
	}

	t := trace.NewTable("E14: checkpoint overhead and storage contention vs machine size and server count",
		"Nodes", "Servers", "Scheme", "Ckpts", "Exec", "Overhead %", "Hostlink %", "Disk %").
		Align(0, 1, 3, 4, 5, 6, 7)
	for _, row := range rows {
		base := *baseOf[mesh{row.cell.MeshW, row.cell.MeshH}]
		t.Rowf(row.cell.Nodes(), row.cell.Servers, row.scheme.String(),
			row.res.Ckpt.Checkpoints,
			fmt.Sprintf("%.2fs", row.res.Exec.Seconds()),
			fmt.Sprintf("%.1f", float64(row.res.Exec-base)/float64(base)*100),
			fmt.Sprintf("%.1f", busyPct(row.res.MaxHostLinkBusy, row.res.Exec)),
			fmt.Sprintf("%.1f", busyPct(row.res.MaxDiskBusy, row.res.Exec)))
	}
	t.Write(w)
	if coordCapped {
		fmt.Fprintf(w, "\nCoordinated cells above %d nodes are omitted: the marker flood is O(n²)\n", scaleCoordMaxNodes)
		fmt.Fprintln(w, "control messages per round, so those cells are dominated by protocol")
		fmt.Fprintln(w, "traffic the autonomous families do not pay; the family comparison is")
		fmt.Fprintln(w, "complete at the sizes shown.")
	}
	fmt.Fprintln(w, "\nHostlink % and Disk % are the busiest single server's mesh→host link and")
	fmt.Fprintln(w, "disk service time as a fraction of the run — the checkpoint bottleneck the")
	fmt.Fprintln(w, "paper's single file server hits as the machine grows (above 100% the")
	fmt.Fprintln(w, "server was still draining writes when the last application finished).")
	fmt.Fprintln(w, "Striping ranks over")
	fmt.Fprintln(w, "servers at distinct attach points divides both, which is what keeps the")
	fmt.Fprintln(w, "overhead of the synchronized coordinated burst from growing with the")
	fmt.Fprintln(w, "machine; the autonomous families spread the same bytes over time instead.")
	return nil
}

func busyPct(busy, exec sim.Duration) float64 {
	if exec <= 0 {
		return 0
	}
	return float64(busy) / float64(exec) * 100
}
