package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/core"
	"hetsim/internal/devrt"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/mem"
	"hetsim/internal/power"
)

// offload does what `hetsim -kernel K` does with its defaults, cycling K
// through the ten Table I kernels: System.Offload on pulp-4t over QSPI,
// System.Baseline on the STM32-L476 host, and both outputs checked
// against Instance.Golden. The workload seed is the kernels' input seed.
type offload struct {
	suite []*kernels.Instance
	ins   [][]byte
	host  power.MCUModel
	next  int
}

// hetsim's defaults.
const (
	offloadHost    = "STM32-L476"
	offloadMCUHz   = 16e6
	offloadVdd     = 0.8
	offloadAccHz   = 200e6
	offloadThreads = 4
	offloadLanes   = 4
)

func (w *offload) clients() int { return 1 }

func (w *offload) cycle() int { return len(kernels.PaperSuite()) }

// setup generates the inputs and runs one untimed pass over the suite,
// which fills the build and compile memos.
func (w *offload) setup(b *bench) error {
	var err error
	if w.host, err = power.MCUByName(offloadHost); err != nil {
		return err
	}
	w.suite = kernels.PaperSuite()
	for _, k := range w.suite {
		w.ins = append(w.ins, k.Input(b.seed))
	}
	for _, k := range w.suite {
		b.check("set-up offload of "+k.Name+" equals the golden model", w.op(b, 0, nil).ok)
	}
	return nil
}

// offloadRun is one offload + baseline + verify.
type offloadRun struct {
	rep         *core.Report
	base        float64 // baseline cycles
	ok          bool
	offT, baseT time.Duration
}

func (w *offload) op(b *bench, _ int, sp *span) opResult {
	i := w.next % len(w.suite)
	w.next++
	r, err := w.run(b, w.suite[i], w.ins[i], sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: offload:", err)
		return opResult{}
	}
	return opResult{ok: r.ok, work: float64(r.rep.ComputeCycles) + r.base}
}

func (w *offload) newSystem() (*core.System, error) {
	return core.NewSystem(core.Config{Host: w.host, HostFreqHz: offloadMCUHz, Lanes: offloadLanes,
		AccVdd: offloadVdd, AccFreqHz: offloadAccHz})
}

func (w *offload) run(b *bench, k *kernels.Instance, in []byte, sp *span) (*offloadRun, error) {
	sys, err := w.newSystem()
	if err != nil {
		return nil, err
	}
	s := sp.child("kernels.Instance.Build", "kernels")
	accProg, err := k.Build(isa.PULPFull, devrt.Accel)
	var hostProg *asm.Program
	if err == nil {
		hostProg, err = k.Build(w.host.Target, devrt.Host)
	}
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("kernels.Instance.Golden", "kernels")
	want := b.reference(k.Golden(in))
	s.end()

	r := &offloadRun{}
	s = sp.child("core.System.Baseline", "mcu")
	t := time.Now()
	base, err := sys.Baseline(loader.Job{Prog: hostProg, In: in, OutLen: k.OutLen(), Iters: 1, Args: k.Args()}, 0)
	r.baseT = time.Since(t)
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("core.System.Offload", "core")
	t = time.Now()
	out, rep, err := sys.Offload(loader.Job{Prog: accProg, In: in, OutLen: k.OutLen(), Iters: 1,
		Threads: offloadThreads, Args: k.Args()}, core.Options{Iterations: 1})
	r.offT = time.Since(t)
	s.end()
	if err != nil {
		return nil, err
	}
	r.rep, r.base = rep, base.Cycles
	r.ok = bytes.Equal(base.Out, want) && bytes.Equal(out, want)
	return r, nil
}

func (w *offload) detail(l *loopResult, m metrics) {
	_, tl := tail(l.lat)
	m.set("offload_ms", l.typical(), "ms")
	m.set("offload_tail_ms", tl, "ms")
	m.set("sim_mcycles_per_s", l.work/1e6/l.wall.Seconds(), "Mcycles/s")
}

func (w *offload) close() {}

// offloadProbe times one warm pass of offloads over the suite with the
// workload seed's inputs: Offload, Baseline and, for the overhead, a
// bare cluster.RunJob of the same accelerator job. Then it times the
// link's Write and Read directly.
func (b *bench) offloadProbe(m metrics) error {
	w := &offload{}
	if err := w.setup(b); err != nil {
		return err
	}
	root := b.probeTr.root("probe.offload", "bench", 0)
	defer root.end()
	var off, baseT, bare time.Duration
	var compute, baseCycles, simTime float64
	for i, k := range w.suite {
		sp := root.child("op.offload", "bench")
		r, err := w.run(b, k, w.ins[i], sp)
		sp.end()
		if err != nil {
			return err
		}
		b.check("offload probe output of "+k.Name+" equals the golden model", r.ok)
		off += r.offT
		baseT += r.baseT
		compute += float64(r.rep.ComputeCycles)
		baseCycles += r.base
		simTime += r.rep.TotalTime

		sys, err := w.newSystem()
		if err != nil {
			return err
		}
		prog, err := k.Build(isa.PULPFull, devrt.Accel)
		if err != nil {
			return err
		}
		comp, err := kernels.Compiled(prog, sys.AccCfg.Target)
		if err != nil {
			return err
		}
		rs := root.child("cluster.RunJob", "cluster")
		t := time.Now()
		_, err = cluster.RunJob(sys.AccCfg, devrt.Accel, loader.Job{Prog: prog, In: w.ins[i], OutLen: k.OutLen(),
			Iters: 1, Threads: offloadThreads, Args: k.Args(), Compiled: comp}, maxCycles)
		bare += time.Since(t)
		rs.end()
		if err != nil {
			return err
		}
	}
	n := float64(len(w.suite))
	m.set("core.offload_ms", ms(off)/n, "ms")
	m.set("mcu.baseline_ms", ms(baseT)/n, "ms")
	m.set("core.overhead_ms", ms(off-bare)/n, "ms")
	m.set("core.compute_cycles", compute, "cycles")
	m.set("core.sim_total_time", simTime, "s")
	m.set("mcu.baseline_cycles", baseCycles, "cycles")

	sys, err := w.newSystem()
	if err != nil {
		return err
	}
	const kb, rounds = 16, 256
	sram := mem.NewSRAM(hw.L2Base, kb<<10)
	data := make([]byte, kb<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	ws := root.child("spilink.Link.Write", "spilink")
	t := time.Now()
	for range rounds {
		if _, err := sys.Link.Write(sram, hw.L2Base, data); err != nil {
			return err
		}
	}
	wd := time.Since(t)
	ws.end()
	rs := root.child("spilink.Link.Read", "spilink")
	t = time.Now()
	for range rounds {
		if _, _, err := sys.Link.Read(sram, hw.L2Base, kb<<10); err != nil {
			return err
		}
	}
	rd := time.Since(t)
	rs.end()
	m.set("spilink.write_us_per_kb", float64(wd)/float64(time.Microsecond)/(kb*rounds), "us")
	m.set("spilink.read_us_per_kb", float64(rd)/float64(time.Microsecond)/(kb*rounds), "us")
	return nil
}
