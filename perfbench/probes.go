package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// maxCycles bounds every probe simulation, as the paper's measurements do.
const maxCycles = 4_000_000_000

// shape is one configuration of the paper's measurement matrix, set up
// exactly as paper.MeasureWith sets it up.
type shape struct {
	name    string // metric stem
	config  string // paper.SpecConfigs name
	target  isa.Target
	mode    devrt.Mode
	threads uint32
}

var shapes = []shape{
	{"plain", "plain", isa.PULPPlain, devrt.Host, 1},
	{"m3", "m3", isa.CortexM3, devrt.Host, 1},
	{"m4", "m4", isa.CortexM4, devrt.Host, 1},
	{"pulp-1t", "pulp1", isa.PULPFull, devrt.Accel, 1},
	{"pulp-2t", "pulp2", isa.PULPFull, devrt.Accel, 2},
	{"pulp-4t", "pulp4", isa.PULPFull, devrt.Accel, 4},
}

func (s shape) cluster() cluster.Config {
	if s.mode == devrt.Accel {
		return cluster.PULPConfig()
	}
	return cluster.MCUConfig(s.target)
}

// probes measures every layer for the traced run. The kernels and
// campaign probes run in fresh processes, so they pay the per-process
// memos a hetexp process pays; the campaign probe runs against the warm
// cache on campaign-warm and cold elsewhere. The serve probe reuses the
// remote-batch workload's server.
func (b *bench) probes(w workload, m metrics) error {
	if _, err := b.childProbe("kernels", "", m); err != nil {
		return err
	}
	cacheDir := b.tempDir("probe-cache")
	if c, ok := w.(*campaign); ok && c.warm {
		cacheDir = c.cacheDir
	}
	out, err := b.childProbe("campaign", cacheDir, m)
	if err != nil {
		return err
	}
	ref, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	b.check("campaign probe output equals the reference", bytes.Equal(out, b.reference(ref)))
	cache, err := sweep.Open(cacheDir)
	if err != nil {
		return err
	}
	// Served from the probe's cache: the campaign's cycle counts.
	meas, err := paper.MeasureWith(sweep.New(sweep.Config{Workers: b.nproc, Cache: cache}), kernels.PaperSuite())
	if err != nil {
		return err
	}
	if err := b.cacheProbe(cache, m); err != nil {
		return fmt.Errorf("cache probe: %w", err)
	}
	if err := b.clusterProbe(meas, m); err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	if err := b.offloadProbe(m); err != nil {
		return fmt.Errorf("offload probe: %w", err)
	}
	var svc *service
	if r, ok := w.(*remote); ok {
		svc = r.svc
	} else {
		if svc, err = startService(b); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		defer svc.close()
	}
	if err := b.serveProbe(svc, m); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	return nil
}

// probeOut is what a fresh-process probe prints: its metrics, its spans
// and, for the campaign probe, the rendered campaign output.
type probeOut struct {
	Metrics metrics   `json:"metrics"`
	Spans   []spanRec `json:"spans"`
	Output  []byte    `json:"output,omitempty"`
}

// runProbe is the child side of childProbe. t0 is the parent's trace
// epoch in Unix nanoseconds, so the spans line up with the parent's.
func runProbe(name, cacheDir string, t0 int64) error {
	tr := newTracer(time.Unix(0, t0), new(atomic.Int64))
	out := probeOut{Metrics: metrics{}}
	var err error
	switch name {
	case "kernels":
		err = kernelsColdProbe(tr, out.Metrics)
	case "campaign":
		out.Output, err = campaignProbe(tr, cacheDir, out.Metrics)
	default:
		err = fmt.Errorf("unknown probe %q", name)
	}
	if err != nil {
		return err
	}
	out.Spans = tr.records()
	return printJSON(out)
}

// childProbe runs a probe in a fresh child process, adds its metrics to
// m and its spans to the run's trace, and returns its output.
func (b *bench) childProbe(name, cacheDir string, m metrics) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stdout, err := runChild(self, "-probe", name, "-probe-cache", cacheDir, "-probe-t0", strconv.FormatInt(b.t0.UnixNano(), 10))
	if err != nil {
		return nil, fmt.Errorf("%s probe: %w", name, err)
	}
	var out probeOut
	if err := json.Unmarshal(lastLine(stdout), &out); err != nil {
		return nil, fmt.Errorf("%s probe output: %w", name, err)
	}
	for k, v := range out.Metrics {
		m[k] = v
	}
	// Renumber the child's spans past every id this process has handed out.
	var top int64
	for _, s := range out.Spans {
		top = max(top, s.ID)
	}
	base := b.ids.Add(top) - top
	for _, s := range out.Spans {
		s.ID += base
		s.Op += base
		if s.Parent != 0 {
			s.Parent += base
		}
		b.probeTr.add(s)
	}
	return out.Output, nil
}

// kernelsColdProbe builds and compiles every program of the measurement
// matrix and computes every golden output once; run in a fresh process,
// the build and compile memos start empty.
func kernelsColdProbe(tr *tracer, m metrics) error {
	root := tr.root("probe.kernels", "bench", 0)
	defer root.end()
	var build, compile, golden time.Duration
	for _, k := range kernels.PaperSuite() {
		for _, s := range shapes {
			sp := root.child("kernels.Instance.Build", "kernels")
			t := time.Now()
			prog, err := k.Build(s.target, s.mode)
			build += time.Since(t)
			sp.end()
			if err != nil {
				return err
			}
			sp = root.child("kernels.Compiled", "kernels")
			t = time.Now()
			_, err = kernels.Compiled(prog, s.cluster().Target)
			compile += time.Since(t)
			sp.end()
			if err != nil {
				return err
			}
		}
		in := k.Input(1)
		sp := root.child("kernels.Instance.Golden", "kernels")
		t := time.Now()
		k.Golden(in)
		golden += time.Since(t)
		sp.end()
	}
	m.set("kernels.build_ms", ms(build), "ms")
	m.set("kernels.compile_ms", ms(compile), "ms")
	m.set("kernels.golden_ms", ms(golden), "ms")
	return nil
}

// cacheProbe times direct sweep.Cache calls at the campaign's payload
// sizes: a Get of each of the 60 measurement results from the campaign's
// cache, and a Put of each into a fresh cache.
func (b *bench) cacheProbe(src *sweep.Cache, m metrics) error {
	specs, err := paper.SuiteSpecs("measure", false, false, 1)
	if err != nil {
		return err
	}
	dst, err := sweep.Open(b.tempDir("put-cache"))
	if err != nil {
		return err
	}
	root := b.probeTr.root("probe.cache", "bench", 0)
	defer root.end()
	var gets, puts []float64
	for _, spec := range specs {
		job, err := paper.BuildSpecJob(spec)
		if err != nil {
			return err
		}
		var raw json.RawMessage
		s := root.child("sweep.Cache.Get", "sweep")
		t := time.Now()
		hit := src.Get(job.Key, &raw)
		gets = append(gets, float64(time.Since(t))/float64(time.Microsecond))
		s.end()
		if !b.check("campaign cache holds "+spec.Kernel+"/"+spec.Config, hit) {
			continue
		}
		s = root.child("sweep.Cache.Put", "sweep")
		t = time.Now()
		err = dst.Put(job.Key, raw)
		puts = append(puts, ms(time.Since(t)))
		s.end()
		if err != nil {
			return err
		}
	}
	m.set("sweep.cache_get_us", median(gets), "us")
	m.set("sweep.cache_put_ms", median(puts), "ms")
	return nil
}

// clusterProbe runs cluster.RunJob serially on the 60-point measurement
// matrix with the paper's configurations and inputs. Its cycle counts
// must equal the campaign's, its outputs the golden model's.
func (b *bench) clusterProbe(meas *paper.Measurements, m metrics) error {
	root := b.probeTr.root("probe.cluster", "bench", 0)
	defer root.end()
	for _, s := range shapes {
		cfg := s.cluster()
		var run time.Duration
		var cycles, retired, conflicts, misses, cores uint64
		for _, k := range kernels.PaperSuite() {
			prog, err := k.Build(s.target, s.mode)
			if err != nil {
				return err
			}
			comp, err := kernels.Compiled(prog, cfg.Target)
			if err != nil {
				return err
			}
			in := k.Input(1)
			job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: s.threads, Args: k.Args(), Compiled: comp}
			sp := root.child("cluster.RunJob", "cluster")
			t := time.Now()
			res, err := cluster.RunJob(cfg, s.mode, job, maxCycles)
			run += time.Since(t)
			sp.end()
			if err != nil {
				return err
			}
			b.check("cluster "+s.name+" output of "+k.Name+" equals the golden model", bytes.Equal(res.Out, k.Golden(in)))
			b.check("cluster "+s.name+" cycles of "+k.Name+" equal the campaign's", res.Cycles == campaignCycles(meas, k.Name, s.config))
			cycles += res.Cycles
			retired += res.Stats.Retired()
			conflicts += res.Stats.TCDMConf
			misses += res.Stats.ICMisses
			cores += res.Cycles * uint64(len(res.Stats.Cores))
		}
		p := "cluster." + s.name + "."
		m.set(p+"simcycles", float64(cycles), "cycles")
		m.set(p+"run_s", run.Seconds(), "s")
		m.set(p+"msimcycles_per_s", float64(cycles)/1e6/run.Seconds(), "Mcycles/s")
		if s.name == "pulp-4t" {
			m.set(p+"core_mcycles_per_s", float64(cores)/1e6/run.Seconds(), "Mcycles/s")
			m.set(p+"minstr_per_s", float64(retired)/1e6/run.Seconds(), "Minstr/s")
			m.set(p+"retired", float64(retired), "count")
			m.set(p+"tcdm_conflicts", float64(conflicts), "count")
			m.set(p+"icache_misses", float64(misses), "count")
		}
	}
	return nil
}

// campaignCycles is the cycle count the campaign measured for a kernel
// on a configuration.
func campaignCycles(meas *paper.Measurements, kernel, config string) uint64 {
	km := meas.ByK[kernel]
	if km == nil {
		return 0
	}
	for c, v := range km.Cycles {
		if string(c) == config {
			return v
		}
	}
	return 0
}

// traceLayers are the layers the measured operations' spans cross.
var traceLayers = []string{"bench", "hetexp", "paper", "serve", "kernels", "core", "mcu"}

// traceMetrics derives per-layer self time per operation from the spans
// of the traced operations, and the tracing overhead: the median latency
// of traced operations against that of the untraced ones in the same run.
func (b *bench) traceMetrics(l *loopResult, m metrics) {
	self := selfTime(b.loopTr.records())
	ops := float64(max(len(l.traced), 1))
	for _, layer := range traceLayers {
		m.set("trace."+layer+".self_ms_per_op", ms(self[layer])/ops, "ms")
	}
	m.set("trace.overhead_frac", ratio(median(l.traced), median(l.untraced))-1, "frac")
	m.set("trace.spans", float64(len(b.loopTr.records())+len(b.probeTr.records())), "count")
}

// writeTrace writes every span of the run as one Chrome trace.
func (b *bench) writeTrace() (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	return path, writeChromeTrace(path, append(b.loopTr.records(), b.probeTr.records()...))
}
