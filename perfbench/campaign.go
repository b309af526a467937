package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// campaign runs `hetexp -exp all` in a fresh process per operation, at
// -j nproc: into an empty cache directory (cold), or against the cache
// its set-up filled (warm). The campaigns take no seed: they use the
// fixed inputs hetexp uses.
type campaign struct {
	warm     bool
	ref      []byte
	cacheDir string // filled by set-up
}

func (w *campaign) clients() int { return 1 }

func (w *campaign) cycle() int { return 1 }

// setup checks the reference output against the paper golden file, then
// runs one cold campaign into a fresh cache, which warm operations reuse.
func (w *campaign) setup(b *bench) error {
	ref, err := loadReference(b)
	if err != nil {
		return err
	}
	w.ref = b.reference(ref)
	w.cacheDir = b.tempDir("cache")
	out, _, err := b.hetexpCampaign(w.cacheDir)
	if err != nil {
		return err
	}
	b.check("set-up campaign output equals the reference", bytes.Equal(out, w.ref))
	return nil
}

// loadReference reads the campaign reference output and checks that its
// table1/fig3/fig4/fig5a sections equal the paper golden file.
func loadReference(b *bench) ([]byte, error) {
	ref, err := os.ReadFile(referencePath)
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	b.check("reference table1/fig3/fig4/fig5a equal "+goldenPath, bytes.Equal(goldenSections(ref), golden))
	return ref, nil
}

// goldenSections extracts the bodies of the four measurement sections of
// a campaign's output in the layout of full_reproduction.golden: section
// bodies without their headers, separated by one blank line.
func goldenSections(out []byte) []byte {
	heads := []string{
		"== Table I: benchmark summary ==\n",
		"== Figure 3: energy efficiency on matmul ==\n",
		"== Figure 4: architectural and parallel speedup ==\n",
		"== Figure 5a: speedup within the 10 mW envelope ==\n",
	}
	var buf bytes.Buffer
	for _, h := range heads {
		i := bytes.Index(out, []byte(h))
		if i < 0 {
			return nil
		}
		body := out[i+len(h):]
		if j := bytes.Index(body, []byte("\n== ")); j >= 0 {
			body = body[:j+1]
		}
		buf.Write(body)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func (w *campaign) op(b *bench, _ int, sp *span) opResult {
	dir := w.cacheDir
	if !w.warm {
		dir = b.tempDir("cold")
	}
	s := sp.child("hetexp -exp all", "hetexp")
	out, ps, err := b.hetexpCampaign(dir)
	s.end()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return opResult{}
	}
	ru, _ := ps.SysUsage().(*syscall.Rusage)
	r := opResult{ok: bytes.Equal(out, w.ref), cpu: ps.UserTime() + ps.SystemTime()}
	if ru != nil {
		r.rssKB = ru.Maxrss
	}
	return r
}

// hetexpCampaign runs one full campaign in a fresh hetexp process.
func (b *bench) hetexpCampaign(cacheDir string) ([]byte, *os.ProcessState, error) {
	cmd := exec.Command(b.hetexp, "-exp", "all", "-j", strconv.Itoa(b.nproc), "-cache-dir", cacheDir)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("hetexp: %w: %s", err, errb.Bytes())
	}
	return out.Bytes(), cmd.ProcessState, nil
}

func (w *campaign) detail(l *loopResult, m metrics) {
	m.set("campaign_s", l.typical()/1e3, "s")
	m.set("campaign_cpu_s", median(l.opCPU), "s")
}

func (w *campaign) close() {}

// producers are the stems of the paper.*With producer metrics, in
// hetexp order.
var producers = []string{"measure", "extablate", "banks", "linkablate", "scaling", "sensor", "fig5b"}

// campaignProbe runs the `hetexp -exp all` campaign in a fresh process:
// the producers in hetexp's order through one sweep engine on cacheDir
// at nproc workers, each timed with its engine-stats delta, then the
// folds and render. It returns the rendered output.
func campaignProbe(tr *tracer, cacheDir string, m metrics) ([]byte, error) {
	cache, err := sweep.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	eng := sweep.New(sweep.Config{Workers: runtime.NumCPU(), Cache: cache})
	suite := kernels.PaperSuite()
	mm, cnn, hog := suite[0], suite[7], suite[len(suite)-1]
	root := tr.root("probe.campaign", "bench", 0)
	defer root.end()
	bc0, sc0, hit0, miss0 := kernels.CompileStats()

	var c campaignResult
	spent := map[string]time.Duration{}
	// step times one producer call and books its engine-stats delta.
	step := func(name, call string, f func() error) func() error {
		return func() error {
			before := eng.Stats()
			s := root.child(call, "paper")
			t := time.Now()
			err := f()
			spent[name] += time.Since(t)
			s.end()
			after := eng.Stats()
			m.set("paper."+name+"_jobs", m["paper."+name+"_jobs"].Value+float64(after.Jobs-before.Jobs), "count")
			m.set("paper."+name+"_executed", m["paper."+name+"_executed"].Value+float64(after.Executed-before.Executed), "count")
			return err
		}
	}
	err = firstErr(
		step("measure", "paper.MeasureWith", func() (err error) { c.meas, err = paper.MeasureWith(eng, suite); return }),
		step("extablate", "paper.ExtensionAblationWith", func() (err error) { c.ext, err = paper.ExtensionAblationWith(eng, suite); return }),
		step("banks", "paper.BankSweepWith", func() (err error) { c.banks, err = paper.BankSweepWith(eng, mm); return }),
		step("linkablate", "paper.LinkAblationWith", func() (err error) { c.link, err = paper.LinkAblationWith(eng, mm, c.meas); return }),
		step("scaling", "paper.ScalingStudyWith", func() (err error) { c.scaling[0], err = paper.ScalingStudyWith(eng, mm); return }),
		step("scaling", "paper.ScalingStudyWith", func() (err error) { c.scaling[1], err = paper.ScalingStudyWith(eng, cnn); return }),
		step("sensor", "paper.SensorAblationWith", func() (err error) {
			c.sensor, err = paper.SensorAblationWith(eng, hog, c.meas, sensor.QVGACamera(), 8e6)
			return
		}),
		step("fig5b", "paper.Figure5bWith", func() (err error) { c.fig5b, err = paper.Figure5bWith(eng, mm, c.meas); return }),
	)
	if err != nil {
		return nil, err
	}
	s := root.child("paper.Render", "paper")
	t := time.Now()
	out, err := c.render(mm.Name, cnn.Name, hog.Name)
	m.set("paper.render_s", time.Since(t).Seconds(), "s")
	s.end()
	if err != nil {
		return nil, err
	}

	for _, p := range producers {
		m.set("paper."+p+"_s", spent[p].Seconds(), "s")
	}
	st := eng.Stats()
	m.set("sweep.jobs", float64(st.Jobs), "count")
	m.set("sweep.executed", float64(st.Executed), "count")
	m.set("sweep.cache_hits", float64(st.CacheHits), "count")
	m.set("sweep.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.Jobs)), "frac")
	bc, sc, hit, miss := kernels.CompileStats()
	m.set("kernels.block_compiles", float64(bc-bc0), "count")
	m.set("kernels.superblock_compiles", float64(sc-sc0), "count")
	m.set("kernels.compile_memo_hits", float64(hit-hit0), "count")
	m.set("kernels.compile_memo_misses", float64(miss-miss0), "count")
	m.set("kernels.compiles_per_executed_job", ratio(float64(bc-bc0), float64(st.Executed)), "ratio")
	return out, nil
}

// campaignResult holds what the producers of one campaign returned.
type campaignResult struct {
	meas    *paper.Measurements
	ext     []paper.ExtAblationRow
	banks   []paper.BankSweepPoint
	link    []paper.LinkAblationPoint
	scaling [2][]paper.ScalingPoint // matmul, cnn
	sensor  []paper.SensorAblationPoint
	fig5b   []paper.Fig5bSeries
}

// render writes the campaign exactly as `hetexp -exp all` prints it.
func (c *campaignResult) render(mm, cnn, hog string) ([]byte, error) {
	var out bytes.Buffer
	section := func(title string) {
		if out.Len() > 0 {
			out.WriteByte('\n') // hetexp ends every section with a blank line
		}
		fmt.Fprintf(&out, "== %s ==\n", title)
	}
	section("Table I: benchmark summary")
	paper.RenderTable1(&out, c.meas.Table1())
	section("Figure 3: energy efficiency on matmul")
	pts, err := c.meas.Figure3()
	if err != nil {
		return nil, err
	}
	paper.RenderFigure3(&out, pts)
	section("Figure 4: architectural and parallel speedup")
	paper.RenderFigure4(&out, c.meas.Figure4())
	section("Figure 5a: speedup within the 10 mW envelope")
	paper.RenderFigure5a(&out, c.meas.Figure5a())
	section("Ablation: per-extension contribution (beyond paper)")
	paper.RenderExtensionAblation(&out, c.ext)
	section("Ablation: TCDM bank count (beyond paper)")
	paper.RenderBankSweep(&out, mm, c.banks)
	section("Ablation: decoupled link clock (Section V)")
	paper.RenderLinkAblation(&out, mm, c.link)
	section("Ablation: 8-core cluster scaling (beyond paper)")
	paper.RenderScalingStudy(&out, mm, c.scaling[0])
	paper.RenderScalingStudy(&out, cnn, c.scaling[1])
	section("Ablation: sensor data path (Section V)")
	paper.RenderSensorAblation(&out, hog, c.sensor)
	section("Figure 5b: offload-cost amortization")
	paper.RenderFigure5b(&out, mm, c.fig5b)
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// firstErr runs fs in order and stops at the first error.
func firstErr(fs ...func() error) error {
	for _, f := range fs {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}
