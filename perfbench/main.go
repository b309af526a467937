// perfbench is the hetsim benchmark: four closed-loop workloads — a cold
// and a warm `hetexp -exp all` campaign, a batch campaign through an
// in-process hetsimd, and single hetsim offloads — each reporting
// end-to-end metrics, plus a traced run that breaks them down by layer.
// See README.md for the workloads, the metrics and what they measure.
//
// Run it from the repository root through its wrapper, which builds the
// benchmark and hetexp from source first:
//
//	bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Paths relative to the repository root, the working directory.
const (
	buildDir      = ".bench_build"
	referencePath = "perfbench/testdata/campaign_all.golden"
	goldenPath    = "internal/paper/testdata/full_reproduction.golden"
)

var workloadNames = []string{"campaign-cold", "campaign-warm", "remote-batch", "offload"}

// setupReps is the number of set-ups per run; setup_s is their median.
const setupReps = 3

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	corrupt  bool
	nproc    int
	hetexp   string // path of the hetexp binary
	work     string // scratch directory of this run, removed at exit

	mu       sync.Mutex
	checks   int
	failures []string
	dirs     atomic.Int64

	t0      time.Time
	ids     atomic.Int64
	loopTr  *tracer // spans of the measured operations
	probeTr *tracer // spans of the per-layer probes
}

// workload is one closed-loop traffic mix.
type workload interface {
	// setup prepares the workload; its wall time is a setup_s sample.
	setup(b *bench) error
	// clients is the number of closed-loop clients.
	clients() int
	// cycle is the number of consecutive operations that differ in their
	// inputs; a traced run alternates tracing in blocks of that many, so
	// traced and untraced operations do the same work.
	cycle() int
	// op performs one operation for a client and checks its output. sp
	// is the operation's span (nil when untraced).
	op(b *bench, client int, sp *span) opResult
	// detail adds the workload's own named metrics to a report.
	detail(l *loopResult, rep metrics)
	close()
}

// opResult is the outcome of one operation.
type opResult struct {
	ok    bool
	work  float64 // campaign points or simulated cycles, by workload
	rssKB int64   // peak RSS of the operation's child process, if any
	cpu   time.Duration
}

// loopResult is what a measured closed loop produced.
type loopResult struct {
	lat               []float64   // ms, every operation
	byInput           [][]float64 // ms, by position in the workload's input cycle
	traced, untraced  []float64   // ms, split by tracing (traced runs only)
	attempted, failed int
	work              float64
	rssKB             []float64 // peak RSS of each operation's child process
	selfPeakKB        []float64 // peak RSS of this process, by one-second window
	opCPU             []float64 // s, per operation with a child process
	wall              time.Duration
	cpu               time.Duration // process plus children
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func newWorkload(name string) (workload, error) {
	switch name {
	case "campaign-cold":
		return &campaign{}, nil
	case "campaign-warm":
		return &campaign{warm: true}, nil
	case "remote-batch":
		return &remote{}, nil
	case "offload":
		return &offload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed: offload inputs and the remote-batch suite seed")
	secs := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "self-test: run every workload briefly and check the report against BENCHMARK.json")
	corrupt := flag.Bool("corrupt", false, "corrupt every reference output (the smoke test's gate check)")
	setupOnly := flag.Bool("setup-only", false, "perform one set-up, print its time and exit")
	probe := flag.String("probe", "", "run a fresh-process layer probe (kernels, campaign), print it and exit")
	probeCache := flag.String("probe-cache", "", "cache directory of the campaign probe")
	probeT0 := flag.Int64("probe-t0", 0, "trace epoch of the probe's spans, in Unix nanoseconds")
	flag.Parse()

	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	case *smoke:
		err = runSmoke()
	case *probe != "":
		err = runProbe(*probe, *probeCache, *probeT0)
	default:
		err = run(*wl, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, *corrupt, *setupOnly)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, dur time.Duration, traced, corrupt, setupOnly bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	hetexp, err := filepath.Abs(filepath.Join(buildDir, "bin", "hetexp"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(hetexp); err != nil {
		return fmt.Errorf("hetexp binary missing (run through perfbench/run.sh): %w", err)
	}
	if _, err := os.Stat(referencePath); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{workload: name, seed: seed, dur: dur, traced: traced, corrupt: corrupt,
		nproc: runtime.NumCPU(), hetexp: hetexp, work: work, t0: time.Now()}
	if traced {
		b.loopTr = newTracer(b.t0, &b.ids)
		b.probeTr = newTracer(b.t0, &b.ids)
	}

	if setupOnly {
		t := time.Now()
		err := w.setup(b)
		d := time.Since(t)
		w.close()
		if err != nil {
			return err
		}
		if f := b.failed(); len(f) > 0 {
			return fmt.Errorf("set-up checks failed: %s", strings.Join(f, "; "))
		}
		return printJSON(map[string]float64{"setup_s": d.Seconds()})
	}

	// Earlier set-ups run in fresh child processes, so each one pays the
	// cold per-process memos this process pays for its own.
	var setups []float64
	for i := 1; i < setupReps; i++ {
		s, err := b.childSetup()
		if !b.check("child set-up "+strconv.Itoa(i), err == nil) {
			fmt.Fprintln(os.Stderr, "perfbench: child set-up:", err)
			continue
		}
		setups = append(setups, s)
	}
	t := time.Now()
	err = w.setup(b)
	setups = append(setups, time.Since(t).Seconds())
	defer w.close()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	l, err := b.measure(w)
	if err != nil {
		return err
	}
	pct, tl := tail(l.lat)
	rep := metrics{}
	final := metrics{}
	var tracePath string
	if traced {
		if err := b.probes(w, rep); err != nil {
			return fmt.Errorf("per-layer probes: %w", err)
		}
		b.traceMetrics(l, rep)
		if tracePath, err = b.writeTrace(); err != nil {
			return err
		}
		final = rep
	} else {
		endToEnd(l, setups, final)
		w.detail(l, rep)
		rep.set("tail_ms", tl, "ms")
		rep.set("setup_s", median(setups), "s")
		rep.set("max_rss_mb", final["max_rss_mb"].Value, "MB")
		rep.set("failed_frac", float64(l.failed)/float64(max(l.attempted, 1)), "frac")
	}

	failures := b.failed()
	if err := printJSON(map[string]any{"report": map[string]any{
		"workload": name, "seed": seed, "seconds": dur.Seconds(), "trace": traced,
		"provenance": provenance(b.nproc),
		"samples":    len(l.lat),
		"tail_pct":   pct,
		"latency_pct_ms": map[string]float64{"p50": quantile(l.lat, 0.5), "p90": quantile(l.lat, 0.9),
			"p95": quantile(l.lat, 0.95), "p99": quantile(l.lat, 0.99)},
		"setup_s":      setups,
		"metrics":      rep,
		"failed_check": failures,
		"trace_file":   tracePath,
	}}); err != nil {
		return err
	}
	attempted := l.attempted + b.checkCount()
	failed := l.failed + len(failures)
	return printJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   final,
	})
}

// check records one correctness check; a failed one counts in the run's
// failed total and clears its correct flag.
func (b *bench) check(what string, ok bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checks++
	if !ok {
		b.failures = append(b.failures, what)
	}
	return ok
}

func (b *bench) failed() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string{}, b.failures...)
}

func (b *bench) checkCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.checks
}

// reference returns want as the outputs are compared against it: itself,
// or a copy with one byte flipped when the run checks the gate.
func (b *bench) reference(want []byte) []byte {
	if !b.corrupt || len(want) == 0 {
		return want
	}
	c := append([]byte(nil), want...)
	c[len(c)/2] ^= 0x20
	return c
}

// tempDir names a fresh, not yet created directory under the run's
// scratch directory.
func (b *bench) tempDir(prefix string) string {
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", prefix, b.dirs.Add(1)))
}

// childSetup performs one set-up in a fresh child process.
func (b *bench) childSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := runChild(self, "-workload", b.workload, "-seed", strconv.FormatUint(b.seed, 10), "-setup-only")
	if err != nil {
		return 0, err
	}
	var r struct {
		SetupS float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return 0, fmt.Errorf("child set-up output: %w", err)
	}
	return r.SetupS, nil
}

// measure runs the workload's closed loop for the run's duration: every
// client sends its next operation when the previous one completes. In a
// traced run every other operation of each client is traced, so the two
// halves give the tracing overhead.
func (b *bench) measure(w workload) (*loopResult, error) {
	l := &loopResult{byInput: make([][]float64, w.cycle())}
	var mu sync.Mutex
	var wg sync.WaitGroup
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least one operation, and in a traced run at least one
			// untraced and one traced block.
			for i := 0; i == 0 || time.Since(start) < b.dur || (b.traced && i < 2*w.cycle()); i++ {
				var sp *span
				traced := b.traced && (i/w.cycle())%2 == 1
				if traced {
					sp = b.loopTr.root("op."+b.workload, "bench", c)
				}
				t := time.Now()
				r := w.op(b, c, sp)
				d := ms(time.Since(t))
				sp.end()
				mu.Lock()
				l.attempted++
				if !r.ok {
					l.failed++
				}
				l.lat = append(l.lat, d)
				l.byInput[i%w.cycle()] = append(l.byInput[i%w.cycle()], d)
				if b.traced && traced {
					l.traced = append(l.traced, d)
				} else if b.traced {
					l.untraced = append(l.untraced, d)
				}
				l.work += r.work
				if r.rssKB > 0 {
					l.rssKB = append(l.rssKB, float64(r.rssKB))
				}
				if r.cpu > 0 {
					l.opCPU = append(l.opCPU, r.cpu.Seconds())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	l.cpu = cpuTime() - cpu0
	if l.selfPeakKB, err = rss.stop(); err != nil {
		return nil, err
	}
	return l, nil
}

// typical is the latency of a typical operation: the mean, over the
// positions of the workload's input cycle, of each position's median.
// Where inputs differ in size, the median of all operations would jump
// between the sizes that happen to sit in the middle.
func (l *loopResult) typical() float64 {
	var sum float64
	n := 0
	for _, xs := range l.byInput {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return sum / float64(n)
}

// endToEnd fills the metrics every workload reports.
func endToEnd(l *loopResult, setups []float64, m metrics) {
	ok := float64(l.attempted - l.failed)
	m.set("latency_ms", l.typical(), "ms")
	m.set("cpu_ms", ms(l.cpu)/float64(l.attempted), "ms")
	m.set("ops_per_s", ok/l.wall.Seconds(), "1/s")
	rss := median(l.selfPeakKB)
	if len(l.rssKB) > 0 {
		rss = median(l.rssKB)
	}
	m.set("max_rss_mb", rss/1024, "MB")
	m.set("ok_frac", ok/float64(l.attempted), "frac")
	m.set("setup_s", median(setups), "s")
}

// cpuTime is the user+system CPU time of this process and its waited-for
// children.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with a valid who
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// rssSampler records the peak RSS of this process in consecutive
// one-second windows, so a measured loop reports its typical peak: one
// rare coincidence of allocations in one window does not decide it, and
// the set-up before the loop does not count.
type rssSampler struct {
	stopped chan struct{}
	ended   chan struct{}
	peaksKB []float64
	err     error
}

// startRSSSampler returns the free heap to the operating system, resets
// the peak-RSS mark of this process and starts the windows.
func startRSSSampler() (*rssSampler, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	s := &rssSampler{stopped: make(chan struct{}), ended: make(chan struct{})}
	go func() {
		defer close(s.ended)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for s.err == nil {
			select {
			case <-t.C:
				s.sample(true)
			case <-s.stopped:
				s.sample(false)
				return
			}
		}
	}()
	return s, nil
}

// sample ends a window: it records the window's peak and, unless it is
// the last, resets the mark.
func (s *rssSampler) sample(reset bool) {
	kb, err := peakRSSKB()
	if err == nil {
		s.peaksKB = append(s.peaksKB, float64(kb))
		if reset {
			err = resetPeakRSS()
		}
	}
	s.err = err
}

// stop ends the last window and returns every window's peak, in KiB.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.stopped)
	<-s.ended
	return s.peaksKB, s.err
}

// resetPeakRSS resets the peak-RSS mark (VmHWM) of this process to its
// current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB is the peak RSS of this process since the last resetPeakRSS,
// in KiB.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// runChild runs a command to completion and returns its standard output;
// its standard error passes through.
func runChild(name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	return out.Bytes(), err
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// provenance describes the runner a report was measured on.
func provenance(nproc int) map[string]any {
	commit := "unknown"
	if wd, err := os.Getwd(); err == nil {
		// Only a repository rooted here counts; git looks no higher.
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if h, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(h))
		}
	}
	return map[string]any{
		"commit":           commit,
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            nproc,
		"cpu_model":        cpuModel(),
		"calibration_mops": calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibrationSink uint64

// calibrate scores the runner with a fixed integer loop (splitmix64
// steps), in millions of steps per second.
func calibrate() float64 {
	const n = 20_000_000
	t := time.Now()
	x := uint64(0)
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		calibrationSink ^= z ^ (z >> 31)
	}
	return n / time.Since(t).Seconds() / 1e6
}
