package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// contract is the part of BENCHMARK.json the smoke test checks reports
// against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// detailMetrics are the named metrics each workload's report carries
// besides the end-to-end set.
var detailMetrics = map[string][]string{
	"campaign-cold": {"campaign_s", "campaign_cpu_s", "tail_ms", "max_rss_mb", "failed_frac", "setup_s"},
	"campaign-warm": {"campaign_s", "campaign_cpu_s", "tail_ms", "max_rss_mb", "failed_frac", "setup_s"},
	"remote-batch":  {"batch_ms", "batch_tail_ms", "points_per_s", "tail_ms", "max_rss_mb", "failed_frac", "setup_s"},
	"offload":       {"offload_ms", "offload_tail_ms", "sim_mcycles_per_s", "tail_ms", "max_rss_mb", "failed_frac", "setup_s"},
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type report struct {
	Report struct {
		Metrics    metrics        `json:"metrics"`
		Provenance map[string]any `json:"provenance"`
		TailPct    float64        `json:"tail_pct"`
		Samples    int            `json:"samples"`
	} `json:"report"`
}

// runSmoke runs every workload briefly, untraced and traced, and checks
// that each emits every metric BENCHMARK.json names with its unit; then
// reruns each with corrupted references and checks the gate trips.
func runSmoke() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	for _, wl := range c.Workloads {
		if _, ok := detailMetrics[wl.Name]; !ok {
			bad("%s: BENCHMARK.json names a workload the benchmark does not run", wl.Name)
			continue
		}
		for _, mode := range []struct {
			name string
			args []string
			want []contractMetric
		}{
			{"untraced", []string{"-trace", "0"}, c.EndToEnd},
			{"traced", []string{"-trace", "1"}, c.PerLayer},
			{"corrupted", []string{"-trace", "0", "-corrupt"}, nil},
		} {
			fmt.Fprintf(os.Stderr, "smoke: %s %s\n", wl.Name, mode.name)
			args := append([]string{"-workload", wl.Name, "-seed", "1", "-seconds", "1"}, mode.args...)
			out, err := runChild(self, args...)
			if err != nil {
				bad("%s %s: %v", wl.Name, mode.name, err)
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			var rep report
			if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &res) != nil || json.Unmarshal(lines[len(lines)-2], &rep) != nil {
				bad("%s %s: last two output lines are not the report and the result", wl.Name, mode.name)
				continue
			}
			if mode.want == nil {
				if res.Correct || res.Failed == 0 {
					bad("%s: corrupted references did not trip the correctness gate", wl.Name)
				}
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				bad("%s %s: correct=%v attempted=%d failed=%d", wl.Name, mode.name, res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(wl.Name+" "+mode.name, res.Metrics, mode.want, mode.name == "untraced", bad)
			if mode.name == "untraced" {
				for _, name := range detailMetrics[wl.Name] {
					if m, ok := rep.Report.Metrics[name]; !ok || m.Unit == "" || !finite(m.Value) {
						bad("%s report: metric %s missing or without a unit", wl.Name, name)
					}
				}
				for _, k := range []string{"commit", "go", "gomaxprocs", "nproc", "cpu_model", "calibration_mops"} {
					if _, ok := rep.Report.Provenance[k]; !ok {
						bad("%s report: provenance lacks %s", wl.Name, k)
					}
				}
				if rep.Report.Samples < 1 || rep.Report.TailPct == 0 {
					bad("%s report: no sample count or tail percentile", wl.Name)
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("smoke test failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println(`{"smoke": "ok"}`)
	return nil
}

// checkMetrics compares a result's metrics with the contract: the same
// names, the same units, finite values, and no zero end-to-end value.
func checkMetrics(what string, got metrics, want []contractMetric, nonZero bool, bad func(string, ...any)) {
	names := map[string]bool{}
	for _, w := range want {
		names[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			bad("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			bad("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case !finite(m.Value):
			bad("%s: metric %s is not finite", what, w.Name)
		case nonZero && m.Value == 0:
			bad("%s: end-to-end metric %s is 0", what, w.Name)
		}
	}
	var extra []string
	for name := range got {
		if !names[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		bad("%s: metrics not in BENCHMARK.json: %s", what, strings.Join(extra, ", "))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
