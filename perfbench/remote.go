package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/serve"
	"hetsim/internal/sweep"
)

// remote serves the measurement campaign from an in-process hetsimd on
// loopback: nproc clients each repeat paper.MeasureRemoteBatch over
// serve.Client.RunBatch — one /v1/batch per 60-point campaign — and
// render table1/fig3/fig4/fig5a. The workload seed is the suite seed,
// the kernels' input seed.
type remote struct {
	svc   *service
	suite []*kernels.Instance
}

// service is an in-process hetsimd whose on-disk cache holds the seed's
// measurement campaign, with the tables the local fold renders from it.
type service struct {
	seed    uint64
	cache   *sweep.Cache
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*serve.Client
	ref     []byte // the local fold's table1/fig3/fig4/fig5a
}

func (w *remote) clients() int { return len(w.svc.clients) }

func (w *remote) cycle() int { return 1 }

func (w *remote) setup(b *bench) error {
	w.suite = kernels.PaperSuite()
	svc, err := startService(b)
	w.svc = svc
	if err != nil {
		return err
	}
	// One verified campaign per client primes connections and decoders.
	for c := range svc.clients {
		b.check(fmt.Sprintf("set-up batch campaign of client %d equals the local fold", c), w.op(b, c, nil).ok)
	}
	return nil
}

// startService fills a fresh cache with the seed's 60-point measurement
// campaign through a local sweep engine, folds and renders it (the
// reference), scrubs the cache like hetsimd does at boot, and serves it
// on loopback to nproc clients.
func startService(b *bench) (*service, error) {
	s := &service{seed: b.seed}
	var err error
	if s.cache, err = sweep.Open(b.tempDir("serve-cache")); err != nil {
		return nil, err
	}
	specs, err := paper.SuiteSpecs("measure", false, false, b.seed)
	if err != nil {
		return nil, err
	}
	jobs := make([]sweep.Job[json.RawMessage], len(specs))
	for i, spec := range specs {
		if jobs[i], err = paper.BuildSpecJob(spec); err != nil {
			return nil, err
		}
	}
	raws, err := sweep.Run(sweep.New(sweep.Config{Workers: b.nproc, Cache: s.cache}), jobs)
	if err != nil {
		return nil, err
	}
	local := func(_ context.Context, got []paper.JobSpec) ([]json.RawMessage, error) {
		if len(got) != len(raws) {
			return nil, fmt.Errorf("local fold: %d specs for %d results", len(got), len(raws))
		}
		return raws, nil
	}
	m, err := paper.MeasureRemoteBatch(context.Background(), local, kernels.PaperSuite(), false, false)
	if err != nil {
		return nil, err
	}
	ref, err := renderTables(m)
	if err != nil {
		return nil, err
	}
	if b.seed == 1 {
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, err
		}
		b.check("seed-1 local fold equals "+goldenPath, bytes.Equal(ref, golden))
	}
	s.ref = b.reference(ref)
	scrub, err := s.cache.Scrub()
	if err != nil {
		return nil, err
	}
	b.check("set-up cache scrubs clean", scrub.Clean())

	s.srv = serve.New(serve.Config{Cache: s.cache, Workers: b.nproc, Scrub: &scrub})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	for range b.nproc {
		s.clients = append(s.clients, &serve.Client{BaseURL: s.base,
			HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}})
	}
	return s, nil
}

// runner is the BatchRunner of client c: serve.Client.RunBatch with the
// service's suite seed on every point.
func (s *service) runner(c int, sp *span) paper.BatchRunner {
	return func(ctx context.Context, specs []paper.JobSpec) ([]json.RawMessage, error) {
		seeded := append([]paper.JobSpec(nil), specs...)
		for i := range seeded {
			seeded[i].Seed = s.seed
		}
		rs := sp.child("serve.Client.RunBatch", "serve")
		defer rs.end()
		return s.clients[c].RunBatch(ctx, seeded)
	}
}

func (s *service) close() {
	if s == nil {
		return
	}
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
		if err := s.hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
		}
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}
	for _, c := range s.clients {
		c.HTTP.CloseIdleConnections()
	}
}

// renderTables renders the four measurement sections the way
// full_reproduction.golden records them.
func renderTables(m *paper.Measurements) ([]byte, error) {
	var buf bytes.Buffer
	paper.RenderTable1(&buf, m.Table1())
	buf.WriteByte('\n')
	pts, err := m.Figure3()
	if err != nil {
		return nil, err
	}
	paper.RenderFigure3(&buf, pts)
	buf.WriteByte('\n')
	paper.RenderFigure4(&buf, m.Figure4())
	buf.WriteByte('\n')
	paper.RenderFigure5a(&buf, m.Figure5a())
	return buf.Bytes(), nil
}

func (w *remote) op(b *bench, c int, sp *span) opResult {
	fs := sp.child("paper.MeasureRemoteBatch", "paper")
	m, err := paper.MeasureRemoteBatch(context.Background(), w.svc.runner(c, fs), w.suite, false, false)
	fs.end()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: batch campaign:", err)
		return opResult{}
	}
	rs := sp.child("paper.Render", "paper")
	out, err := renderTables(m)
	rs.end()
	if err != nil || !bytes.Equal(out, w.svc.ref) {
		return opResult{}
	}
	return opResult{ok: true, work: float64(len(w.suite) * len(paper.SpecConfigs()))}
}

func (w *remote) detail(l *loopResult, m metrics) {
	_, tl := tail(l.lat)
	m.set("batch_ms", l.typical(), "ms")
	m.set("batch_tail_ms", tl, "ms")
	m.set("points_per_s", l.work/l.wall.Seconds(), "1/s")
}

func (w *remote) close() { w.svc.close() }

// serveProbe measures the serving layer on svc: each client runs batch
// campaigns, then raw /v1/batch streams give the time to the first
// record and the gaps between records. Server counters are deltas of
// Server.Stats over the probe.
func (b *bench) serveProbe(svc *service, m metrics) error {
	const campaigns, streams = 10, 10
	root := b.probeTr.root("probe.serve", "bench", 0)
	defer root.end()
	stats := func() serve.Stats {
		s := root.child("serve.Server.Stats", "serve")
		defer s.end()
		return svc.srv.Stats()
	}
	st0 := stats()
	suite := kernels.PaperSuite()
	errs := make(chan error, len(svc.clients))
	for c := range svc.clients {
		go func() {
			for range campaigns {
				meas, err := paper.MeasureRemoteBatch(context.Background(), svc.runner(c, root), suite, false, false)
				if err == nil {
					var out []byte
					out, err = renderTables(meas)
					b.check("serve probe campaign equals the local fold", err == nil && bytes.Equal(out, svc.ref))
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range svc.clients {
		if err := <-errs; err != nil {
			return err
		}
	}

	specs, err := paper.SuiteSpecs("measure", false, false, svc.seed)
	if err != nil {
		return err
	}
	body, err := json.Marshal(paper.BatchRequest{Specs: specs})
	if err != nil {
		return err
	}
	var first, gaps []float64
	for range streams {
		f, g, err := rawStream(svc.clients[0].HTTP, svc.base, body, len(specs))
		if err != nil {
			return err
		}
		first = append(first, f)
		gaps = append(gaps, g...)
	}
	st := stats()
	m.set("serve.first_record_ms", median(first), "ms")
	m.set("serve.record_gap_us", median(gaps)*1e3, "us")
	leads, deduped := st.Leads-st0.Leads, st.Deduped-st0.Deduped
	m.set("serve.requests", float64(st.Requests-st0.Requests), "count")
	m.set("serve.leads", float64(leads), "count")
	m.set("serve.deduped", float64(deduped), "count")
	m.set("serve.dedup_ratio", ratio(float64(deduped), float64(leads+deduped)), "frac")
	m.set("serve.cache_hits", float64(st.CacheHits-st0.CacheHits), "count")
	m.set("serve.executed", float64(st.Executed-st0.Executed), "count")
	rejected := func(s serve.Stats) uint64 {
		return s.RejectedQueue + s.RejectedRate + s.RejectedQuota + s.RejectedDrain + s.BadRequests
	}
	m.set("serve.rejected", float64(rejected(st)-rejected(st0)), "count")
	m.set("serve.failed", float64(st.Failed-st0.Failed), "count")
	m.set("serve.batch_heartbeats", float64(st.BatchHeartbeats-st0.BatchHeartbeats), "count")
	return nil
}

// rawStream posts one /v1/batch and reads its NDJSON stream, returning
// the milliseconds from sending to the first record and the gaps between
// consecutive records.
func rawStream(hc *http.Client, base string, body []byte, jobs int) (float64, []float64, error) {
	t := time.Now()
	resp, err := hc.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("/v1/batch: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var first float64
	var gaps []float64
	last, n := t, 0
	var summary *paper.BatchSummary
	for sc.Scan() {
		now := time.Now()
		if n == 0 {
			first = ms(now.Sub(t))
		} else {
			gaps = append(gaps, ms(now.Sub(last)))
		}
		last = now
		n++
		var rec paper.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, nil, err
		}
		if rec.Type == paper.BatchTypeSummary {
			summary = rec.Summary
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if summary == nil || summary.Completed != jobs {
		return 0, nil, fmt.Errorf("/v1/batch stream ended without completing %d jobs: %+v", jobs, summary)
	}
	return first, gaps, nil
}
