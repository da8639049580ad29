package main

// shard-warm: what a scaled-out user waits for. shard.Run drives two
// loopback shard.Worker handlers with one engine worker each. Set-up
// builds a fresh disk-backed coordinator cache, as `coevo study -shards N
// -cache-dir` does, serves it as the remote tier, and fills it with one
// cold sharded run that writes through. Each timed sharded run reads
// through the tier with fresh worker-local caches, then renders the
// figures and the CSV to files.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/shard"
	"coevo/internal/study"
)

// warmRuns is how many timed sharded runs follow one set-up, and
// shardPerTaxon the corpus scale: twenty projects of each of the six
// taxa. A round is then short enough that a run covers several corpora,
// each filled once and read warm ten times, and large enough that the
// per-project counts of a run rest on some thousand projects.
const (
	warmRuns      = 10
	shardPerTaxon = 20
)

// shardCluster is a coordinator cache served as the remote tier plus two
// shard workers, all on loopback listeners in this process.
type shardCluster struct {
	dir      string
	cache    *cache.Cache
	tier     *http.Server
	tierURL  string
	workers  []*obs.Server
	addrs    []string
	tierTap  *tap // nil unless traced
	shardTap *tap
}

// startCluster builds the cluster; with taps set, the tier and the worker
// handlers are timed and their traffic counted.
func startCluster(dir string, traced bool) (*shardCluster, error) {
	o := obs.New(obs.Options{})
	c, err := cache.New(cache.Options{Dir: dir, Obs: o})
	if err != nil {
		return nil, err
	}
	sc := &shardCluster{dir: dir, cache: c}
	if traced {
		sc.tierTap, sc.shardTap = &tap{}, &tap{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sc.tier = &http.Server{Handler: sc.tierTap.wrap(cache.TierHandler(c))}
	go sc.tier.Serve(ln) //nolint:errcheck // ends with Close in stop
	sc.tierURL = "http://" + ln.Addr().String() + "/cache"
	for i := 0; i < 2; i++ {
		wo := obs.New(obs.Options{})
		w := &shard.Worker{Obs: wo, Workers: 1}
		srv, err := obs.Serve(obs.ServeOptions{
			Addr: "127.0.0.1:0", Registry: wo.Metrics(), Logger: wo.Logger(),
			Handlers: map[string]http.Handler{"/shard/run": sc.shardTap.wrap(w.Handler())},
		})
		if err != nil {
			sc.stop() //nolint:errcheck // already failing
			return nil, err
		}
		srv.SetReady(true)
		sc.workers = append(sc.workers, srv)
		sc.addrs = append(sc.addrs, srv.URL())
	}
	return sc, nil
}

// stop shuts the workers and the tier down and deletes the coordinator
// cache.
func (sc *shardCluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, w := range sc.workers {
		w.BeginDrain()
		errs = append(errs, w.Shutdown(ctx))
	}
	errs = append(errs, sc.tier.Close(), os.RemoveAll(sc.dir))
	return errors.Join(errs...)
}

// run is one sharded study over the round's corpus, writing through to
// or reading through the coordinator's tier.
func (sc *shardCluster) run(ctx context.Context, seed int64) (*shard.Result, error) {
	return shard.Run(ctx, sc.addrs, shard.RunRequest{Seed: seed, PerTaxon: shardPerTaxon, CSV: true, CacheURL: sc.tierURL})
}

// render writes what `coevo study -shards N -csv -out` writes: the CSV and
// every section.
func render(res *shard.Result, seed int64, out string, tr *tracer, parent int) error {
	call := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		tr.do(name, parent, 0, f)
	}
	var err error
	call("report.csv", func() { err = writeFile(filepath.Join(out, "dataset.csv"), res.WriteCSV) })
	if err != nil {
		return err
	}
	a := report.FiguresArtifacts(res.Figures, seed)
	if tr != nil {
		var stats *study.StatsReport
		var statsErr error
		call("study.stats", func() { stats, statsErr = a.Stats() })
		a.Stats = func() (*study.StatsReport, error) { return stats, statsErr }
	}
	call("report.render", func() { err = writeSections(a, out) })
	return err
}

// setUpShard builds a fresh cluster and fills its coordinator cache with
// one cold run.
func setUpShard(ctx context.Context, e *env, seed int64, traced bool) (*shardCluster, error) {
	sc, err := startCluster(filepath.Join(e.dir, "coordinator-cache"), traced)
	if err != nil {
		return nil, err
	}
	if _, err := sc.run(ctx, seed); err != nil {
		sc.stop() //nolint:errcheck // already failing
		return nil, err
	}
	return sc, nil
}

func shardWarmRound(ctx context.Context, e *env, seed int64) (roundResult, error) {
	setup := startClock()
	sc, err := setUpShard(ctx, e, seed, false)
	if err != nil {
		return roundResult{}, err
	}
	var r roundResult
	r.setup, r.setupRaw = setup.elapsed()
	outs := make([]string, warmRuns)
	for i := range outs {
		outs[i] = filepath.Join(e.dir, "out", strconv.Itoa(i))
		if err := os.MkdirAll(outs[i], 0o755); err != nil {
			return r, err
		}
	}
	sec := beginSection()
	var runErr error
	for _, out := range outs {
		t := time.Now()
		var res *shard.Result
		if res, runErr = sc.run(ctx, seed); runErr != nil {
			break
		}
		if runErr = render(res, seed, out, nil, -1); runErr != nil {
			break
		}
		r.jobs = append(r.jobs, time.Since(t))
		r.units += res.Projects
		r.attempted += res.Projects + len(res.Failures)
		r.failed += len(res.Failures)
		for _, f := range res.Failures {
			e.log("project %s failed: %v", f.Name, f.Err)
		}
	}
	r.timed = sec.end()
	if err := sc.stop(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return r, runErr
	}
	want, err := batchReference(ctx, seed, shardPerTaxon)
	if err != nil {
		return r, err
	}
	for _, out := range outs {
		got, err := readOutputs(out)
		if err != nil {
			return r, err
		}
		if err := checkSameOutputs("sharded run", got, want); err != nil {
			return r, err
		}
	}
	return r, os.RemoveAll(filepath.Join(e.dir, "out"))
}

// batchReference renders the unsharded study through the batch path —
// materialize the corpus, AnalyzeCorpus, DatasetArtifacts — as the bytes
// every sharded run must reproduce.
func batchReference(ctx context.Context, seed int64, perTaxon int) (map[string][]byte, error) {
	cfg := corpus.DefaultConfig(seed)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = perTaxon
	}
	projects, err := corpus.GenerateContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	d, err := study.AnalyzeCorpusContext(ctx, projects, study.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, s := range report.StudySections(report.DatasetArtifacts(d, seed)) {
		var b strings.Builder
		if err := s.Write(&b); err != nil {
			return nil, err
		}
		out[s.Name] = []byte(b.String())
	}
	var b strings.Builder
	if err := report.WriteDatasetCSV(&b, d); err != nil {
		return nil, err
	}
	out["dataset.csv"] = []byte(b.String())
	return out, nil
}

func readOutputs(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = b
	}
	return out, nil
}

// tap times the requests an HTTP handler serves and counts their bytes,
// by method.
type tap struct {
	mu       sync.Mutex
	byMethod map[string]*tapStats
	served   []time.Duration // per request, in completion order
}

type tapStats struct {
	n       int
	dur     time.Duration
	in, out int64
}

func (t *tap) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.byMethod == nil {
			t.byMethod = map[string]*tapStats{}
		}
		s := t.byMethod[r.Method]
		if s == nil {
			s = &tapStats{}
			t.byMethod[r.Method] = s
		}
		s.n++
		s.dur += d
		s.in += r.ContentLength
		s.out += cw.n
		t.served = append(t.served, d)
	})
}

// take returns the stats gathered so far and resets them.
func (t *tap) take() (map[string]*tapStats, []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, s := t.byMethod, t.served
	t.byMethod, t.served = nil, nil
	if m == nil {
		m = map[string]*tapStats{}
	}
	return m, s
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// shardWarmTraced runs one set-up and a few warm runs with the tier and
// the worker handlers tapped, and spans around the coordinator and the
// rendering.
func shardWarmTraced(ctx context.Context, e *env, seed int64, tr *tracer, m map[string]metric) (int, int, error) {
	const runs = 3
	first := tr.mark()
	var sc *shardCluster
	var err error
	tr.do("shard.setup", -1, 0, func() { sc, err = setUpShard(ctx, e, seed, true) })
	if err != nil {
		return 0, 0, err
	}
	fill, _ := sc.tierTap.take()
	sc.shardTap.take()
	out := filepath.Join(e.dir, "traced")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, 0, err
	}
	var attempted, failed, projects int
	var maxW, minW, coord time.Duration
	var respBytes int64
	gets := &tapStats{}
	for i := 0; i < runs && err == nil; i++ {
		root := tr.open("shard-warm", -1, 0)
		var res *shard.Result
		run := tr.do("shard.run", root, 0, func() { res, err = sc.run(ctx, seed) })
		if err == nil {
			err = render(res, seed, out, tr, root)
		}
		tr.close(root)
		if err != nil {
			break
		}
		attempted += res.Projects + len(res.Failures)
		failed += len(res.Failures)
		projects += res.Projects
		tiers, _ := sc.tierTap.take()
		if g := tiers[http.MethodGet]; g != nil {
			gets.n, gets.dur, gets.out = gets.n+g.n, gets.dur+g.dur, gets.out+g.out
		}
		workers, served := sc.shardTap.take()
		slow, fast := served[0], served[0]
		for _, d := range served {
			slow, fast = max(slow, d), min(fast, d)
		}
		maxW, minW = maxW+slow, minW+fast
		coord += tr.duration(run) - slow
		respBytes += workers[http.MethodPost].out
	}
	if serr := sc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return attempted, failed, err
	}
	tot := tr.totals(first)
	put := fill[http.MethodPut]
	if put == nil {
		put = &tapStats{}
	}
	m["shard.worker_ms_max"] = metric{ms(maxW) / runs, "ms"}
	m["shard.worker_ms_min"] = metric{ms(minW) / runs, "ms"}
	m["shard.coordinator_ms"] = metric{ms(coord) / runs, "ms"}
	m["shard.response_kib"] = metric{float64(respBytes) / 1024 / runs, "KiB"}
	m["cache.remote_gets"] = metric{float64(gets.n) / runs, "count"}
	m["cache.remote_get_us"] = metric{perCall(gets), "us"}
	m["cache.remote_mib_read"] = metric{float64(gets.out) / (1 << 20) / runs, "MiB"}
	m["cache.remote_puts"] = metric{float64(put.n), "count"}
	m["cache.remote_put_us"] = metric{perCall(put), "us"}
	m["cache.remote_mib_written"] = metric{float64(put.in) / (1 << 20), "MiB"}
	m["report.csv_us_per_project"] = metric{float64(tot["report.csv"].dur) / float64(time.Microsecond) / float64(projects), "us"}
	m["study.stats_ms"] = metric{ms(tot["study.stats"].dur) / runs, "ms"}
	m["report.render_ms"] = metric{ms(tot["report.render"].dur) / runs, "ms"}
	e.log("shard-warm traced: set-up %.3fs (%d remote puts), %d warm runs", tot["shard.setup"].dur.Seconds(), put.n, runs)
	return attempted, failed, nil
}

func perCall(s *tapStats) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.dur) / float64(time.Microsecond) / float64(s.n)
}
