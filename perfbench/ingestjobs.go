package main

// ingest-jobs: what service users wait for, on real-git input. Set-up
// turns the round's corpus into `git log --name-status --no-merges` text
// and dated DDL versions, builds the service as `coevo serve` composes it
// and completes the specs that will be repeated. The timed section is two
// closed-loop clients, one per tenant, each submitting ingest jobs over
// HTTP, waiting for the terminal SSE event and fetching the result.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

// repeatEvery makes every fifth project of the corpus a repeat: its spec
// completes during set-up under one tenant and is submitted again in the
// timed section under the other, so a fixed 20% of the timed jobs are
// result-cache hits.
const repeatEvery = 5

// ingestPerTaxon sizes a round: 33 projects of each taxon, 198 jobs.
const ingestPerTaxon = 33

var tenants = [2]string{"alice", "bob"}

// payload is one project as an ingest submission. Only the submitted
// bytes and what the checks need are kept, so the benchmark's own heap
// stays small beside the service's.
type payload struct {
	name string
	spec []byte // the submitted JSON
	// versionNames orders the DDL versions by (date, n), as the service
	// does; commits and fileUpdates are counted in the submitted log text.
	versionNames         []string
	commits, fileUpdates int
}

// ingestPlan is a round's inputs: the specs completed during set-up, and
// each client's job list in submission order.
type ingestPlan struct {
	fill    [2][]*payload // completed during set-up, by tenant
	timed   [2][]*payload // submitted in the timed section, by client
	repeats int
}

// buildIngestPlan generates the round's corpus and turns each project into
// an ingest payload, with perTaxon projects of each taxon.
func buildIngestPlan(ctx context.Context, seed int64, perTaxon int) (*ingestPlan, error) {
	cfg := corpus.DefaultConfig(seed)
	cfg.Exec.Workers = 1
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = perTaxon
	}
	plan := &ingestPlan{}
	i := 0
	_, err := corpus.EachContext(ctx, cfg, func(p *corpus.Project) error {
		pl, err := newPayload(p)
		if err != nil {
			return err
		}
		if i%repeatEvery == repeatEvery-1 {
			filler := (i / repeatEvery) % 2
			plan.fill[filler] = append(plan.fill[filler], pl)
			plan.timed[1-filler] = append(plan.timed[1-filler], pl)
			plan.repeats++
		} else {
			plan.timed[i%2] = append(plan.timed[i%2], pl)
		}
		i++
		return nil
	})
	return plan, err
}

// newPayload renders a project the way a user exports a real repository:
// the non-merge name-status log, and every version of the DDL file named
// by its commit date (YYYY-MM-DD, then YYYY-MM-DD.1, ... within a day).
func newPayload(p *corpus.Project) (*payload, error) {
	var log bytes.Buffer
	if err := gitlog.Emit(&log, gitlog.FromRepository(p.Repo, true)); err != nil {
		return nil, err
	}
	pl := &payload{name: p.Repo.Name()}
	pl.commits, pl.fileUpdates = logCounts(log.String())
	byName := map[string]string{}
	perDay := map[string]int{}
	for _, fv := range p.Repo.FileVersions(p.DDLPath) {
		if fv.Deleted {
			continue
		}
		day := fv.Commit.When().UTC().Format("2006-01-02")
		name := day
		if n := perDay[day]; n > 0 {
			name = fmt.Sprintf("%s.%d", day, n)
		}
		perDay[day]++
		byName[name] = string(fv.Content)
		pl.versionNames = append(pl.versionNames, name)
	}
	spec := jobs.Spec{Kind: jobs.KindIngest, Name: pl.name,
		Ingest: &jobs.IngestSpec{GitLog: log.String(), DDLVersions: byName}}
	var err error
	pl.spec, err = json.Marshal(spec)
	return pl, err
}

// decode recovers the submitted log text and the dated DDL versions,
// spaced a minute apart in (date, n) order as the service spaces them.
func (p *payload) decode() (string, []history.DatedContent, error) {
	var spec jobs.Spec
	if err := json.Unmarshal(p.spec, &spec); err != nil {
		return "", nil, err
	}
	versions := make([]history.DatedContent, 0, len(p.versionNames))
	for i, name := range p.versionNames {
		day, _, _ := strings.Cut(name, ".")
		when, err := time.Parse("2006-01-02", day)
		if err != nil {
			return "", nil, err
		}
		versions = append(versions, history.DatedContent{
			When: when.Add(time.Duration(i) * time.Minute), Content: []byte(spec.Ingest.DDLVersions[name]),
		})
	}
	return spec.Ingest.GitLog, versions, nil
}

// service is the analysis service as `coevo serve` composes it with its
// default flags, except that logs are formatted but discarded and the
// listener is loopback on a free port.
type service struct {
	dir             string
	queue           *jobs.Queue
	srv             *obs.Server
	cache           *cache.Cache
	jobsDir, ledger string
}

func startService(dir string) (*service, error) {
	s := &service{dir: dir, jobsDir: filepath.Join(dir, "jobs"), ledger: filepath.Join(dir, "runs")}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	o := obs.New(obs.Options{Logger: logger, FlightEvents: obs.DefaultFlightEvents})
	reg := o.Metrics()
	obs.RegisterProcMetrics(reg)
	runlog.RegisterMetrics(reg, s.ledger)
	guard := obs.NewLabelGuard(obs.DefaultTenantLabelCap)
	red := obs.NewRED(reg, guard)
	s.cache = cache.NewMemory()
	s.cache.RegisterMetrics(reg)
	exec := &jobs.Executor{Cache: s.cache, Obs: o, LedgerDir: s.ledger}
	q, err := jobs.Open(jobs.QueueOptions{
		Dir: s.jobsDir, Exec: exec.Run, Workers: 2, TenantMaxRunning: 1, TenantMaxQueued: 8,
		Obs: o, TenantGuard: guard,
	})
	if err != nil {
		return nil, err
	}
	q.RegisterMetrics(reg)
	s.queue = q
	ledger := runlog.Handler(s.ledger)
	api := jobs.Handler(q)
	status := jobs.NewStatusHandler(jobs.StatusOptions{Queue: q, Cache: s.cache, RED: red, Flight: o.Flight(), Start: time.Now()})
	s.srv, err = obs.Serve(obs.ServeOptions{
		Addr: "127.0.0.1:0", Registry: reg, Logger: logger,
		Handlers: map[string]http.Handler{
			"/runs": ledger, "/runs/": ledger,
			"/jobs": api, "/jobs/": api,
			"/status": status,
		},
		Tenant: jobs.TenantFromRequest, RED: red, Flight: o.Flight(),
	})
	if err != nil {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Close(cctx) //nolint:errcheck // already failing
		return nil, err
	}
	s.srv.SetReady(true)
	return s, nil
}

// stop shuts the service down the way `coevo serve` does on SIGINT.
func (s *service) stop() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	qerr := s.queue.Close(ctx)
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("service shutdown: %w", err)
	}
	return qerr
}

// client is one tenant's closed-loop HTTP client with one connection.
type client struct {
	base, tenant string
	http         *http.Client
	lane         int
}

func newClient(base, tenant string, lane int) *client {
	return &client{base: base, tenant: tenant, lane: lane, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	p       *payload
	id      string
	state   jobs.State
	errMsg  string
	result  *jobs.Result
	latency time.Duration
	// respBytes is the size of the result response.
	respBytes int
}

func (c *client) request(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Coevo-Tenant", c.tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// submit posts a spec and returns the job id.
func (c *client) submit(ctx context.Context, spec []byte) (string, error) {
	raw, err := c.request(ctx, http.MethodPost, "/jobs", spec)
	if err != nil {
		return "", err
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		return "", err
	}
	return j.ID, nil
}

// wait follows the job's SSE stream to its end and returns the final
// state event.
func (c *client) wait(ctx context.Context, id string) (jobs.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return jobs.Event{}, err
	}
	req.Header.Set("X-Coevo-Tenant", c.tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return jobs.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Event{}, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	var last jobs.Event
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				return last, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	if !last.State.Terminal() {
		return last, fmt.Errorf("events %s: stream ended in state %q", id, last.State)
	}
	return last, nil
}

// run submits one job, waits for it to end and fetches its result: the
// latency a service user sees. With tr set, each call is a span.
func (c *client) run(ctx context.Context, p *payload, tr *tracer, parent int) (*jobOutcome, error) {
	o := &jobOutcome{p: p}
	call := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		tr.do(name, parent, c.lane, f)
	}
	t0 := time.Now()
	var err error
	call("jobs.submit", func() { o.id, err = c.submit(ctx, p.spec) })
	if err != nil {
		return nil, err
	}
	var ev jobs.Event
	call("jobs.wait", func() { ev, err = c.wait(ctx, o.id) })
	if err != nil {
		return nil, err
	}
	o.state, o.errMsg = ev.State, ev.Error
	if o.state == jobs.StateDone {
		var raw []byte
		call("jobs.result", func() {
			if raw, err = c.request(ctx, http.MethodGet, "/jobs/"+o.id+"/result", nil); err == nil {
				o.result = &jobs.Result{}
				err = json.Unmarshal(raw, o.result)
			}
		})
		if err != nil {
			return nil, err
		}
		o.respBytes = len(raw)
	}
	o.latency = time.Since(t0)
	return o, nil
}

// runClients runs each client's job list concurrently, one job at a time
// per client, and returns every outcome.
func runClients(ctx context.Context, clients [2]*client, lists [2][]*payload, tr *tracer, parent int) ([]*jobOutcome, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var out []*jobOutcome
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for _, p := range lists[i] {
				o, err := c.run(ctx, p, tr, parent)
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// ingestRound is the state one round shares between its phases.
type ingestRound struct {
	plan    *ingestPlan
	svc     *service
	clients [2]*client
	filled  int // fill jobs that completed
}

// setUpIngest generates the payloads, starts a fresh service and completes the
// specs the timed section repeats.
func setUpIngest(ctx context.Context, e *env, seed int64, perTaxon int) (*ingestRound, error) {
	plan, err := buildIngestPlan(ctx, seed, perTaxon)
	if err != nil {
		return nil, err
	}
	svc, err := startService(filepath.Join(e.dir, "service"))
	if err != nil {
		return nil, err
	}
	ir := &ingestRound{plan: plan, svc: svc}
	for i := range ir.clients {
		ir.clients[i] = newClient(svc.srv.URL(), tenants[i], i)
	}
	fill, err := runClients(ctx, ir.clients, plan.fill, nil, -1)
	if err != nil {
		ir.stop() //nolint:errcheck // already failing
		return nil, err
	}
	for _, o := range fill {
		if o.state == jobs.StateDone {
			ir.filled++
		}
	}
	return ir, nil
}

func (ir *ingestRound) stop() error {
	for _, c := range ir.clients {
		c.close()
	}
	return ir.svc.stop()
}

// dedupHits counts the jobs the service served from its result cache.
func (ir *ingestRound) dedupHits(ctx context.Context) (int, error) {
	raw, err := ir.clients[0].request(ctx, http.MethodGet, "/jobs", nil)
	if err != nil {
		return 0, err
	}
	var list []*jobs.Job
	if err := json.Unmarshal(raw, &list); err != nil {
		return 0, err
	}
	hits := 0
	for _, j := range list {
		if j.CacheHit {
			hits++
		}
	}
	return hits, nil
}

func ingestJobsRound(ctx context.Context, e *env, seed int64) (roundResult, error) {
	setup := startClock()
	ir, err := setUpIngest(ctx, e, seed, ingestPerTaxon)
	if err != nil {
		return roundResult{}, err
	}
	var r roundResult
	r.setup, r.setupRaw = setup.elapsed()
	sec := beginSection()
	outcomes, runErr := runClients(ctx, ir.clients, ir.plan.timed, nil, -1)
	r.timed = sec.end()
	hits, err := ir.dedupHits(ctx)
	if serr := ir.stop(); runErr == nil {
		runErr = serr
	}
	if runErr == nil {
		runErr = os.RemoveAll(ir.svc.dir)
	}
	if runErr != nil {
		return r, runErr
	}
	if err != nil {
		return r, err
	}
	r.attempted = len(outcomes)
	for _, o := range outcomes {
		r.jobs = append(r.jobs, o.latency)
		if o.state != jobs.StateDone {
			r.failed++
			e.log("job %s (%s) ended %s: %s", o.id, o.p.name, o.state, o.errMsg)
			continue
		}
		r.units++
		if err := checkCaseStudy(o.p.commits, o.p.fileUpdates, o.result.Sections["casestudy.txt"], o.result.ParseHealth); err != nil {
			return r, fmt.Errorf("%s: %w", o.p.name, err)
		}
	}
	return r, checkDedup(hits, ir.filled)
}

// ingestJobsTraced runs one round with a span around every client call,
// reads each job's own queue timestamps, sizes the service's directories,
// and probes the layers under the service on the submitted payloads.
func ingestJobsTraced(ctx context.Context, e *env, seed int64, tr *tracer, m map[string]metric) (int, int, error) {
	ir, err := setUpIngest(ctx, e, seed, ingestPerTaxon)
	if err != nil {
		return 0, 0, err
	}
	// The live heap before and after the jobs, with the service up, is
	// what the service keeps per finished job.
	heapBefore := liveHeap()
	first := tr.mark()
	root := tr.open("ingest-jobs", -1, 0)
	before := ir.svc.cache.Stats()
	outcomes, runErr := runClients(ctx, ir.clients, ir.plan.timed, tr, root)
	after := ir.svc.cache.Stats()
	tr.close(root)
	retained := float64(liveHeap()) - float64(heapBefore)
	var queueWait, exec time.Duration
	var respBytes, failed int
	if runErr == nil {
		for _, o := range outcomes {
			raw, err := ir.clients[0].request(ctx, http.MethodGet, "/jobs/"+o.id, nil)
			if err != nil {
				runErr = err
				break
			}
			var j jobs.Job
			if err := json.Unmarshal(raw, &j); err != nil {
				runErr = err
				break
			}
			queueWait += j.Started.Sub(j.Submitted)
			exec += j.Finished.Sub(j.Started)
			respBytes += o.respBytes
			if o.state != jobs.StateDone {
				failed++
			}
		}
	}
	hits, herr := ir.dedupHits(ctx)
	if serr := ir.stop(); runErr == nil {
		runErr = serr
	}
	if runErr == nil {
		runErr = herr
	}
	if runErr != nil {
		return len(outcomes), failed, runErr
	}
	storeBytes, err := dirBytes(ir.svc.jobsDir)
	if err != nil {
		return len(outcomes), failed, err
	}
	ledgerBytes, err := dirBytes(ir.svc.ledger)
	if err != nil {
		return len(outcomes), failed, err
	}
	if err := os.RemoveAll(ir.svc.dir); err != nil {
		return len(outcomes), failed, err
	}

	// Probes: the layers under the service, called directly on the
	// payloads the timed section submitted for the first time.
	var versions, statements, pairs, probed int
	figs := study.NewFigures()
	opts := study.DefaultOptions()
	for _, list := range ir.plan.timed {
		for _, p := range list {
			if !contains(ir.plan.fill[0], p) && !contains(ir.plan.fill[1], p) {
				v, s, n, err := probeIngest(tr, p, opts, figs)
				if err != nil {
					return len(outcomes), failed, err
				}
				versions, statements, pairs, probed = versions+v, statements+s, pairs+n, probed+1
			}
		}
	}

	tot := tr.totals(first)
	nj := float64(len(outcomes))
	mean := func(name string, unit time.Duration, n float64) float64 {
		if tot[name] == nil || n == 0 {
			return 0
		}
		return float64(tot[name].dur) / float64(unit) / n
	}
	perCall := func(name string) float64 {
		if tot[name] == nil {
			return 0
		}
		return mean(name, time.Millisecond, float64(tot[name].calls))
	}
	m["jobs.submit_ms"] = metric{perCall("jobs.submit"), "ms"}
	m["jobs.result_ms"] = metric{perCall("jobs.result"), "ms"}
	var reqBytes int
	for _, list := range ir.plan.timed {
		for _, p := range list {
			reqBytes += len(p.spec)
		}
	}
	m["jobs.request_kib_per_job"] = metric{float64(reqBytes) / 1024 / nj, "KiB"}
	m["jobs.response_kib_per_job"] = metric{float64(respBytes) / 1024 / nj, "KiB"}
	m["jobs.retained_kib_per_job"] = metric{retained / 1024 / nj, "KiB"}
	m["jobs.queue_wait_ms"] = metric{ms(queueWait) / nj, "ms"}
	m["jobs.exec_ms"] = metric{ms(exec) / nj, "ms"}
	allJobs := nj + float64(len(ir.plan.fill[0])+len(ir.plan.fill[1]))
	m["jobs.store_kib_per_job"] = metric{float64(storeBytes) / 1024 / allJobs, "KiB"}
	m["runlog.kib_per_job"] = metric{float64(ledgerBytes) / 1024 / allJobs, "KiB"}
	m["jobs.dedup_hits"] = metric{float64(hits), "count"}
	m["cache.local_hits"] = metric{float64(after.Hits - before.Hits), "count"}
	m["cache.local_puts"] = metric{float64(after.Puts - before.Puts), "count"}
	np := float64(probed)
	m["gitlog.parse_us_per_job"] = metric{mean("gitlog.parse", time.Microsecond, np), "us"}
	m["history.from_contents_ms_per_job"] = metric{mean("history.from_contents", time.Millisecond, np), "ms"}
	m["report.casestudy_us_per_job"] = metric{mean("report.casestudy", time.Microsecond, np), "us"}
	m["study.analyze_us_per_project"] = metric{mean("study.analyze", time.Microsecond, np), "us"}
	m["study.fold_us_per_project"] = metric{mean("study.fold", time.Microsecond, np), "us"}
	addProbeMetrics(m, tot, versions, statements, pairs)
	e.log("ingest-jobs traced: %d jobs, %d dedup hits, %.3fs", len(outcomes), hits, tr.duration(root).Seconds())
	return len(outcomes), failed, nil
}

// probeIngest runs an ingest job's pipeline directly, a span per layer
// call: log parse, schema history from the dated contents (and its parse,
// build and diff split), measurement, fold and the case-study render.
func probeIngest(tr *tracer, p *payload, opts study.Options, figs *study.Figures) (int, int, int, error) {
	gitLog, versions, err := p.decode()
	if err != nil {
		return 0, 0, 0, err
	}
	root := tr.open("ingest-probe", -1, 0)
	defer tr.close(root)
	var entries []gitlog.Entry
	tr.do("gitlog.parse", root, 0, func() { entries, err = gitlog.Parse(strings.NewReader(gitLog)) })
	if err != nil {
		return 0, 0, 0, err
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		return 0, 0, 0, err
	}
	var sh *history.SchemaHistory
	tr.do("history.from_contents", root, 0, func() {
		sh, err = history.SchemaHistoryFromContents("schema.sql", versions, opts.History)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	srcs := make([]string, len(versions))
	for i, v := range versions {
		srcs[i] = string(v.Content)
	}
	v, s, n := probeVersions(tr, root, 0, srcs, opts.History.Dialect)
	var res *study.ProjectResult
	tr.do("study.analyze", root, 0, func() { res, err = study.AnalyzeHistories(p.name, "schema.sql", sh, ph, opts) })
	if err != nil {
		return v, s, n, err
	}
	tr.do("study.fold", root, 0, func() { err = figs.Add(res) })
	if err != nil {
		return v, s, n, err
	}
	var buf bytes.Buffer
	tr.do("report.casestudy", root, 0, func() { err = report.CaseStudy(&buf, res) })
	return v, s, n, err
}

func contains(list []*payload, p *payload) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
