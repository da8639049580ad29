package main

// study-cold: what `coevo study` users wait for. One round generates the
// scaled 240-project corpus, analyzes it on one engine worker with no
// cache, folds it into the figures and the CSV data set, and renders
// every section to files — the corpus substrate and the DDL parse and
// diff do all their work.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coevo/internal/corpus"
	"coevo/internal/history"
	"coevo/internal/report"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
	"coevo/internal/study"
	"coevo/internal/vcs"
)

// studyPerTaxon scales the corpus as `coevo study -per-taxon 40` does:
// 40 projects of each of the six taxa.
const studyPerTaxon = 40

// studyConfig is the corpus and analysis configuration of a cold
// single-worker study: the scaled corpus, one engine worker, no cache.
func studyConfig(seed int64) (corpus.Config, study.Options) {
	cfg := corpus.DefaultConfig(seed)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = studyPerTaxon
	}
	cfg.Exec.Workers = 1
	opts := study.DefaultOptions()
	opts.Exec.Workers = 1
	return cfg, opts
}

func studyColdRound(ctx context.Context, e *env, seed int64) (roundResult, error) {
	// Set-up: the reference counts, taken from an independent
	// regeneration of the round's corpus.
	setup := startClock()
	cfg, opts := studyConfig(seed)
	ref, err := referenceCounts(ctx, cfg)
	if err != nil {
		return roundResult{}, err
	}
	var r roundResult
	r.setup, r.setupRaw = setup.elapsed()
	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return r, err
	}

	// The round's one job is the whole study, what a user of `coevo
	// study` waits for.
	sec := beginSection()
	sum, figs, err := runStudy(ctx, corpus.NewSource(cfg), opts, seed, out)
	r.timed = sec.end()
	if err != nil {
		return r, err
	}
	r.jobs = []time.Duration{r.timed.wall}
	r.units = sum.Projects
	r.attempted = len(ref)
	r.failed = len(sum.Failures)
	for _, f := range sum.Failures {
		e.log("project %s failed: %v", f.Name, f.Err)
	}

	csvBytes, err := os.ReadFile(filepath.Join(out, "dataset.csv"))
	if err != nil {
		return r, err
	}
	if err := checkStudyCSV(csvBytes, ref, len(sum.Failures), figs.Sync.Histogram()); err != nil {
		return r, err
	}
	return r, os.RemoveAll(out)
}

// runStudy is the fused streaming study as `coevo study -csv -out`
// composes it: figures and CSV rows accumulate online, then the figure
// statistics and every section are rendered to files in out.
func runStudy(ctx context.Context, src *corpus.Source, opts study.Options, seed int64, out string) (*study.StreamSummary, *study.Figures, error) {
	f, err := os.Create(filepath.Join(out, "dataset.csv"))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	figs := study.NewFigures()
	csvW := report.NewDatasetCSVWriter(f)
	sum, err := study.StreamCorpus(ctx, src, study.MultiSink(figs, csvW), opts)
	if err != nil {
		return sum, figs, err
	}
	if err := csvW.Close(); err != nil {
		return sum, figs, err
	}
	if err := f.Close(); err != nil {
		return sum, figs, err
	}
	return sum, figs, writeSections(report.FiguresArtifacts(figs, seed), out)
}

// writeSections renders every study section into its own file.
func writeSections(a *report.StudyArtifacts, out string) error {
	for _, s := range report.StudySections(a) {
		if err := writeFile(filepath.Join(out, s.Name), s.Write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceCounts regenerates the corpus and counts, per project and
// straight from the vcs commits, the non-merge commits, their file
// changes and those that touch the DDL file — without the history or
// gitlog layers the study's own counts come from.
func referenceCounts(ctx context.Context, cfg corpus.Config) (map[string]projectCounts, error) {
	ref := map[string]projectCounts{}
	_, err := corpus.EachContext(ctx, cfg, func(p *corpus.Project) error {
		var c projectCounts
		for _, commit := range p.Repo.Commits() {
			if commit.IsMerge() {
				continue
			}
			changes, err := p.Repo.Changes(commit.Hash)
			if err != nil {
				return err
			}
			c.projectCommits++
			c.fileUpdates += len(changes)
			for _, ch := range changes {
				if ch.Path == p.DDLPath || ch.OldPath == p.DDLPath {
					c.schemaCommits++
					break
				}
			}
		}
		ref[p.Repo.Name()] = c
		return nil
	})
	return ref, err
}

// studyColdTraced re-composes one cold study serially from the layers'
// public functions, one span per call, then runs the same study untraced
// to measure the tracing overhead.
func studyColdTraced(ctx context.Context, e *env, seed int64, tr *tracer, m map[string]metric) (int, int, error) {
	out := filepath.Join(e.dir, "traced")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, 0, err
	}
	cfg, opts := studyConfig(seed)
	src := corpus.NewSource(cfg)
	f, err := os.Create(filepath.Join(out, "dataset.csv"))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	figs := study.NewFigures()
	csvW := report.NewDatasetCSVWriter(f)

	var projects, failed, versions, statements, pairs int
	first := tr.mark()
	root := tr.open("study-cold", -1, 0)
	var runErr error
	for runErr == nil {
		var p *corpus.Project
		tr.do("corpus.generate", root, 0, func() { p, runErr = src.Next(ctx) })
		if p == nil || runErr != nil {
			break
		}
		projects++
		var fvs []vcs.FileVersion
		tr.do("vcs.file_versions", root, 0, func() { fvs = p.Repo.FileVersions(p.DDLPath) })
		var ph *history.ProjectHistory
		var sh *history.SchemaHistory
		var err error
		tr.do("history.project", root, 0, func() { ph, err = history.ExtractProjectHistory(p.Repo) })
		if err == nil {
			tr.do("history.schema", root, 0, func() {
				sh, err = history.ExtractSchemaHistoryFromVersions(p.DDLPath, fvs, opts.History)
			})
		}
		if err != nil {
			failed++
			continue
		}
		v, s, n := probeVersions(tr, root, 0, contents(fvs), opts.History.Dialect)
		versions, statements, pairs = versions+v, statements+s, pairs+n
		var res *study.ProjectResult
		tr.do("study.analyze", root, 0, func() {
			res, err = study.AnalyzeHistories(p.Repo.Name(), p.DDLPath, sh, ph, opts)
		})
		if err != nil {
			failed++
			continue
		}
		intended := p.Taxon
		res.IntendedTaxon = &intended
		tr.do("study.fold", root, 0, func() { err = figs.Add(res) })
		if err == nil {
			tr.do("report.csv", root, 0, func() { err = csvW.Add(res) })
		}
		if err != nil {
			return projects, failed, err
		}
	}
	if runErr != nil {
		return projects, failed, runErr
	}
	if err := csvW.Close(); err != nil {
		return projects, failed, err
	}
	a := report.FiguresArtifacts(figs, seed)
	var stats *study.StatsReport
	var statsErr error
	tr.do("study.stats", root, 0, func() { stats, statsErr = a.Stats() })
	a.Stats = func() (*study.StatsReport, error) { return stats, statsErr }
	var renderErr error
	tr.do("report.render", root, 0, func() { renderErr = writeSections(a, out) })
	tr.close(root)
	if renderErr != nil {
		return projects, failed, renderErr
	}

	// The same study untraced, for the overhead; its probe-free wall is
	// what the traced pass is compared with.
	untracedDir := filepath.Join(e.dir, "untraced")
	if err := os.MkdirAll(untracedDir, 0o755); err != nil {
		return projects, failed, err
	}
	t0 := time.Now()
	if _, _, err := runStudy(ctx, corpus.NewSource(cfg), opts, seed, untracedDir); err != nil {
		return projects, failed, err
	}
	untraced := time.Since(t0)

	genAllocs, schemaAllocs, err := countAllocs(ctx, cfg, opts)
	if err != nil {
		return projects, failed, err
	}

	tot := tr.totals(first)
	wall := tr.duration(root)
	covered := tr.childTime(root)
	probes := tot["sqlddl.parse"].dur + tot["schema.build"].dur + tot["schemadiff.compare"].dur
	np := float64(projects)
	perProject := func(name string, unit time.Duration) float64 {
		return float64(tot[name].dur) / float64(unit) / np
	}
	m["corpus.generate_ms_per_project"] = metric{perProject("corpus.generate", time.Millisecond), "ms"}
	m["corpus.generate_allocs_per_project"] = metric{genAllocs, "count"}
	m["vcs.file_versions_us_per_project"] = metric{perProject("vcs.file_versions", time.Microsecond), "us"}
	m["history.project_us_per_project"] = metric{perProject("history.project", time.Microsecond), "us"}
	m["history.schema_ms_per_project"] = metric{perProject("history.schema", time.Millisecond), "ms"}
	m["history.schema_allocs_per_project"] = metric{schemaAllocs, "count"}
	m["study.analyze_us_per_project"] = metric{perProject("study.analyze", time.Microsecond), "us"}
	m["study.fold_us_per_project"] = metric{perProject("study.fold", time.Microsecond), "us"}
	m["report.csv_us_per_project"] = metric{perProject("report.csv", time.Microsecond), "us"}
	m["study.stats_ms"] = metric{ms(tot["study.stats"].dur), "ms"}
	m["report.render_ms"] = metric{ms(tot["report.render"].dur), "ms"}
	addProbeMetrics(m, tot, versions, statements, pairs)
	m["trace.unattributed_ms"] = metric{ms(wall - covered), "ms"}
	m["trace.coverage_pct"] = metric{100 * float64(covered) / float64(wall), "%"}
	m["trace.overhead_pct"] = metric{100 * (float64(wall-probes) - float64(untraced)) / float64(untraced), "%"}
	e.log("study-cold traced: %d projects, wall %.3fs (probes %.3fs), untraced %.3fs", projects, wall.Seconds(), probes.Seconds(), untraced.Seconds())
	return projects, failed, nil
}

// countAllocs generates the corpus once more and counts, per project, the
// heap allocations of generation and of schema-history extraction. It
// runs apart from the timed spans: reading the counter stops the world,
// which would inflate the spans around it.
func countAllocs(ctx context.Context, cfg corpus.Config, opts study.Options) (gen, schemaHist float64, err error) {
	src := corpus.NewSource(cfg)
	var m0, m1, m2, m3 runtime.MemStats
	var genTotal, schemaTotal uint64
	n := 0
	for {
		runtime.ReadMemStats(&m0)
		p, err := src.Next(ctx)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		if p == nil {
			break
		}
		fvs := p.Repo.FileVersions(p.DDLPath)
		runtime.ReadMemStats(&m2)
		_, err = history.ExtractSchemaHistoryFromVersions(p.DDLPath, fvs, opts.History)
		runtime.ReadMemStats(&m3)
		genTotal += m1.Mallocs - m0.Mallocs
		schemaTotal += m3.Mallocs - m2.Mallocs
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return float64(genTotal) / float64(n), float64(schemaTotal) / float64(n), nil
}

// contents lists the DDL text of every version that was not a deletion.
func contents(fvs []vcs.FileVersion) []string {
	out := make([]string, 0, len(fvs))
	for _, fv := range fvs {
		if !fv.Deleted {
			out = append(out, string(fv.Content))
		}
	}
	return out
}

// probeVersions parses, builds and diffs each version once more, a span
// per call, to split the schema-history time into its layers. It returns
// the versions, statements and diff pairs it saw.
func probeVersions(tr *tracer, parent, lane int, versions []string, d sqlddl.Dialect) (int, int, int) {
	prev := schema.New()
	statements := 0
	for _, src := range versions {
		var script *sqlddl.Script
		var release func()
		tr.do("sqlddl.parse", parent, lane, func() { script, _, release = sqlddl.ParseWithDiagnosticsPooled(src, d) })
		var s *schema.Schema
		tr.do("schema.build", parent, lane, func() { s, _ = schema.BuildDialect(script) })
		statements += script.Stats.Attempted
		release()
		tr.do("schemadiff.compare", parent, lane, func() { schemadiff.Compare(prev, s) })
		prev = s
	}
	return len(versions), statements, len(versions)
}

// addProbeMetrics reports the parse, build and diff probe times and the
// work counts behind them.
func addProbeMetrics(m map[string]metric, tot map[string]*layerTotals, versions, statements, pairs int) {
	per := func(name string, n int) float64 {
		if n == 0 || tot[name] == nil {
			return 0
		}
		return float64(tot[name].dur) / float64(time.Microsecond) / float64(n)
	}
	m["sqlddl.parse_us_per_version"] = metric{per("sqlddl.parse", versions), "us"}
	m["schema.build_us_per_version"] = metric{per("schema.build", versions), "us"}
	m["schemadiff.compare_us_per_pair"] = metric{per("schemadiff.compare", pairs), "us"}
	m["sqlddl.versions"] = metric{float64(versions), "count"}
	m["sqlddl.statements"] = metric{float64(statements), "count"}
	m["schemadiff.pairs"] = metric{float64(pairs), "count"}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
