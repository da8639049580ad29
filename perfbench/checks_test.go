package main

// Each output check is fed the program's real output, which must pass,
// and then a copy corrupted the way a fault would corrupt it, which must
// fail with a check error.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"coevo/internal/corpus"
	"coevo/internal/jobs"
	"coevo/internal/report"
	"coevo/internal/study"
)

func testEnv(t *testing.T) *env {
	return &env{dir: t.TempDir(), log: t.Logf}
}

func wantCheckError(t *testing.T, err error, what string) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: want a check failure, got %v", what, err)
	}
	t.Logf("%s: %v", what, err)
}

func smallStudyConfig(perTaxon int) (corpus.Config, study.Options) {
	cfg, opts := studyConfig(7)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = perTaxon
	}
	return cfg, opts
}

func TestStudyCSVCheckRejectsCountOffByOne(t *testing.T) {
	ctx := context.Background()
	cfg, opts := smallStudyConfig(6)
	ref, err := referenceCounts(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	sum, figs, err := runStudy(ctx, corpus.NewSource(cfg), opts, cfg.Seed, out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "dataset.csv"))
	if err != nil {
		t.Fatal(err)
	}
	hist := figs.Sync.Histogram()
	if err := checkStudyCSV(data, ref, len(sum.Failures), hist); err != nil {
		t.Fatalf("the study's own output fails its check: %v", err)
	}

	// project_commits is the seventh column; add one to the first row's.
	lines := strings.SplitN(string(data), "\n", 3)
	fields := strings.Split(lines[1], ",")
	var n int
	fmt.Sscan(fields[6], &n)
	fields[6] = fmt.Sprint(n + 1)
	lines[1] = strings.Join(fields, ",")
	wantCheckError(t, checkStudyCSV([]byte(strings.Join(lines, "\n")), ref, len(sum.Failures), hist), "project_commits off by one")

	// A Figure-4 bucket that lost a project.
	short := *hist
	short.Buckets = append([]int(nil), hist.Buckets...)
	for i := range short.Buckets {
		if short.Buckets[i] > 0 {
			short.Buckets[i]--
			break
		}
	}
	wantCheckError(t, checkStudyCSV(data, ref, len(sum.Failures), &short), "figure 4 short by one")
}

func TestShardCheckRejectsMergeMissingAProject(t *testing.T) {
	ctx := context.Background()
	const perTaxon = 3
	want, err := batchReference(ctx, 11, perTaxon)
	if err != nil {
		t.Fatal(err)
	}
	delete(want, "dataset.csv")

	// One partition per project, merged as a coordinator merges shard
	// partials: all of them reproduce the reference, all but one must not.
	cfg, opts := smallStudyConfig(perTaxon)
	cfg.Seed = 11
	src := corpus.NewSource(cfg)
	merge := func(skip int) map[string][]byte {
		t.Helper()
		figs := study.NewFigures()
		for k := 0; k < src.Len(); k++ {
			if k == skip {
				continue
			}
			part, err := src.Partition(k, src.Len())
			if err != nil {
				t.Fatal(err)
			}
			pf := study.NewFigures()
			if _, err := study.StreamCorpus(ctx, part, pf, opts); err != nil {
				t.Fatal(err)
			}
			decoded, err := study.DecodePartialFigures(pf.EncodePartial())
			if err != nil {
				t.Fatal(err)
			}
			if err := figs.Merge(decoded); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string][]byte{}
		for _, s := range report.StudySections(report.FiguresArtifacts(figs, cfg.Seed)) {
			var b bytes.Buffer
			if err := s.Write(&b); err != nil {
				t.Fatal(err)
			}
			out[s.Name] = b.Bytes()
		}
		return out
	}
	if err := checkSameOutputs("merged", merge(-1), want); err != nil {
		t.Fatalf("a full merge fails its check: %v", err)
	}
	wantCheckError(t, checkSameOutputs("merged", merge(src.Len()/2), want), "merge missing one project")
}

func TestIngestChecksRejectShortDedupAndWrongCounts(t *testing.T) {
	ctx := context.Background()
	ir, err := setUpIngest(ctx, testEnv(t), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, runErr := runClients(ctx, ir.clients, ir.plan.timed, nil, -1)
	hits, err := ir.dedupHits(ctx)
	if serr := ir.stop(); runErr == nil {
		runErr = serr
	}
	if runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	if ir.plan.repeats == 0 || ir.filled != ir.plan.repeats {
		t.Fatalf("%d repeats planned, %d filled", ir.plan.repeats, ir.filled)
	}
	if err := checkDedup(hits, ir.filled); err != nil {
		t.Fatalf("the service's own dedup count fails its check: %v", err)
	}
	wantCheckError(t, checkDedup(hits-1, ir.filled), "dedup count short by one")

	o := outcomes[0]
	if o.state != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", o.id, o.state, o.errMsg)
	}
	cs := o.result.Sections["casestudy.txt"]
	if err := checkCaseStudy(o.p.commits, o.p.fileUpdates, cs, o.result.ParseHealth); err != nil {
		t.Fatalf("the job's own case study fails its check: %v", err)
	}
	bumped := regexp.MustCompile(`(?m)^(commits +)(\d+)`).ReplaceAllStringFunc(cs, func(s string) string {
		var n int
		fmt.Sscan(strings.TrimSpace(strings.TrimPrefix(s, "commits")), &n)
		return fmt.Sprintf("commits   %d", n+1)
	})
	wantCheckError(t, checkCaseStudy(o.p.commits, o.p.fileUpdates, bumped, o.result.ParseHealth), "case study commits off by one")
	health := *o.result.ParseHealth
	health.Total.Stats.Parsed++
	wantCheckError(t, checkCaseStudy(o.p.commits, o.p.fileUpdates, cs, &health), "parse counts that do not add up")
}
