package main

// Output checks. Each compares what the program produced with a
// computation made apart from it, or with a property the paper's method
// guarantees. They run outside the timed sections.

import (
	"bytes"
	"encoding/csv"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"coevo/internal/study"
)

// projectCounts are one project's activity counts taken straight from
// its vcs commits.
type projectCounts struct {
	projectCommits, fileUpdates, schemaCommits int
}

// minTaxonAgreement is the least share of projects whose measured taxon
// must equal the one the generator aimed for.
const minTaxonAgreement = 0.70

// checkStudyCSV checks the per-project data set of a study: every row's
// commit, file-update and schema-commit counts equal the reference
// counts; attainment is monotone in α and at most 1; synchronicity lies
// in [0,1]; the Figure-4 buckets hold every row; and the measured taxon
// agrees with the intended one for most projects. failures is the number
// of projects the study reported as failed, which have no row.
func checkStudyCSV(data []byte, ref map[string]projectCounts, failures int, hist *study.SyncHistogram) error {
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return checkFailed("dataset.csv: %v", err)
	}
	if len(records) == 0 {
		return checkFailed("dataset.csv: no header")
	}
	col := map[string]int{}
	for i, name := range records[0] {
		col[name] = i
	}
	for _, name := range []string{"name", "taxon", "intended_taxon", "project_commits", "file_updates", "schema_commits",
		"sync_5", "sync_10", "attain_50", "attain_75", "attain_80", "attain_100"} {
		if _, ok := col[name]; !ok {
			return checkFailed("dataset.csv: no %s column", name)
		}
	}
	rows := records[1:]
	if len(rows)+failures != len(ref) {
		return checkFailed("dataset.csv: %d rows and %d failures for %d projects", len(rows), failures, len(ref))
	}
	agree := 0
	for _, row := range rows {
		name := row[col["name"]]
		want, ok := ref[name]
		if !ok {
			return checkFailed("dataset.csv: project %s is not in the corpus", name)
		}
		for _, c := range []struct {
			column string
			want   int
		}{
			{"project_commits", want.projectCommits},
			{"file_updates", want.fileUpdates},
			{"schema_commits", want.schemaCommits},
		} {
			got, err := strconv.Atoi(row[col[c.column]])
			if err != nil || got != c.want {
				return checkFailed("dataset.csv: %s %s = %q, the commits say %d", name, c.column, row[col[c.column]], c.want)
			}
		}
		var attain [4]float64
		for i, column := range []string{"attain_50", "attain_75", "attain_80", "attain_100"} {
			if attain[i], err = strconv.ParseFloat(row[col[column]], 64); err != nil {
				return checkFailed("dataset.csv: %s %s: %v", name, column, err)
			}
		}
		if !(attain[0] <= attain[1] && attain[1] <= attain[2] && attain[2] <= attain[3] && attain[3] <= 1) {
			return checkFailed("dataset.csv: %s attainment %v is not monotone in α or exceeds 1", name, attain)
		}
		for _, column := range []string{"sync_5", "sync_10"} {
			v, err := strconv.ParseFloat(row[col[column]], 64)
			if err != nil || v < 0 || v > 1 {
				return checkFailed("dataset.csv: %s %s = %q, outside [0,1]", name, column, row[col[column]])
			}
		}
		if row[col["taxon"]] == row[col["intended_taxon"]] {
			agree++
		}
	}
	binned := 0
	for _, n := range hist.Buckets {
		binned += n
	}
	if binned != len(rows) {
		return checkFailed("figure 4 holds %d projects, the data set %d", binned, len(rows))
	}
	if len(rows) > 0 && float64(agree) < minTaxonAgreement*float64(len(rows)) {
		return checkFailed("measured taxon equals the intended one for %d of %d projects, below %.0f%%", agree, len(rows), 100*minTaxonAgreement)
	}
	return nil
}

// logCounts counts the commit headers and name-status lines of a
// `git log --name-status` text.
func logCounts(gitLog string) (commits, fileUpdates int) {
	for _, line := range strings.Split(gitLog, "\n") {
		switch {
		case strings.HasPrefix(line, "commit "):
			commits++
		case len(line) > 1 && strings.ContainsRune("AMDRCT", rune(line[0])) && strings.Contains(line, "\t"):
			fileUpdates++
		}
	}
	return commits, fileUpdates
}

var (
	caseCommits  = regexp.MustCompile(`(?m)^commits +(\d+) total`)
	caseActivity = regexp.MustCompile(`(?m)^activity +(\d+) file updates`)
)

// checkCaseStudy checks an ingest job's case study against the commits
// and file updates counted in the log it was submitted with, and its
// parse accounting against the parser's invariant attempted = parsed +
// recovered + dropped.
func checkCaseStudy(commits, updates int, caseStudy string, health *study.ParseHealthSummary) error {
	for _, c := range []struct {
		what string
		re   *regexp.Regexp
		want int
	}{{"commits", caseCommits, commits}, {"file updates", caseActivity, updates}} {
		m := c.re.FindStringSubmatch(caseStudy)
		if m == nil {
			return checkFailed("case study reports no %s", c.what)
		}
		if got, _ := strconv.Atoi(m[1]); got != c.want {
			return checkFailed("case study reports %d %s, the submitted log has %d", got, c.what, c.want)
		}
	}
	if health == nil {
		return checkFailed("result carries no parse health")
	}
	s := health.Total.Stats
	if s.Attempted != s.Parsed+s.Recovered+s.Dropped {
		return checkFailed("parse counts: attempted %d ≠ parsed %d + recovered %d + dropped %d", s.Attempted, s.Parsed, s.Recovered, s.Dropped)
	}
	return nil
}

// checkDedup checks that exactly the repeated submissions were served
// from the result cache.
func checkDedup(flagged, repeats int) error {
	if flagged != repeats {
		return checkFailed("%d jobs served from the result cache, %d repeats submitted", flagged, repeats)
	}
	return nil
}

// checkSameOutputs checks two sets of rendered outputs, keyed by file
// name, are byte-identical.
func checkSameOutputs(what string, got, want map[string][]byte) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		return checkFailed("%s: %d outputs, the reference has %d", what, len(got), len(want))
	}
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			return checkFailed("%s: no %s", what, name)
		}
		if !bytes.Equal(g, want[name]) {
			return checkFailed("%s: %s differs from the reference", what, name)
		}
	}
	return nil
}
