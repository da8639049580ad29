// Command perfbench is the repository benchmark: it runs one workload of
// the coevo pipeline in this process, checks the program's outputs, and
// prints as its last line one JSON object with the operations attempted
// and failed and every metric by name and unit.
//
//	perfbench -workload study-cold|ingest-jobs|shard-warm -seed N -seconds S -trace 0|1
//
// With -trace 0 the run repeats whole rounds of the workload for S
// seconds and reports the end-to-end metrics. With -trace 1 it re-composes
// every workload from the layers' public functions, times each call as a
// span, and reports the per-layer metrics; the spans are written to the
// work directory. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coevo/internal/runlog"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload shares: where it may write and where its
// progress notes go.
type env struct {
	dir string
	log func(format string, args ...any)
}

// workload is one benchmark workload: round runs one untraced round
// (set-up, timed section, output checks); traced runs the traced
// composition once, adds its per-layer metrics to m and returns the
// operations it attempted and saw fail.
type workload struct {
	name   string
	round  func(ctx context.Context, e *env, seed int64) (roundResult, error)
	traced func(ctx context.Context, e *env, seed int64, tr *tracer, m map[string]metric) (attempted, failed int, err error)
}

var workloads = []workload{
	{"study-cold", studyColdRound, studyColdTraced},
	{"ingest-jobs", ingestJobsRound, ingestJobsTraced},
	{"shard-warm", shardWarmRound, shardWarmTraced},
}

// checkError marks a program output that failed a check, as opposed to
// a benchmark that could not run.
type checkError struct{ err error }

func (c *checkError) Error() string { return "check failed: " + c.err.Error() }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

func main() {
	name := flag.String("workload", "", "workload to run: study-cold, ingest-jobs or shard-warm")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the files the workloads write")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload study-cold|ingest-jobs|shard-warm, -seconds ≥ 1 and -trace 0|1\n")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{dir: dir, log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}}
	m := runlog.NewManifest("perfbench", time.Now())
	e.log("%s seed=%d seconds=%d trace=%d go=%s nproc=%d GOMAXPROCS=%d GOGC=%q cpu=%q",
		w.name, *seed, *seconds, *trace, m.GoVersion, m.NumCPU, m.GOMAXPROCS, os.Getenv("GOGC"), m.CPUModel)

	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, e, w, *seed, d)
	} else {
		res, err = runTimed(ctx, e, w, *seed, d)
	}
	var ce *checkError
	if errors.As(err, &ce) {
		e.log("%v", err)
		res.Correct = false
		emit(res)
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	emit(res)
}

// runTimed repeats untraced rounds and reports the end-to-end metrics.
func runTimed(ctx context.Context, e *env, w *workload, seed int64, d time.Duration) (*result, error) {
	rounds, err := runRounds(ctx, d, seed, func(ctx context.Context, s int64) (roundResult, error) {
		return w.round(ctx, e, s)
	})
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if err != nil {
		return res, err
	}
	for i, r := range rounds {
		var jobs []float64
		for _, j := range r.jobs {
			jobs = append(jobs, ms(j))
		}
		e.log("round %d: set-up %.3fs wall (%.1f%% stolen) %.3fs cpu, timed %.3fs wall (%.1f%% stolen) %.3fs cpu, job p50 %.3f ms, peak heap %.2f MiB",
			i, r.setupRaw.wall.Seconds(), 100*r.setupRaw.steal, r.setupRaw.cpu.Seconds(),
			r.timed.wall.Seconds(), 100*r.timed.steal, r.timed.cpu.Seconds(), percentile(jobs, 50), float64(r.timed.peakHeap)/(1<<20))
	}
	var p90 float64
	res.Metrics, p90 = endToEnd(rounds)
	e.log("%d rounds, %d jobs, job p90 %.3f ms", len(rounds), countJobs(rounds), p90)
	return res, nil
}

func countJobs(rounds []roundResult) int {
	n := 0
	for _, r := range rounds {
		n += len(r.jobs)
	}
	return n
}

// runTraced runs the traced compositions of all workloads, the named one
// first, until d has passed (each at least once). A per-layer metric the
// named workload's composition produces comes from it; the others come
// from the compositions that produce them.
func runTraced(ctx context.Context, e *env, w *workload, seed int64, d time.Duration) (*result, error) {
	order := []*workload{w}
	for i := range workloads {
		if workloads[i].name != w.name {
			order = append(order, &workloads[i])
		}
	}
	tr := newTracer()
	start := time.Now()
	own := map[string]metric{}
	others := map[string]metric{}
	passes, attempted, failed := 0, 0, 0
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i, wl := range order {
			m := others
			if i == 0 {
				m = own
			}
			// Per-pass values accumulate in m and are averaged below.
			pm := map[string]metric{}
			a, f, err := wl.traced(ctx, e, roundSeed(seed, pass), tr, pm)
			attempted, failed = attempted+a, failed+f
			if err != nil {
				return &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}, fmt.Errorf("%s traced: %w", wl.name, err)
			}
			for k, v := range pm {
				if i > 0 {
					if _, mine := own[k]; mine {
						continue
					}
				}
				acc := m[k]
				acc.Value += v.Value
				acc.Unit = v.Unit
				m[k] = acc
			}
		}
		passes++
	}
	out := map[string]metric{}
	for k, v := range others {
		if _, mine := own[k]; !mine {
			out[k] = metric{v.Value / float64(passes), v.Unit}
		}
	}
	for k, v := range own {
		out[k] = metric{v.Value / float64(passes), v.Unit}
	}
	path := filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e.log("  %-40s %12.4f %s", k, out[k].Value, out[k].Unit)
	}
	e.log("%d traced passes; spans written to %s", passes, path)
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

func emit(res *result) {
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
