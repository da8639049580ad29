package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTicks is the machine's CPU time in clock ticks from the first line
// of /proc/stat: busy (user, nice, system, irq, softirq and steal) and
// steal, the part of it the hypervisor gave to other guests while a
// virtual CPU had work to run.
type cpuTicks struct{ busy, steal uint64 }

// readTicks reads /proc/stat; where it cannot, it returns zero ticks and
// every steal share reads 0.
func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(string(f[i+1]), 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealShare is the share of the CPU time the machine's virtual CPUs
// wanted between a and b that the hypervisor ran other guests instead.
// Idle virtual CPUs accrue no steal, so the share is taken of busy time:
// a thread that ran throughout lost about that share of its wall time.
func stealShare(a, b cpuTicks) float64 {
	if b.busy <= a.busy || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// unstolen is wall time d less the share of it stolen by the hypervisor.
func unstolen(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * (1 - share))
}

// clock times a stretch of a round, such as its set-up, in unstolen wall
// time.
type clock struct {
	start time.Time
	cpu   time.Duration
	ticks cpuTicks
}

func startClock() clock {
	return clock{ticks: readTicks(), cpu: processCPU(), start: time.Now()}
}

// elapsed returns the unstolen wall time since the clock started, with
// the raw wall time, the stolen share and the process CPU time behind it
// for the run log.
func (c clock) elapsed() (time.Duration, stretch) {
	d := time.Since(c.start)
	st := stretch{wall: d, cpu: processCPU() - c.cpu, steal: stealShare(c.ticks, readTicks())}
	return unstolen(d, st.steal), st
}

// stretch is the raw measurement behind an unstolen time.
type stretch struct {
	wall, cpu time.Duration
	steal     float64
}

// section brackets one timed section of a round: wall time, process CPU
// (user+sys, every goroutine of the process, clients and servers alike),
// the hypervisor's steal, heap allocations and the live-heap peak.
type section struct {
	start time.Time
	cpu   time.Duration
	ticks cpuTicks
	ms    runtime.MemStats
	heap  *heapWatch
}

// sectionStats is what one timed section measured. wall is the raw wall
// time and steal the share of it the hypervisor took (see stealShare).
type sectionStats struct {
	wall, cpu          time.Duration
	steal              float64
	allocs, allocBytes uint64
	peakHeap           uint64
}

// beginSection collects the previous phase's garbage, so the section's
// heap peak and allocation counts are its own, and starts the clocks.
func beginSection() *section {
	runtime.GC()
	s := &section{heap: watchHeap()}
	runtime.ReadMemStats(&s.ms)
	s.cpu = processCPU()
	s.ticks = readTicks()
	s.start = time.Now()
	return s
}

func (s *section) end() sectionStats {
	wall := time.Since(s.start)
	cpu := processCPU() - s.cpu
	steal := stealShare(s.ticks, readTicks())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sectionStats{
		wall: wall, cpu: cpu, steal: steal,
		allocs:     ms.Mallocs - s.ms.Mallocs,
		allocBytes: ms.TotalAlloc - s.ms.TotalAlloc,
		peakHeap:   s.heap.stop(),
	}
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch records the largest /gc/heap/live:bytes reading seen while
// it runs. The value only changes when a GC cycle ends, so the watch
// samples once per cycle: a finalizer on an unreachable sentinel runs
// after every collection and re-arms itself.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// gcSentinel holds pointers so it is never placed in a tiny-alloc block,
// whose finalizers may not run.
type gcSentinel struct{ _ [2]*int }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.sample()
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if h.done.Load() {
			return
		}
		h.sample()
		h.arm()
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (h *heapWatch) stop() uint64 {
	h.sample()
	h.done.Store(true)
	return h.peak.Load()
}

// roundResult is one round of a workload: its set-up time (unstolen, see
// clock), its timed section and the operations it attempted.
type roundResult struct {
	setup    time.Duration
	setupRaw stretch
	timed    sectionStats
	// units is the work the timed section completed: projects, or jobs
	// of one project each.
	units int
	// attempted and failed count the round's operations (projects or
	// jobs); jobs holds the latency of every timed job.
	attempted, failed int
	jobs              []time.Duration
}

// minRounds keeps set-up and per-round medians meaningful on short runs.
const minRounds = 3

// runRounds repeats whole rounds until the run has lasted d (and at
// least minRounds rounds), so every run attempts the same operations per
// round whatever its length. Round r derives its inputs from seed and r
// alone. Before each round the file-system work of earlier rounds (and of
// an earlier run's clean-up) is flushed with sync(2), so a round's set-up
// — shard-warm's writes some 1,400 cache files — does not also pay for
// writing back and deleting what an earlier round left.
func runRounds(ctx context.Context, d time.Duration, seed int64, round func(ctx context.Context, seed int64) (roundResult, error)) ([]roundResult, error) {
	start := time.Now()
	var out []roundResult
	for r := 0; len(out) < minRounds || time.Since(start) < d; r++ {
		syscall.Sync()
		res, err := round(ctx, roundSeed(seed, r))
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// roundSeed derives round r's corpus seed from the workload seed. Corpus
// generation seeds project i from Seed + i·7919, so neighbouring corpus
// seeds would share shifted projects; a splitmix64 step decorrelates
// them. Rotating the corpus every round makes a run's median cover many
// corpora, so one seed's unusually large or small corpus moves it little.
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// endToEnd folds a run's rounds into the end-to-end metrics every
// workload reports. Every time is unstolen: on a shared host the
// hypervisor runs other guests on this machine's virtual CPUs, at times
// for more than half of their busy time and for minutes on end, and a
// round's raw wall time, and each job latency in it, is scaled by the
// share of the round's busy CPU time that was not stolen (see
// stealShare). Process CPU time largely excludes steal already. The timed
// section's times are then the lower quartile over rounds, the rounds
// least disturbed in other ways (the processor itself runs slower while
// other guests share it). Every round does about the same work, so the
// quartile compares like with like. Job latency is the median over the
// run's jobs, each a whole request a user waits for. Set-up time is the
// median over rounds. The heap peak is the mean over rounds: a round's
// peak is the live heap at whichever collection caught its largest
// project in flight, and varies too much from round to round for a
// median of a few rounds. Counts are totals over the run.
//
// The 90th latency percentile is logged but not reported: study-cold
// has one job a round, too few for a tail.
func endToEnd(rounds []roundResult) (map[string]metric, float64) {
	var setups, walls, cpus, peaks, units, jobs []float64
	var total int
	var allocs, allocBytes uint64
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, unstolen(r.timed.wall, r.timed.steal).Seconds())
		cpus = append(cpus, r.timed.cpu.Seconds())
		peaks = append(peaks, float64(r.timed.peakHeap)/(1<<20))
		units = append(units, float64(r.units))
		for _, j := range r.jobs {
			jobs = append(jobs, ms(unstolen(j, r.timed.steal)))
		}
		total += r.units
		allocs += r.timed.allocs
		allocBytes += r.timed.allocBytes
	}
	wall := percentile(walls, 25)
	return map[string]metric{
		"setup_s":               {median(setups), "s"},
		"wall_s":                {wall, "s"},
		"cpu_s":                 {percentile(cpus, 25), "s"},
		"projects_per_s":        {median(units) / wall, "1/s"},
		"job_p50_ms":            {median(jobs), "ms"},
		"peak_heap_mib":         {mean(peaks), "MiB"},
		"allocs_per_project":    {float64(allocs) / float64(total), "count"},
		"alloc_mib_per_project": {float64(allocBytes) / (1 << 20) / float64(total), "MiB"},
	}, percentile(jobs, 90)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile (NaN for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
