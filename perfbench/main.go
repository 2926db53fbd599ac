// Command perfbench is the repository benchmark: it replays a seeded city
// against the durable server that `mostserver -wal` deploys, running in a
// child process, and reports end-to-end metrics (or, with -trace 1, the
// per-layer table).  See README.md for the workloads and metrics.
//
//	go run . --workload alerts --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childEnv marks a process started as the server child.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the city, its catalog and the replay derive from it")
	seconds := fs.Float64("seconds", 12, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for data directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := shapes[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames, ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: *wl, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds * float64(time.Second)),
		out:    filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())),
	}
	res, err := runWorkload(cfg, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints each metric by name with its unit and sample count,
// then the result object as the last line.
func printResult(f *os.File, res *result) error {
	printAll := func(ms map[string]metric, suffix string) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			line := fmt.Sprintf("%-40s %14.6g %-10s", name, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf(" n=%d", m.N)
			}
			if m.Note != "" {
				line += " " + m.Note
			}
			fmt.Fprintln(f, line+suffix)
		}
	}
	printAll(res.Metrics, "")
	printAll(res.Info, " [reported, not a benchmark metric]")
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(data))
	return err
}
