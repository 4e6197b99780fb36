// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through one of the two in-process engines
// (internal/dataplane, internal/screp), measures the MP5 daemon
// (internal/server) in its traced run's layer ladder, checks every run
// against the single-pipeline reference, and prints the metrics BENCHMARK.json
// names as one JSON object on the last line of standard output.
//
// Build and run it from the repository root through the wrapper, which keeps
// the build cache inside the checkout:
//
//	bash perfbench/run.sh --workload sharded-scatter --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics (see README.md in this directory for the
// layer table) and the run writes its spans as JSONL under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mp5/internal/workload"
)

// Fixed shape of every run.
const (
	// workers is the engines' worker count: two real CPUs, two workers.
	workers = 2
	// tracePkts is the length of the generated trace; every round of every
	// phase offers the whole trace to a freshly built system.
	tracePkts = 1 << 16
	// chunk is the saturated sender's batch: one SubmitBatch call or one
	// socket write per chunk. It equals the engines' default admission
	// window of 256 in-flight packets, which stays the only limit.
	chunk = 256
	// tick is the open-loop pacer's period: each tick's due packets leave
	// as one burst.
	tick = time.Millisecond
	// setupPerRound is how many times an untraced run builds the system
	// from Domino source after each timed round, to time setup_s.
	setupPerRound = 16
	// setupReps is how many setup reps the traced run makes in a row to
	// time the compiler.
	setupReps = 41
	// sampleEvery is the span sampling period of the traced run.
	sampleEvery = 64
	// heldOutSeed is kept out of tuning: a claimed gain must also hold on it.
	heldOutSeed = 9001
)

// System kinds a workload or a ladder leg runs on.
const (
	sysWire    = "wire"    // server.New over the sharded engine, driven over TCP
	sysSharded = "sharded" // dataplane.Engine in-process
	sysScrep   = "screp"   // screp.Engine in-process
)

type workloadDef struct {
	name     string
	why      string
	system   string
	stateful int
	regSize  int
	pattern  workload.Pattern
	// pacedPPS is the open-loop rate of the paced rounds: about 40% of the
	// saturated rate the untouched code reached, low enough that host
	// slowdowns do not push it into saturation, and kept constant so later
	// changes are compared at the same offered load.
	pacedPPS int
}

// workloads lists the workloads BENCHMARK.json names. The daemon has no
// workload of its own: on two shared CPUs its paced latency and CPU per
// packet moved by up to a quarter between runs of the same code. Every
// traced run measures it in the ladder instead.
var workloads = []workloadDef{
	{
		name:     "sharded-scatter",
		why:      "in-process sharded engine, 8 slots per packet in tiny hot arrays: resolve, tickets, parks and crossbar dominate",
		system:   sysSharded,
		stateful: 8, regSize: 8, pattern: workload.Skewed,
		pacedPPS: 100_000,
	},
	{
		name:     "screp-writeheavy",
		why:      "in-process replicated engine, 4 writes per packet over 512-slot arrays: delta replay, mailboxes and the serialized span dominate",
		system:   sysScrep,
		stateful: 4, regSize: 512, pattern: workload.Uniform,
		pacedPPS: 140_000,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "trace seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for the span file")
		commit  = flag.String("commit", "", "source commit, for provenance")
		root    = flag.String("root", ".", "repository root, for provenance")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {sharded-scatter|screp-writeheavy} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	b, err := newBench(wl, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res = b.runTraced(budget)
	} else {
		res = b.runUntraced(budget)
	}
	b.prov["nproc"] = runtime.NumCPU()
	b.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.prov["go_version"] = runtime.Version()
	b.prov["commit"] = *commit
	b.prov["source_sha256"] = sourceHash(*root)
	b.prov["workload"] = wl.name
	b.prov["seed"] = *seed
	b.prov["held_out_seed"] = heldOutSeed
	b.prov["workers"] = workers
	b.prov["trace_packets"] = tracePkts
	if b.spans != nil {
		path, err := b.spans.write(*outDir, wl.name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(2)
		}
		b.prov["span_file"] = path
		b.prov["spans"] = b.spans.count()
	}
	prov, _ := json.Marshal(map[string]any{"provenance": b.prov})
	fmt.Println(string(prov))
	for _, v := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", v)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
