// Command mp5trace validates and summarizes a wire-span JSONL stream (the
// -trace-jsonl output of mp5d): every span's per-stage durations must sum
// exactly to its recorded total, segments must be non-negative, and the
// lifecycle must be complete. It prints per-stage aggregates and exits
// nonzero on any violation — the machine half of the tracing smoke test.
//
// Usage:
//
//	mp5trace spans.jsonl
//	mp5d ... -trace-jsonl /dev/stdout | mp5trace -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mp5/internal/dataplane"
)

func main() {
	minSpans := flag.Int("min-spans", 1, "fail unless at least this many spans are present")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mp5trace [flags] SPANS.jsonl  (- for stdin)")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	var (
		spans   int
		byStage = map[string][]int64{}
		totals  []int64
		bad     int
		sc      = bufio.NewScanner(in)
	)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var sp dataplane.Span
		if err := json.Unmarshal(raw, &sp); err != nil {
			fmt.Fprintf(os.Stderr, "mp5trace: line %d: %v\n", line, err)
			bad++
			continue
		}
		if sp.Type != "wire_span" {
			continue // foreign record in a mixed stream
		}
		spans++
		var sum int64
		for _, r := range sp.Stages {
			if r.Ns < 0 {
				fmt.Fprintf(os.Stderr, "mp5trace: pkt %d: negative %s segment %dns\n", sp.ID, r.Stage, r.Ns)
				bad++
			}
			sum += r.Ns
			byStage[r.Stage] = append(byStage[r.Stage], r.Ns)
		}
		if sum != sp.TotalNs {
			fmt.Fprintf(os.Stderr, "mp5trace: pkt %d: stage sum %dns vs total %dns (gap %dns)\n",
				sp.ID, sum, sp.TotalNs, sp.TotalNs-sum)
			bad++
		}
		totals = append(totals, sp.TotalNs)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	fmt.Printf("mp5trace: %d spans\n", spans)
	stages := make([]string, 0, len(byStage))
	for st := range byStage {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		p50, p99 := quantiles(byStage[st])
		fmt.Printf("  %-14s %8d segments  p50 %8.1fµs  p99 %8.1fµs\n",
			st, len(byStage[st]), float64(p50)/1e3, float64(p99)/1e3)
	}
	if len(totals) > 0 {
		p50, p99 := quantiles(totals)
		fmt.Printf("  %-14s %8d spans     p50 %8.1fµs  p99 %8.1fµs\n",
			"total", len(totals), float64(p50)/1e3, float64(p99)/1e3)
	}
	if spans < *minSpans {
		fmt.Fprintf(os.Stderr, "mp5trace: only %d spans (want >= %d)\n", spans, *minSpans)
		os.Exit(1)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "mp5trace: %d violations\n", bad)
		os.Exit(1)
	}
}

func quantiles(xs []int64) (p50, p99 int64) {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[len(s)*99/100]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp5trace:", err)
	os.Exit(1)
}
