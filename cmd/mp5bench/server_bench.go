package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/server"
	"mp5/internal/workload"
)

// srvScenario is one row of BENCH_server.json: the daemon driven over
// loopback TCP by the closed-loop client at one worker count. Latency is
// the client-observed send→egress-ack round trip, so it prices the full
// network path (codec, ingress queue, admission, execution, ack).
type srvScenario struct {
	Workers    int     `json:"workers"`
	NsPerRun   int64   `json:"ns_per_run"`
	PktsPerSec float64 `json:"pkts_per_sec"`
	P50Micros  float64 `json:"rtt_p50_us"`
	P99Micros  float64 `json:"rtt_p99_us"`
	Lossless   bool    `json:"lossless"`
}

// traceScenario is one tracing-cost row: the same loopback run with wire
// spans sampled at 1/SampleEvery (0 = tracer absent, the baseline).
type traceScenario struct {
	SampleEvery  int     `json:"sample_every"`
	PktsPerSec   float64 `json:"pkts_per_sec"`
	P50Micros    float64 `json:"rtt_p50_us"`
	P99Micros    float64 `json:"rtt_p99_us"`
	SpansSampled int64   `json:"spans_sampled"`
	SpansDropped int64   `json:"spans_dropped"`
}

// srvBenchReport is the BENCH_server.json schema. The in-process engine
// rate from perfbench's ladder (dataplane.w2_ns_per_pkt) is the natural
// comparison point: the gap between the two is the cost of the wire. TraceOverheadPct prices the
// observability layer: the pps delta between the untraced baseline and the
// default 1/1024 sampling, as a percentage of the baseline (the tentpole's
// <2% acceptance bar).
type srvBenchReport struct {
	Benchmark        string          `json:"benchmark"`
	Date             string          `json:"date"`
	GoVersion        string          `json:"go_version"`
	NumCPU           int             `json:"num_cpu"`
	GoMaxProcs       int             `json:"gomaxprocs"`
	SingleCPU        bool            `json:"single_cpu"`
	Packets          int             `json:"packets"`
	Window           int             `json:"window"`
	Scenarios        []srvScenario   `json:"scenarios"`
	TraceScenarios   []traceScenario `json:"trace_scenarios"`
	TraceOverheadPct float64         `json:"trace_overhead_pct"`
	// The noisy-neighbor section (-tenant-bench, also run by -server-bench):
	// the victim tenant's rate solo vs with a quota-capped flooding
	// co-tenant, and the resulting degradation percentage (<10% bar).
	TenantScenarios  []tenantScenario `json:"tenant_scenarios,omitempty"`
	NoisyNeighborPct float64          `json:"noisy_neighbor_pct"`
}

// runServerBench times the full network path — mp5load's client against an
// in-process mp5d server over loopback TCP — at worker counts
// {1, 2, GOMAXPROCS}, reporting achieved pps and RTT quantiles.
func runServerBench(outPath string) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mp5bench:", err)
		os.Exit(1)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	const window = 256

	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	sort.Ints(counts)
	report := srvBenchReport{
		Benchmark:  "server-loopback",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		SingleCPU:  warnSingleCPU("server-bench"),
		Packets:    len(trace),
		Window:     window,
	}
	for i, w := range counts {
		if i > 0 && w == counts[i-1] {
			continue // GOMAXPROCS collides with 1 or 2 on small boxes
		}
		var best *server.LoadReport
		for rep := 0; rep < 4; rep++ { // rep 0 is warmup
			lr, _, _, err := oneServerRun(prog, trace, w, window, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mp5bench: workers=%d: %v\n", w, err)
				os.Exit(1)
			}
			if rep > 0 && (best == nil || lr.Elapsed < best.Elapsed) {
				best = lr
			}
		}
		report.Scenarios = append(report.Scenarios, srvScenario{
			Workers:    w,
			NsPerRun:   best.Elapsed.Nanoseconds(),
			PktsPerSec: best.PktsPerSec,
			P50Micros:  best.Latency.Quantile(0.5),
			P99Micros:  best.Latency.Quantile(0.99),
			Lossless:   best.Acked == best.Sent,
		})
	}
	// Tracing cost: the untraced baseline, the default 1/1024 sampling,
	// and a deliberately heavy 1/8, all at GOMAXPROCS workers (no
	// oversubscription — scheduler noise would swamp a percent-level
	// effect). Each variant reports the median of 5 measured reps after a
	// warmup; the headline number is baseline vs default.
	tw := runtime.GOMAXPROCS(0)
	for _, every := range []int{0, 1024, 8} {
		var runs []*server.LoadReport
		var sampled, dropped int64
		for rep := 0; rep < 6; rep++ { // rep 0 is warmup
			lr, sn, dn, err := oneServerRun(prog, trace, tw, window, every)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mp5bench: trace 1/%d: %v\n", every, err)
				os.Exit(1)
			}
			if rep > 0 {
				runs = append(runs, lr)
				sampled, dropped = sn, dn
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Elapsed < runs[j].Elapsed })
		med := runs[len(runs)/2]
		report.TraceScenarios = append(report.TraceScenarios, traceScenario{
			SampleEvery:  every,
			PktsPerSec:   med.PktsPerSec,
			P50Micros:    med.Latency.Quantile(0.5),
			P99Micros:    med.Latency.Quantile(0.99),
			SpansSampled: sampled,
			SpansDropped: dropped,
		})
	}
	base := report.TraceScenarios[0].PktsPerSec
	report.TraceOverheadPct = 100 * (base - report.TraceScenarios[1].PktsPerSec) / base
	report.TenantScenarios, report.NoisyNeighborPct = runTenantBench()

	out, _ := json.MarshalIndent(report, "", "  ")
	out = append(out, '\n')
	if outPath == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mp5bench:", err)
		os.Exit(1)
	}
	for _, sc := range report.Scenarios {
		fmt.Printf("workers=%-2d       %10.0f pkts/s  p50 %5.0fµs  p99 %5.0fµs  lossless=%v\n",
			sc.Workers, sc.PktsPerSec, sc.P50Micros, sc.P99Micros, sc.Lossless)
	}
	for _, ts := range report.TraceScenarios {
		label := "untraced"
		if ts.SampleEvery > 0 {
			label = fmt.Sprintf("trace 1/%d", ts.SampleEvery)
		}
		fmt.Printf("%-16s %10.0f pkts/s  p50 %5.0fµs  p99 %5.0fµs  spans=%d\n",
			label, ts.PktsPerSec, ts.P50Micros, ts.P99Micros, ts.SpansSampled)
	}
	fmt.Printf("trace overhead   %.2f%% pps at default 1/1024 sampling\n", report.TraceOverheadPct)
	printTenantRows(report.TenantScenarios, report.NoisyNeighborPct)
	fmt.Println("wrote", outPath)
}

// oneServerRun stands up a fresh daemon on an ephemeral loopback port,
// pushes the trace through the closed-loop TCP client, and tears it down.
// sampleEvery > 0 attaches a wire-span tracer (registry-less: pure tracing
// cost, no metric folding beyond the collector) and returns its
// sampled/dropped counts.
func oneServerRun(prog *ir.Program, trace []core.Arrival, workers, window, sampleEvery int) (*server.LoadReport, int64, int64, error) {
	var trc *dataplane.Tracer
	if sampleEvery > 0 {
		trc = dataplane.NewTracer(dataplane.TracerConfig{SampleEvery: sampleEvery})
	}
	s, err := server.New(prog, server.Config{
		Engine:  dataplane.Config{Workers: workers},
		TCPAddr: "127.0.0.1:0",
		Tracer:  trc,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := s.Start(); err != nil {
		return nil, 0, 0, err
	}
	defer s.Shutdown()
	c, err := server.Dial("tcp", s.TCPAddr())
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Close()
	rep, err := c.Run(trace, server.LoadOptions{Window: window})
	if err != nil {
		return nil, 0, 0, err
	}
	res := s.Shutdown()
	trc.Close()
	if res.Stalled {
		return nil, 0, 0, fmt.Errorf("engine stalled at %d workers", workers)
	}
	return rep, trc.Sampled(), trc.Dropped(), nil
}
