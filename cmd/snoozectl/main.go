// Command snoozectl is the CLI for the api/v1 control plane — the analogue
// of the paper's command line interface for VM management and "live
// visualizing and exporting of the hierarchy organization" (Section II-A).
// It speaks only the versioned typed client (api/v1/client), so it works
// identically against a live snoozed process and any other /v1 server.
//
// Usage:
//
//	snoozectl -server http://localhost:7001 gl
//	snoozectl -server http://localhost:7001 topology -deep
//	snoozectl -server http://localhost:7001 submit -n 4 -cpu 2 -mem 2048
//	snoozectl -server http://localhost:7001 vms
//	snoozectl -server http://localhost:7001 nodes
//	snoozectl -server http://localhost:7001 consolidate -algorithm aco
//	snoozectl -server http://localhost:7001 metrics
//	snoozectl -server http://localhost:7001 series
//	snoozectl -server http://localhost:7001 series -entity node/n1 -metric util -agg max -step 30s
//	snoozectl -server http://localhost:7001 watch -from 1
//	snoozectl -server http://localhost:7001 experiment e4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
)

func main() {
	server := flag.String("server", "http://localhost:7001", "control process base URL")
	timeout := flag.Duration("timeout", 2*time.Minute, "request timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cli := apiclient.New(*server, apiclient.WithTimeout(*timeout))
	ctx := context.Background()

	switch args[0] {
	case "gl":
		topo, err := cli.Topology(ctx, false)
		fatalIf(err)
		fmt.Println(topo.GL)

	case "topology":
		fs := flag.NewFlagSet("topology", flag.ExitOnError)
		deep := fs.Bool("deep", false, "include per-LC detail (GL fans out to GMs)")
		fatalIf(fs.Parse(args[1:]))
		topo, err := cli.Topology(ctx, *deep)
		fatalIf(err)
		printTopology(topo)

	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		n := fs.Int("n", 1, "number of VMs")
		cpu := fs.Float64("cpu", 1, "CPU cores per VM")
		mem := fs.Float64("mem", 1024, "memory (MB) per VM")
		prefix := fs.String("prefix", "vm", "VM ID prefix")
		fatalIf(fs.Parse(args[1:]))
		specs := make([]apiv1.VMSpec, 0, *n)
		for i := 0; i < *n; i++ {
			specs = append(specs, apiv1.VMSpec{
				ID:        fmt.Sprintf("%s-%d-%d", *prefix, time.Now().UnixNano()%100000, i),
				Requested: apiv1.Resources{CPU: *cpu, MemoryMB: *mem, NetRxMbps: 10, NetTxMbps: 10},
			})
		}
		result, err := cli.SubmitVMs(ctx, specs)
		fatalIf(err)
		printJSON(result)

	case "vms":
		vms, err := cli.ListVMs(ctx)
		fatalIf(err)
		for _, vm := range vms {
			fmt.Printf("%-24s %-10s node=%-12s cpu=%.2f mem=%.0f\n",
				vm.ID, vm.State, vm.Node, vm.Requested.CPU, vm.Requested.MemoryMB)
		}
		fmt.Printf("%d VMs\n", len(vms))

	case "vm":
		if len(args) < 2 {
			usage()
		}
		vm, err := cli.GetVM(ctx, args[1])
		fatalIf(err)
		printJSON(vm)

	case "nodes":
		nodes, err := cli.ListNodes(ctx)
		fatalIf(err)
		for _, n := range nodes {
			fmt.Printf("%-14s %-10s %2d VMs  reserved cpu=%.2f/%.2f mem=%.0f/%.0f\n",
				n.ID, n.Power, len(n.VMs), n.Reserved.CPU, n.Capacity.CPU, n.Reserved.MemoryMB, n.Capacity.MemoryMB)
		}
		fmt.Printf("%d nodes\n", len(nodes))

	case "node":
		if len(args) < 2 {
			usage()
		}
		node, err := cli.GetNode(ctx, args[1])
		fatalIf(err)
		printJSON(node)

	case "fail":
		if len(args) < 2 {
			usage()
		}
		fatalIf(cli.FailNode(ctx, args[1]))
		fmt.Printf("node %s failed\n", args[1])

	case "consolidate":
		// "consolidate status|start|stop" controls the online optimizer;
		// anything else computes a dry-run plan.
		if len(args) > 1 {
			var call func(context.Context) (apiv1.ConsolidationStatusList, error)
			switch args[1] {
			case "status":
				call = cli.ConsolidationStatus
			case "start":
				call = cli.StartConsolidation
			case "stop":
				call = cli.StopConsolidation
			}
			if call != nil {
				list, err := call(ctx)
				fatalIf(err)
				printConsolidationStatus(list)
				break
			}
		}
		fs := flag.NewFlagSet("consolidate", flag.ExitOnError)
		algo := fs.String("algorithm", apiv1.AlgorithmACO, "solver: aco | ffd | optimal")
		demand := fs.String("demand", "", "VM pricing: requested (default) | p95 (windowed telemetry demand)")
		fatalIf(fs.Parse(args[1:]))
		plan, err := cli.Consolidate(ctx, apiv1.ConsolidationRequest{Algorithm: *algo, Demand: *demand})
		fatalIf(err)
		fmt.Printf("%s: %d VMs on %d/%d hosts -> %d hosts (%d migrations)\n",
			plan.Algorithm, plan.VMs, plan.HostsBefore, plan.HostsTotal, plan.HostsAfter, len(plan.Migrations))
		for _, m := range plan.Migrations {
			fmt.Printf("  %-24s %s -> %s\n", m.VM, m.From, m.To)
		}

	case "metrics":
		snap, err := cli.Metrics(ctx)
		fatalIf(err)
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Printf("%-32s %d\n", name, snap.Counters[name])
		}
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Printf("%-32s %g\n", name, snap.Gauges[name])
		}
		for _, name := range sortedKeys(snap.Series) {
			s := snap.Series[name]
			fmt.Printf("%-32s n=%d mean=%.2f p95=%.2f p99=%.2f\n", name, s.N, s.Mean, s.P95, s.P99)
		}

	case "recovery":
		// The failover and robustness dashboard: GMs the GL declared failed,
		// rejected monitor reports and the migration retry budget.
		snap, err := cli.Metrics(ctx)
		fatalIf(err)
		shown := 0
		for _, name := range []string{
			"gm.monitor-rejects", "gm.migration-retries",
			"gm.migration-abandoned", "gl.gm-failures",
		} {
			if v, ok := snap.Counters[name]; ok {
				fmt.Printf("%-24s %d\n", name, v)
				shown++
			}
		}
		if shown == 0 {
			fmt.Println("no recovery activity recorded")
		}

	case "series":
		fs := flag.NewFlagSet("series", flag.ExitOnError)
		entity := fs.String("entity", "", "series entity (node/<id>, vm/<id>, gm/<id>); empty lists all keys")
		metric := fs.String("metric", "", "series metric (util, cpu.used, mem.used, vms, ...)")
		from := fs.Duration("from", 0, "window start (runtime-relative, e.g. 10m)")
		to := fs.Duration("to", 0, "window end (0 = unbounded)")
		agg := fs.String("agg", "", "downsample aggregation: min|max|avg|last|pXX")
		step := fs.Duration("step", 0, "downsample bucket width (with -agg)")
		fatalIf(fs.Parse(args[1:]))
		if *entity == "" && *metric == "" {
			keys, err := cli.ListSeries(ctx)
			fatalIf(err)
			for _, k := range keys {
				fmt.Printf("%-24s %s\n", k.Entity, k.Metric)
			}
			fmt.Printf("%d series\n", len(keys))
			break
		}
		data, err := cli.QuerySeries(ctx, apiv1.SeriesQuery{
			Entity: *entity, Metric: *metric,
			FromNs: int64(*from), ToNs: int64(*to),
			Agg: *agg, StepNs: int64(*step),
		})
		fatalIf(err)
		fmt.Printf("%s %s", data.Entity, data.Metric)
		if data.Agg != "" {
			fmt.Printf(" (%s per %s)", data.Agg, time.Duration(data.StepNs))
		}
		fmt.Printf(": %d points\n", data.Total)
		if data.NewestNs > 0 || data.OldestNs > 0 {
			fmt.Printf("retained [%s, %s], full resolution from %s",
				time.Duration(data.OldestNs), time.Duration(data.NewestNs), time.Duration(data.RawFromNs))
			for i, tr := range data.Tiers {
				if i == 0 {
					fmt.Printf("; tiers:")
				}
				fmt.Printf(" %s×%d (%d pts)", time.Duration(tr.StepNs), tr.Capacity, tr.Points)
			}
			fmt.Println()
		}
		if data.Truncated {
			fmt.Println("window TRUNCATED: part of it predates full-resolution retention (decimated or evicted)")
		}
		if s := data.Summary; s != nil {
			fmt.Printf("summary: min=%.4f max=%.4f avg=%.4f p50=%.4f p95=%.4f (weight %d)",
				s.Min, s.Max, s.Avg, s.P50, s.P95, s.Weight)
			if s.QuantileError > 0 {
				fmt.Printf(" ±%.1f%% quantile error", s.QuantileError*100)
			} else {
				fmt.Printf(" exact")
			}
			fmt.Println()
		}
		for _, p := range data.Points {
			fmt.Printf("%14s  %.4f\n", time.Duration(p.AtNs), p.Value)
		}

	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		from := fs.Uint64("from", 0, "replay retained events from this sequence number")
		n := fs.Int("n", 0, "stop after N events (0 = stream forever)")
		fatalIf(fs.Parse(args[1:]))
		// Fail fast on a bad server address — WatchResume would otherwise
		// retry a hopeless endpoint silently forever.
		fatalIf(cli.Healthz(ctx))
		// WatchResume reconnects with from = lastSeq+1 on lag or link loss,
		// so a long-lived CLI watch survives flaky links and server restarts.
		stream := cli.WatchResume(ctx, *from)
		defer stream.Close()
		seen := 0
		for ev := range stream.Events() {
			attrs := ""
			for _, k := range sortedKeys(ev.Attrs) {
				attrs += fmt.Sprintf(" %s=%s", k, ev.Attrs[k])
			}
			fmt.Printf("%8d %14s %-20s %s%s\n", ev.Seq, time.Duration(ev.AtNs), ev.Type, ev.Entity, attrs)
			if seen++; *n > 0 && seen >= *n {
				break
			}
		}
		// No trailing Err check: transient reconnect errors are retried
		// internally, and after a voluntary -n break a stale one would
		// race the next delivery's reset.

	case "trace":
		if len(args) < 2 {
			usage()
		}
		list, err := queryTraces(ctx, cli, args[1])
		fatalIf(err)
		if len(list.Items) == 0 {
			fmt.Printf("no decision traces for %q (tracing samples every trace by default; see snoozed -trace-sample)\n", args[1])
			break
		}
		printTraces(list.Items)

	case "experiment":
		if len(args) < 2 {
			usage()
		}
		exp, err := cli.Experiment(ctx, args[1])
		fatalIf(err)
		fmt.Printf("== %s: %s ==\n%s", exp.ID, exp.Title, exp.Table)
		for _, n := range exp.Notes {
			fmt.Println("note: " + n)
		}

	default:
		usage()
	}
}

// queryTraces resolves the trace argument: a bare ID is tried as a VM first
// ("trace vm-123" is the common case), then as a trace ID; an entity path
// like node/n1 or gm/gm-00 is used verbatim. Entity matches are widened to
// their full traces so the output shows the whole decision chain, not only
// the spans naming that entity.
func queryTraces(ctx context.Context, cli *apiclient.Client, arg string) (apiv1.TraceList, error) {
	entity := arg
	if !strings.Contains(arg, "/") {
		entity = "vm/" + arg
	}
	list, err := cli.ListTraces(ctx, apiv1.TraceQuery{Entity: entity})
	if err != nil {
		return apiv1.TraceList{}, err
	}
	if len(list.Items) == 0 && !strings.Contains(arg, "/") {
		if list, err = cli.ListTraces(ctx, apiv1.TraceQuery{TraceID: arg}); err != nil {
			return apiv1.TraceList{}, err
		}
		return list, nil
	}
	// Widen each matched trace to its complete span chain.
	seen := map[string]bool{}
	var full apiv1.TraceList
	for _, sp := range list.Items {
		if seen[sp.TraceID] {
			continue
		}
		seen[sp.TraceID] = true
		chain, err := cli.ListTraces(ctx, apiv1.TraceQuery{TraceID: sp.TraceID})
		if err != nil {
			return apiv1.TraceList{}, err
		}
		full.Items = append(full.Items, chain.Items...)
	}
	full.Total = len(full.Items)
	return full, nil
}

// printTraces renders span chains grouped by trace, children indented under
// their parents, with the decision evidence (policy, capacity-view
// generation, per-candidate rejection reasons) each span recorded.
func printTraces(spans []apiv1.TraceSpan) {
	byTrace := map[string][]apiv1.TraceSpan{}
	var order []string
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for _, tid := range order {
		fmt.Printf("trace %s\n", tid)
		chain := byTrace[tid]
		children := map[string][]apiv1.TraceSpan{}
		var roots []apiv1.TraceSpan
		byID := map[string]bool{}
		for _, sp := range chain {
			byID[sp.SpanID] = true
		}
		for _, sp := range chain {
			if sp.Parent != "" && byID[sp.Parent] {
				children[sp.Parent] = append(children[sp.Parent], sp)
			} else {
				roots = append(roots, sp)
			}
		}
		var walk func(sp apiv1.TraceSpan, depth int)
		walk = func(sp apiv1.TraceSpan, depth int) {
			printSpan(sp, depth)
			for _, c := range children[sp.SpanID] {
				walk(c, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 1)
		}
	}
}

func printSpan(sp apiv1.TraceSpan, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Printf("%s%-12s %-16s", indent, sp.Kind, sp.Entity)
	if sp.Policy != "" {
		fmt.Printf(" policy=%s", sp.Policy)
	}
	if sp.Target != "" {
		fmt.Printf(" -> %s", sp.Target)
	}
	fmt.Printf(" [%s, %s]", sp.Outcome, time.Duration(sp.EndNs-sp.StartNs))
	if v := sp.View; v != nil {
		fmt.Printf(" view(gen=%d samples=%d fresh=%t", v.Gen, v.Samples, v.Fresh)
		if v.Truncated {
			fmt.Printf(" truncated")
		}
		fmt.Printf(")")
	}
	for _, k := range sortedKeys(sp.Attrs) {
		fmt.Printf(" %s=%s", k, sp.Attrs[k])
	}
	fmt.Println()
	for _, c := range sp.Candidates {
		if c.Chosen {
			fmt.Printf("%s  + %-16s chosen\n", indent, c.ID)
		} else {
			fmt.Printf("%s  - %-16s rejected: %s\n", indent, c.ID, c.Reason)
		}
	}
}

func printTopology(topo apiv1.Topology) {
	fmt.Printf("GL %s\n", topo.GL)
	if s := topo.Scheduling; s.Dispatch != "" || s.Placement != "" {
		fmt.Printf("scheduling: dispatch=%s placement=%s overload=%s underload=%s",
			s.Dispatch, s.Placement, s.Overload, s.Underload)
		if s.Estimator != "" {
			fmt.Printf(" estimator=%s", s.Estimator)
		}
		if s.ViewHorizonNs > 0 {
			fmt.Printf(" view-horizon=%s", time.Duration(s.ViewHorizonNs))
		}
		fmt.Println()
	}
	for _, gm := range topo.GMs {
		s := gm.Summary
		fmt.Printf("└─ GM %s (%s): %d active LCs, %d asleep, %d VMs, reserved cpu=%.2f of %.2f\n",
			gm.ID, gm.Addr, s.ActiveLCs, s.AsleepLCs, s.VMs, s.Reserved.CPU, s.Total.CPU)
		// Per-GM policies are printed only when they diverge from the GL's,
		// so uniform deployments stay compact and mixed-policy ones visible.
		if gs := gm.Scheduling; gs != nil && *gs != topo.Scheduling {
			fmt.Printf("   scheduling: dispatch=%s placement=%s overload=%s underload=%s",
				gs.Dispatch, gs.Placement, gs.Overload, gs.Underload)
			if gs.Estimator != "" {
				fmt.Printf(" estimator=%s", gs.Estimator)
			}
			if gs.ViewHorizonNs > 0 {
				fmt.Printf(" view-horizon=%s", time.Duration(gs.ViewHorizonNs))
			}
			fmt.Println()
		}
		for _, lc := range gm.LCs {
			fmt.Printf("   └─ LC %s [%s]: %d VMs, reserved cpu=%.2f of %.2f\n",
				lc.ID, lc.Power, lc.VMs, lc.Reserved.CPU, lc.Capacity.CPU)
		}
	}
}

func printConsolidationStatus(list apiv1.ConsolidationStatusList) {
	for _, st := range list.Items {
		state := "stopped"
		if st.Running {
			state = "running"
		}
		if st.InRound {
			state += " (in round)"
		}
		fmt.Printf("GM %-10s %-18s period=%s budget=%d rounds=%d migrations=%d cancels=%d failures=%d\n",
			st.GM, state, time.Duration(st.PeriodNs), st.Budget, st.Rounds, st.Migrations, st.Cancels, st.Failures)
		if lr := st.LastRound; lr != nil {
			fmt.Printf("  last round %d at %s: hosts %d -> %d, planned=%d executed=%d failed=%d cancelled=%d\n",
				lr.Round, time.Duration(lr.AtNs), lr.HostsBefore, lr.HostsAfter, lr.Planned, lr.Executed, lr.Failed, lr.Cancelled)
		}
	}
	fmt.Printf("%d GMs\n", len(list.Items))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printJSON(v any) {
	out, _ := json.MarshalIndent(v, "", "  ")
	fmt.Println(string(out))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: snoozectl [-server URL] [-timeout D] COMMAND
commands:
  gl                      print the current group leader address
  topology [-deep]        show the hierarchy (GL -> GMs -> LCs)
  submit [-n -cpu -mem]   submit a batch of VMs
  vms | vm ID             list VMs / show one VM
  nodes | node ID         list nodes / show one node
  fail ID                 crash-stop a node (simulation backends)
  consolidate [-algorithm aco|ffd|optimal] [-demand requested|p95]
                          compute a dry-run consolidation plan
  consolidate status|start|stop
                          control the online consolidation optimizer (per GM)
  metrics                 control-plane counters, gauges and latency series
  recovery                failover and robustness counters
  series [-entity -metric -from -to -agg -step]
                          list telemetry series, or dump one as a table
  watch [-from SEQ] [-n N]
                          stream telemetry events (overloads, vm.state, ...)
  trace VM-ID|TRACE-ID|ENTITY
                          show decision traces (dispatch -> placement chain
                          with per-candidate rejection reasons)
  experiment ID           reproduce one evaluation table (e1..e9, a1, a2, f1)`)
	os.Exit(2)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "snoozectl:", err)
		os.Exit(1)
	}
}
