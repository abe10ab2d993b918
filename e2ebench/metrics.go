package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"streamline/internal/experiments"
)

// e2eMetrics are the end-to-end figures of an untraced phase. Counts and
// CPU are per pass of every id (daemon-warm: per len(ids) jobs), so they
// do not grow with the phase's length.
func e2eMetrics(setupS float64, ph *phaseResult) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"pass_s":           {median(ph.passS), "s"},
		"latency_ms_p50":   {ph.p50(), "ms"},
		"latency_ms_p99":   {quantile(ph.lat, 0.99), "ms"},
		"throughput_per_s": {float64(ph.tables) / ph.wall.Seconds(), "tables/s"},
		"cpu_s":            {ph.cpu.Seconds() / ph.units, "s"},
		"heap_peak_mb":     {ph.heapMB, "MB"},
	}
}

// e2eNotes are the sample counts printed beside the end-to-end metrics.
func e2eNotes(ph *phaseResult) map[string]string {
	n := len(ph.lat)
	return map[string]string{
		"pass_s":           fmt.Sprintf("median of %d passes", len(ph.passS)),
		"latency_ms_p50":   fmt.Sprintf("median over %d experiments of each one's median, n=%d", len(ph.byExp), n),
		"latency_ms_p99":   fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.99)),
		"throughput_per_s": fmt.Sprintf("%d tables in %.3fs", ph.tables, ph.wall.Seconds()),
		"cpu_s":            fmt.Sprintf("user+sys per pass, %.2f passes", ph.units),
	}
}

// perPass divides a phase total by the number of passes it completed.
func perPass(ph *phaseResult, v float64) float64 {
	if ph.units == 0 {
		return 0
	}
	return v / ph.units
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics are the per-layer figures of the traced phase, plus the
// attribution residuals and the tracing overhead against the untraced
// phase. Every name is emitted on every workload; a layer the workload
// does not reach reports 0.
func layerMetrics(plain, tr *phaseResult) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	for _, id := range experiments.IDs() {
		put("exp."+id+".ms", median(tr.tr.durations("exp."+id)), "ms")
	}

	put("core.sims", perPass(tr, float64(tr.run.Sims)), "count")
	put("core.store_hits", perPass(tr, float64(tr.run.StoreHits)), "count")
	put("core.store_misses", perPass(tr, float64(tr.run.StoreMisses)), "count")
	put("core.unkeyed_sims", perPass(tr, float64(tr.run.Sims)-float64(tr.run.StoreMisses)), "count")
	put("core.chain_nodes", perPass(tr, float64(tr.chain.Nodes)), "count")
	put("core.chain_forks", perPass(tr, float64(tr.chain.Forks)), "count")
	put("core.memo_hits", perPass(tr, float64(tr.chain.MemoHits)), "count")

	st := tr.store
	put("store.hits", perPass(tr, float64(st.Hits)), "count")
	put("store.misses", perPass(tr, float64(st.Misses)), "count")
	put("store.writes", perPass(tr, float64(st.Writes)), "count")
	put("store.mem_hits", perPass(tr, float64(st.MemHits)), "count")
	put("store.mem_hit_ratio", ratio(float64(st.MemHits), float64(st.Hits)), "ratio")
	put("store.quarantined", float64(st.Quarantined), "count")
	put("store.disk_bytes", float64(st.Bytes)/(1<<20), "MB")
	put("store.mem_bytes", float64(st.MemBytes)/(1<<20), "MB")

	for _, h := range []string{"submit", "progress", "status"} {
		d := tr.tr.durations("daemon." + h)
		put("daemon."+h+"_ms_p50", quantile(d, 0.50), "ms")
		put("daemon."+h+"_ms_p99", quantile(d, 0.99), "ms")
	}
	put("daemon.client_overhead_ms", clientOverhead(tr.tr), "ms")
	put("daemon.coalesced", perPass(tr, float64(tr.coalesced)), "count")

	put("runtime.gc_cycles", perPass(tr, float64(tr.gcCycles)), "count")
	put("runtime.alloc_mb", perPass(tr, float64(tr.allocBytes)/(1<<20)), "MB")

	profiled := 0.0
	for _, b := range cpuBuckets {
		profiled += tr.cpuBkt[b]
		put("cpu."+b, perPass(tr, tr.cpuBkt[b]), "s")
	}

	put("attr.pass_residual_ms", passResidual(tr.tr), "ms")
	put("attr.cpu_other_share", 100*ratio(tr.cpuBkt["other"], profiled), "%")
	put("attr.cpu_profile_coverage", 100*ratio(profiled, tr.cpu.Seconds()), "%")
	put("trace.overhead_pass_pct", 100*(ratio(median(tr.passS), median(plain.passS))-1), "%")
	put("trace.overhead_latency_pct", 100*(ratio(tr.p50(), plain.p50())-1), "%")
	return m
}

// passResidual is the median over passes of the pass span minus the sum of
// its exp.<id> spans: the time a pass spends outside experiments.Run
// (opening the store handle, formatting and checking tables). 0 when the
// phase has no pass spans (daemon-warm).
func passResidual(t *tracer) float64 {
	pass := t.byRequest("pass")
	exps := t.byRequest("exp.")
	var res []float64
	for idx, d := range pass {
		res = append(res, ms(d-exps[idx]))
	}
	sort.Float64s(res)
	return median(res)
}

// clientOverhead is the median over daemon requests of the client's job
// span minus the server's handler spans for the same request: time in the
// HTTP client, the kernel's loopback path and net/http's connection
// handling. 0 when the phase made no daemon requests.
func clientOverhead(t *tracer) float64 {
	client := t.byRequest("client.job")
	server := t.byRequest("daemon.")
	var res []float64
	for j, d := range client {
		res = append(res, ms(d-server[j]))
	}
	sort.Float64s(res)
	return median(res)
}

// printMetrics writes one line per metric, sorted by name.
func printMetrics(out io.Writer, m map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-32s %14.6f %s", n, m[n].Value, m[n].Unit)
		if note := notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}

// printResiduals writes the attribution closure of the traced phase and
// the tracing overhead.
func printResiduals(out io.Writer, plain, tr *phaseResult, m map[string]metric) {
	if jobs := len(tr.tr.durations("client.job")); jobs > 0 {
		fmt.Fprintf(out, "residual daemon client latency - server spans = %.3f ms of a %.3f ms job (p50 over %d jobs)\n",
			m["daemon.client_overhead_ms"].Value, tr.p50(), jobs)
	} else {
		passMs := 1000 * median(tr.passS)
		fmt.Fprintf(out, "residual pass_s - sum(exp.<id>.ms) = %.3f ms of a %.3f ms pass (%.2f%%)\n",
			m["attr.pass_residual_ms"].Value, passMs, 100*ratio(m["attr.pass_residual_ms"].Value, passMs))
	}
	fmt.Fprintf(out, "residual cpu.other = %.2f%% of profiled CPU; profile covers %.1f%% of user+sys\n",
		m["attr.cpu_other_share"].Value, m["attr.cpu_profile_coverage"].Value)
	fmt.Fprintf(out, "tracing overhead: pass_s %.4fs untraced vs %.4fs traced (%+.2f%%), latency_ms_p50 %.3f vs %.3f (%+.2f%%)\n",
		median(plain.passS), median(tr.passS), m["trace.overhead_pass_pct"].Value,
		plain.p50(), tr.p50(), m["trace.overhead_latency_pct"].Value)
}
