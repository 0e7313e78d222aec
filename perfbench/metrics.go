package main

import (
	"fmt"
	"regexp"
)

// metricKind says where a metric appears. End-to-end and per-layer
// metrics are BENCHMARK.json's: every workload reports every one of
// them, end-to-end untraced and per-layer traced. Info figures are
// printed as lines before the result by the workloads that measure
// them, and gate nothing.
type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
	info
)

// metricDef is one metric the benchmark reports. End-to-end metrics
// carry the bound by which a change may worsen them before it counts
// as a regression; per-layer metrics name the end-to-end metric they
// should move and on which workload. BENCHMARK.json lists the same
// names, units, directions and bounds (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	kind               metricKind
	bound              float64
	// moves is, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an info figure, what it shows.
	moves string
}

const (
	wRepro      = "repro"
	wEmbedded   = "embedded"
	wServeRead  = "serve_read"
	wServeChurn = "serve_churn"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// catalogue lists every metric in report order.
func catalogue() []metricDef {
	e2e := func(name, unit, better string, bound float64) metricDef {
		return metricDef{name: name, unit: unit, better: better, kind: endToEnd, bound: bound}
	}
	layer := func(name, unit, better, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: better, kind: perLayer, moves: moves}
	}
	figure := func(name, unit, better, shows string) metricDef {
		return metricDef{name: name, unit: unit, better: better, kind: info, moves: shows}
	}
	const (
		worldMoves = "op_ms on repro; setup_s on embedded, serve_read, serve_churn"
		embMoves   = "op_ms on embedded; no change on serve_read"
		readMoves  = "op_ms on serve_read"
		churnMoves = "op_ms on serve_churn; no change on serve_read"
		// Loopback read latency under open load and capacity are shown
		// but gate nothing: over 10 seeds on a 2-vCPU VM the host moved
		// them by a third or more from minute to minute, past the 0.25
		// cap on any bound.
		readFigure = "open-loop reads, too host-noisy to gate"
	)
	defs := []metricDef{
		e2e("setup_s", "s", "lower", 0.25),
		e2e("peak_rss_mb", "MiB", "lower", 0.15),
		e2e("op_ms", "ms", "lower", 0.25),

		layer("population.build_s", "s", "lower", worldMoves),
		layer("netgen.build_s", "s", "lower", worldMoves),
		layer("netsim.compile_s", "s", "lower", worldMoves),
		layer("dnsdb.publish_s", "s", "lower", worldMoves),
		layer("bgp.assemble_s", "s", "lower", worldMoves),
		layer("probe.collect_s", "s", "lower", worldMoves),
		layer("topo.datasets_s", "s", "lower", worldMoves),
		layer("analysis.experiments_s", "s", "lower", "op_ms on repro"),
		layer("netgen.ifaces", "count", "higher", "op_ms on repro (work done)"),
		layer("probe.traces", "count", "higher", "op_ms on repro (work done)"),
		layer("geoserve.compile_s", "s", "lower", "setup_s on embedded, serve_read, serve_churn"),

		layer("geoserve.snapshot_lookup_ns", "ns", "lower", embMoves),
		layer("geoserve.cluster_lookup_ns", "ns", "lower", embMoves),
		layer("geoserve.found_ratio", "ratio", "higher", "op_ms on embedded (work mix)"),

		layer("geoserve.lookup_batch_ns", "ns", "lower", readMoves),
		layer("geoserve.handler_bin_us", "us", "lower", readMoves),
		layer("geoserve.handler_json_us", "us", "lower", readMoves),
		layer("net.loopback_us", "us", "lower", readMoves),

		layer("churn.next_ms", "ms", "lower", churnMoves),
		layer("geoserve.compile_delta_ms", "ms", "lower", churnMoves),
		layer("geoserve.dirty_ratio", "ratio", "lower", churnMoves),
		layer("geoserve.swap_delta_ms", "ms", "lower", churnMoves),
		layer("replica.publish_ms", "ms", "lower", churnMoves),
		layer("snapfile.diff_ms", "ms", "lower", churnMoves),
		layer("snapfile.apply_ms", "ms", "lower", churnMoves),
		layer("replica.sync_ms", "ms", "lower", churnMoves),
		layer("replica.delta_sync_ratio", "ratio", "higher", churnMoves),
		layer("router.hop_us", "us", "lower", "read latency on serve_churn (shown, not gated)"),
		layer("trace.overhead_pct", "%", "lower", "none: traced minus untraced op_ms, as a share of untraced"),

		figure("repro_s", "s", "lower", "repro's op_ms in seconds"),
		figure("lookups_per_s", "1/s", "higher", "embedded's throughput behind op_ms"),
		figure("closed_json_p50_ms", "ms", "lower", "serve_read's op_ms, JSON part"),
		figure("closed_bin_p50_ms", "ms", "lower", "serve_read's op_ms, bin part"),
		figure("max_rate_rps", "1/s", "higher", readFigure),
		figure("json_p50_ms", "ms", "lower", readFigure),
		figure("bin_p50_ms", "ms", "lower", readFigure),
		figure("json_p99_ms", "ms", "lower", readFigure),
		figure("bin_p99_ms", "ms", "lower", readFigure),
		figure("gen.late_p99_ms", "ms", "lower", "generator health behind json_*/bin_*"),
		figure("error_ratio", "ratio", "lower", "95% Wilson upper bound of failed/attempted"),
		figure("fresh_p50_ms", "ms", "lower", "serve_churn's op_ms"),
		figure("fresh_p90_ms", "ms", "lower", "the freshness tail behind op_ms on serve_churn"),
		figure("router.retries", "count", "lower", "error_ratio on serve_churn"),
		figure("router.sheds", "count", "lower", "error_ratio on serve_churn"),
	}
	for _, class := range []string{"json", "bin"} {
		for _, what := range []string{"sent", "ok", "failed"} {
			better := "higher"
			if what == "failed" {
				better = "lower"
			}
			defs = append(defs, figure("gen."+class+"_"+what, "count", better, "error_ratio on serve_read"))
		}
	}
	for _, rate := range ladderRates() {
		for _, class := range []string{"json", "bin"} {
			defs = append(defs, figure(rungMetric(rate, class), "ms", "lower", "max_rate_rps on serve_read"))
		}
	}
	return defs
}

func rungMetric(rate float64, class string) string {
	return fmt.Sprintf("ladder.%.0f.%s_p99_ms", rate, class)
}

// metricsOf returns the catalogue's metrics of one kind.
func metricsOf(kind metricKind) []metricDef {
	var out []metricDef
	for _, d := range catalogue() {
		if d.kind == kind {
			out = append(out, d)
		}
	}
	return out
}
