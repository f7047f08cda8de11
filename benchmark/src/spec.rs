//! The benchmark's declaration: workloads, metrics, units and bounds.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `kk-bench manifest`; a unit test keeps the two identical.

use crate::json::Json;

/// How long one run measures (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "batch_deepwalk",
        why: "first-order walk, 1 rank x 2 threads, zero messages: sampler draw and step kernel do all the work; cluster, net and serve do none",
    },
    WorkloadSpec {
        name: "batch_node2vec_2rank",
        why: "second-order walk over 2 TCP ranks: rejection trials, query rounds, wire encode, frames and barrier waits dominate; the alias draw is a small share",
    },
    WorkloadSpec {
        name: "serve_static",
        why: "small requests through the TCP front door at a fixed open-loop rate: latency is set by superstep cadence, admission, idle sleep and reactor, not by the sampler",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "serve_static plus update batches on a DynGraph: sampler tables are rebuilt while drawn from, so cheap draws bought with dear maintenance show as a loss",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics carry none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics. Every workload reports every one of them (the
/// acceptance driver requires it), so each is defined for both kinds of
/// workload — see `README.md`, "End-to-end metrics".
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("steps_per_s", "steps/s", Better::Higher, 0.10),
    e2e("req_p50_ms", "ms", Better::Lower, 0.10),
    e2e("req_p99_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Names `Phase::name()` gives today. Looked up by name at run time, so
/// a phase that a later change deletes reports 0 here instead of
/// breaking the build.
pub const PHASE_NAMES: [&str; 10] = [
    "init",
    "alias_build",
    "local_compute",
    "exchange",
    "query_round",
    "answer_round",
    "light_mode",
    "finalize",
    "gather",
    "commit",
];

/// Per-layer metrics, grouped by crate. A workload that does not pass
/// through a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricSpec] = &[
    // graph
    lower("graph.gen_s", "s"),
    lower("graph.kkg_load_s", "s"),
    lower("graph.bytes_per_edge", "B/edge"),
    lower("graph.extract_local_s", "s"),
    // sampling
    lower("sampling.alias.draw_ns.lo", "ns"),
    lower("sampling.alias.draw_ns.mid", "ns"),
    lower("sampling.alias.draw_ns.hub", "ns"),
    lower("sampling.its.draw_ns.lo", "ns"),
    lower("sampling.its.draw_ns.mid", "ns"),
    lower("sampling.its.draw_ns.hub", "ns"),
    lower("sampling.radix.draw_ns.lo", "ns"),
    lower("sampling.radix.draw_ns.mid", "ns"),
    lower("sampling.radix.draw_ns.hub", "ns"),
    lower("sampling.alias.build_ns_per_edge", "ns/edge"),
    lower("sampling.its.build_ns_per_edge", "ns/edge"),
    lower("sampling.radix.build_ns_per_edge", "ns/edge"),
    lower("sampling.alias.rebuild_ns.mid", "ns"),
    lower("sampling.alias.rebuild_ns.hub", "ns"),
    lower("sampling.radix.reweight_ns.mid", "ns"),
    lower("sampling.radix.reweight_ns.hub", "ns"),
    lower("sampling.envelope.draw_ns", "ns"),
    lower("sampling.rng.next_ns", "ns"),
    lower("sampling.bytes_per_edge.alias", "B/edge"),
    lower("sampling.bytes_per_edge.its", "B/edge"),
    lower("sampling.bytes_per_edge.radix", "B/edge"),
    // core (+ walks programs)
    lower("core.steps", "count"),
    lower("core.iterations", "count"),
    lower("core.trials_per_step", "ratio"),
    lower("core.edges_per_step", "ratio"),
    higher("core.pre_accept_share", "ratio"),
    lower("core.appendix_hit_share", "ratio"),
    lower("core.fallback_scans", "count"),
    lower("core.queries_per_step", "ratio"),
    lower("core.step_cpu_ns", "ns"),
    lower("core.run_fixed_s", "s"),
    lower("core.phase.init_share", "ratio"),
    lower("core.phase.alias_build_share", "ratio"),
    lower("core.phase.local_compute_share", "ratio"),
    lower("core.phase.exchange_share", "ratio"),
    lower("core.phase.query_round_share", "ratio"),
    lower("core.phase.answer_round_share", "ratio"),
    lower("core.phase.light_mode_share", "ratio"),
    lower("core.phase.finalize_share", "ratio"),
    lower("core.phase.gather_share", "ratio"),
    lower("core.phase.commit_share", "ratio"),
    // cluster
    lower("cluster.exchanges", "count"),
    lower("cluster.msgs_per_step", "ratio"),
    lower("cluster.bytes_per_step", "B/step"),
    lower("cluster.inproc_exchange_ns_per_msg", "ns"),
    lower("cluster.barrier_us", "us"),
    lower("cluster.allreduce_us", "us"),
    // net
    lower("net.wire.encode_ns_per_msg", "ns"),
    lower("net.wire.decode_ns_per_msg", "ns"),
    lower("net.wire.bytes_per_msg", "B"),
    lower("net.frame.write_ns", "ns"),
    lower("net.frame.split_ns", "ns"),
    higher("net.tcp.exchange_mb_s", "MB/s"),
    lower("net.tcp.small_rtt_us", "us"),
    lower("net.tcp.establish_ms", "ms"),
    lower("net.tcp_tax_share", "ratio"),
    // dyn
    lower("dyn.apply_us_per_batch", "us"),
    lower("dyn.row_read_ns.base", "ns"),
    lower("dyn.row_read_ns.overlay", "ns"),
    lower("dyn.materialize_s", "s"),
    lower("dyn.overlay_rows", "count"),
    lower("dyn.compactions", "count"),
    lower("dyn.sampler_rebuilds_per_batch", "ratio"),
    lower("dyn.sampler_rebuild_cost_per_batch", "ratio"),
    lower("dyn.pinned_lag_max", "count"),
    // reactor
    lower("reactor.echo_rtt_us.p50", "us"),
    lower("reactor.echo_rtt_us.p99", "us"),
    lower("reactor.accept_us", "us"),
    // serve (listener, protocol, qos, service)
    lower("serve.min_rtt_us.inproc", "us"),
    lower("serve.min_rtt_us.tcp", "us"),
    lower("serve.protocol.req_encode_ns", "ns"),
    lower("serve.protocol.resp_decode_ns", "ns"),
    lower("serve.resp_bytes_per_req", "B"),
    higher("serve.supersteps_per_s", "1/s"),
    lower("serve.superstep_ms", "ms"),
    higher("serve.admitted_per_superstep", "ratio"),
    lower("serve.queue_len_max", "count"),
    lower("serve.active_walkers_mean", "count"),
    higher("serve.steps_per_s", "steps/s"),
    lower("serve.server_latency_mean_ms", "ms"),
    lower("serve.req_p999_ms", "ms"),
    higher("serve.rate_at_slo_rps", "req/s"),
    lower("serve.update_p50_ms", "ms"),
    lower("serve.update_p99_ms", "ms"),
    lower("serve.shed_share_overload", "ratio"),
    higher("serve.goodput_rps_overload", "req/s"),
    higher("serve.qos.gold_share_overload", "ratio"),
    lower("serve.rss_growth_mb_overload", "MB"),
    lower("serve.span.queue_wait_share", "ratio"),
    lower("serve.span.supersteps_share", "ratio"),
    lower("serve.span.respond_share", "ratio"),
    lower("serve.churn.req_p50_ms.radix", "ms"),
    lower("serve.churn.req_p99_ms.radix", "ms"),
    lower("serve.churn.rebuild_cost_per_batch.radix", "ratio"),
    // obs
    lower("obs.profile_overhead_share", "ratio"),
    lower("obs.trace_overhead_share", "ratio"),
    // loadgen (the harness itself)
    lower("loadgen.late_p99_us", "us"),
    lower("loadgen.sent", "count"),
    lower("loadgen.outstanding_max", "count"),
];

/// Count metrics that must repeat exactly between two runs of one seed.
pub fn is_exact_count(name: &str) -> bool {
    matches!(
        name,
        "core.steps"
            | "core.iterations"
            | "core.trials_per_step"
            | "core.edges_per_step"
            | "core.pre_accept_share"
            | "core.appendix_hit_share"
            | "core.fallback_scans"
            | "core.queries_per_step"
            | "cluster.exchanges"
            | "cluster.msgs_per_step"
            | "cluster.bytes_per_step"
            | "dyn.overlay_rows"
            | "dyn.compactions"
            | "dyn.sampler_rebuilds_per_batch"
            | "dyn.sampler_rebuild_cost_per_batch"
    )
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricSpec, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn declaration_respects_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn phase_metrics_cover_the_phase_names() {
        for p in PHASE_NAMES {
            let name = format!("core.phase.{p}_share");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).expect("valid JSON"),
            manifest(),
            "regenerate with `kk-bench manifest > BENCHMARK.json`"
        );
    }
}
