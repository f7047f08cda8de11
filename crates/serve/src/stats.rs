//! Service-level observability: request counters, latency/queue
//! histograms, and the live metrics plane (per-superstep gauges, a
//! bounded time-series ring, and Prometheus-style text exposition),
//! sharing `knightking-obs`'s histogram type and report schemas so
//! existing profile consumers can ingest them unchanged.
//!
//! Every scalar is declared **once**, in a `metric_set!` table; codecs,
//! JSONL keys, Prometheus names and `# HELP` lines are loops over it, so
//! a new metric is one declaration line plus its increment site. Only
//! the two human layouts (table, dashboard) pick fields by name.

use std::io::{self, Write};
use std::ops::{Deref, DerefMut};

use knightking_core::LiveSample;
use knightking_net::{metric_set, wire_struct, Metric, MetricKind, Wire, WireError};
use knightking_obs::{write_hist_jsonl, BoundedRing, Phase, Pow2Histogram, N_PHASES};

/// Time-series ring capacity: one sample per superstep, so this covers
/// the most recent ~1024 supersteps of a resident service.
pub const SERIES_CAP: usize = 1024;

metric_set! {
    /// One per-superstep snapshot in the stats time series, taken by the
    /// leader (nothing merges across nodes, hence `max` throughout).
    /// `admitted` and `completed` are cumulative (diff successive points
    /// for rates); `active_walkers` and `queue_depth` are instantaneous.
    #[derive(Copy)]
    pub struct SeriesPoint {
        /// Superstep the sample was taken at.
        counter max superstep,
        /// Cluster-wide active walker slots.
        gauge max active_walkers,
        /// Admission-queue depth.
        gauge max queue_depth,
        /// Requests admitted since service start (cumulative).
        counter max admitted,
        /// Requests completed since service start (cumulative).
        counter max completed,
    }
}

metric_set! {
    /// The scalar counters and gauges of a service, carried by both
    /// [`ServeStats`] (where the leader updates them) and [`StatsReport`]
    /// (what a client receives). Declaration order is the KKSV wire
    /// order and the JSONL key order; the name after `=>` is the
    /// Prometheus name.
    ///
    /// Counters move on the leader's control path (once per superstep or
    /// per request), never inside the walk itself, so serving stays as
    /// fast as batch execution. The six a node owns arrive in its
    /// [`LiveSample`], matched by exported name.
    #[derive(Copy)]
    pub struct ServeCounters {
        /// Requests admitted into the engine.
        counter sum admitted => "kk_requests_admitted_total",
        /// Requests completed with an Ok status.
        counter sum completed => "kk_requests_completed_total",
        /// Requests rejected at submission (queue full or tenant quota).
        counter sum rejected => "kk_requests_rejected_total",
        /// The subset of rejected requests shed by a per-tenant quota while
        /// the global queue still had room.
        counter sum shed => "kk_requests_shed_total",
        /// Requests force-terminated by deadline expiry.
        counter sum deadline_exceeded => "kk_requests_deadline_exceeded_total",
        /// Graph update batches validated and scheduled for application.
        counter sum updates => "kk_updates_total",
        /// Supersteps the driver polled with work in flight or queued.
        counter max supersteps => "kk_supersteps_total",
        /// Cluster-wide active walker slots, refreshed per superstep.
        gauge sum active_walkers => "kk_active_walkers",
        /// Admission-queue depth, refreshed per superstep.
        gauge max queue_len => "kk_queue_depth",
        /// Current graph epoch (0 on static graphs).
        gauge max epoch => "kk_epoch",
        /// How many epochs behind the current epoch the oldest pinned
        /// walker is (0 when nothing is pinned behind).
        gauge max pinned_lag => "kk_pinned_epoch_lag",
        /// Walker steps taken across the cluster.
        counter sum steps => "kk_walker_steps_total",
        /// Rejection-sampling trials across the cluster.
        counter sum trials => "kk_sampler_trials_total",
        /// Remote exchange bytes sent across the cluster.
        counter sum exchange_bytes => "kk_exchange_bytes_total",
        /// Sampler versions rebuilt or patched for graph updates.
        counter sum sampler_rebuilds => "kk_sampler_rebuilds_total",
        /// Sampler maintenance cost in entry-edits: degree per O(degree)
        /// rebuild, edges touched per O(log degree) radix point-patch.
        counter sum sampler_rebuild_cost => "kk_sampler_rebuild_cost_total",
    }
}

/// Writes `{"type":"<kind>","<field>":<value>,..}`, one key per metric.
fn write_metrics_jsonl<W: Write>(w: &mut W, kind: &str, metrics: &[Metric]) -> io::Result<()> {
    write!(w, "{{\"type\":\"{kind}\"")?;
    for m in metrics {
        write!(w, ",\"{}\":{}", m.name, m.value)?;
    }
    writeln!(w, "}}")
}

/// Counters and histograms accumulated over a service's lifetime, plus
/// the live gauges the leader refreshes every superstep from the nodes'
/// [`LiveSample`]s.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The scalar counters and gauges. `ServeStats` derefs to them, so
    /// `stats.admitted += 1` is the increment site.
    pub counters: ServeCounters,
    /// Cumulative nanoseconds per engine phase across the cluster
    /// (all zeros unless the service profiles, i.e. exposes metrics).
    pub phase_ns: [u64; N_PHASES],
    /// End-to-end request latency (queue entry → response), microseconds.
    pub latency_us: Pow2Histogram,
    /// Admission-queue depth sampled once per superstep.
    pub queue_depth: Pow2Histogram,
    /// Requests admitted per superstep.
    pub admitted_per_superstep: Pow2Histogram,
    /// Requests completed per superstep.
    pub completed_per_superstep: Pow2Histogram,
    /// Per-superstep snapshots, bounded (oldest overwritten).
    pub series: BoundedRing<SeriesPoint>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            counters: ServeCounters::default(),
            phase_ns: [0; N_PHASES],
            latency_us: Pow2Histogram::new(),
            queue_depth: Pow2Histogram::new(),
            admitted_per_superstep: Pow2Histogram::new(),
            completed_per_superstep: Pow2Histogram::new(),
            series: BoundedRing::new(SERIES_CAP),
        }
    }
}

impl Deref for ServeStats {
    type Target = ServeCounters;
    fn deref(&self) -> &ServeCounters {
        &self.counters
    }
}

impl DerefMut for ServeStats {
    fn deref_mut(&mut self) -> &mut ServeCounters {
        &mut self.counters
    }
}

impl ServeStats {
    /// Folds the latest per-node [`LiveSample`]s into the live gauges and
    /// counters. Samples are cumulative per node, so merging the latest
    /// sample from each node gives exact cluster totals; each merged
    /// metric lands in the counter declared under the same exported name.
    pub fn apply_live(&mut self, nodes: &[LiveSample]) {
        let mut total = LiveSample::default();
        for s in nodes {
            total.merge(s);
        }
        for m in total.metrics() {
            let declared = self.counters.set(m.export, m.value);
            assert!(declared, "ServeCounters declares no {}", m.export);
        }
        self.phase_ns = std::array::from_fn(|i| nodes.iter().map(|s| s.phase_ns[i]).sum());
    }

    /// The histograms with their report names.
    pub fn histograms(&self) -> [(&'static str, &Pow2Histogram); 4] {
        [
            ("request_latency_us", &self.latency_us),
            ("queue_depth", &self.queue_depth),
            ("admitted_per_superstep", &self.admitted_per_superstep),
            ("completed_per_superstep", &self.completed_per_superstep),
        ]
    }

    /// Builds the flat snapshot served to `Request::Stats` clients.
    /// `spans`/`spans_dropped` come from the service's trace log (the
    /// stats themselves don't own it).
    pub fn report(&self, spans: u64, spans_dropped: u64) -> StatsReport {
        StatsReport {
            counters: self.counters,
            latency_p50_us: self.latency_us.quantile(0.5),
            latency_p99_us: self.latency_us.quantile(0.99),
            latency_max_us: self.latency_us.max(),
            latency_count: self.latency_us.count(),
            latency_sum_us: self.latency_us.sum(),
            spans,
            spans_dropped,
            phase_ns: self.phase_ns,
            series: self.series.to_vec(),
            // Per-tenant counters live behind the queue lock, not here;
            // `ServiceHandle::report` fills them in.
            tenants: Vec::new(),
        }
    }

    /// Writes the machine-readable JSON-lines rendering: one `serve`
    /// line (a key per [`ServeCounters`] field), one `hist` line per
    /// histogram, one `phase_total` line per engine phase (the
    /// `RunProfile` schema, so `scripts/profile-summary` ingests serve
    /// output unchanged), and one `series` line per retained time-series
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_metrics_jsonl(w, "serve", &self.counters.metrics())?;
        for (name, h) in self.histograms() {
            write_hist_jsonl(w, 0, name, h)?;
        }
        for phase in Phase::ALL {
            writeln!(
                w,
                "{{\"type\":\"phase_total\",\"node\":0,\"phase\":\"{}\",\"ns\":{},\"count\":{}}}",
                phase.name(),
                self.phase_ns[phase.index()],
                self.supersteps
            )?;
        }
        for p in self.series.iter() {
            write_metrics_jsonl(w, "series", &p.metrics())?;
        }
        Ok(())
    }

    /// Renders a human-readable summary table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: {} admitted, {} completed, {} rejected ({} quota-shed), \
             {} deadline-exceeded, {} updates over {} supersteps",
            self.admitted,
            self.completed,
            self.rejected,
            self.shed,
            self.deadline_exceeded,
            self.updates,
            self.supersteps
        );
        let _ = writeln!(
            out,
            "  live: {} active walkers, queue {} deep, epoch {} (pin lag {}), \
             {} steps, {} exchange bytes",
            self.active_walkers,
            self.queue_len,
            self.epoch,
            self.pinned_lag,
            self.steps,
            self.exchange_bytes
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p99", "max"
        );
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            );
        }
        out
    }
}

wire_struct! {
    /// The flat stats snapshot a `Request::Stats` client receives: every
    /// counter and gauge plus latency quantiles (interpolated inside their
    /// power-of-two bucket) and the recent time series. All-integer so it
    /// stays `Eq` and cheap to encode; the fields below are the KKSV wire
    /// layout, in order.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatsReport {
        /// The service's counters and gauges. `StatsReport` derefs to
        /// them, so `report.admitted`, `report.steps`, … read by name.
        pub counters: ServeCounters,
        /// Request latency p50 in microseconds, interpolated inside its
        /// histogram bucket.
        pub latency_p50_us: u64,
        /// Request latency p99 in microseconds, interpolated inside its
        /// histogram bucket.
        pub latency_p99_us: u64,
        /// Largest observed request latency, microseconds.
        pub latency_max_us: u64,
        /// Latency observations recorded.
        pub latency_count: u64,
        /// Sum of recorded latencies, microseconds.
        pub latency_sum_us: u64,
        /// Span events retained in the trace log.
        pub spans: u64,
        /// Span events dropped because the trace log was full.
        pub spans_dropped: u64,
        /// Cumulative nanoseconds per engine phase.
        pub phase_ns: [u64; N_PHASES],
        /// Recent per-superstep snapshots, oldest first.
        pub series: Vec<SeriesPoint>,
        /// Per-tenant queue/fairness counters, sorted by tenant name.
        pub tenants: Vec<TenantStat>,
    }
}

impl Deref for StatsReport {
    type Target = ServeCounters;
    fn deref(&self) -> &ServeCounters {
        &self.counters
    }
}

impl DerefMut for StatsReport {
    fn deref_mut(&mut self) -> &mut ServeCounters {
        &mut self.counters
    }
}

/// One tenant's slice of the admission queue: its configured weight,
/// instantaneous lane depth, and cumulative outcome counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStat {
    /// Tenant id from the client hello.
    pub name: String,
    /// Fair-queueing weight (deficit round-robin replenishment scale).
    pub weight: u32,
    /// Requests waiting in this tenant's lane (gauge).
    pub queued: u64,
    /// Requests handed to the engine (cumulative).
    pub admitted: u64,
    /// Requests completed with `Status::Ok` (cumulative).
    pub completed: u64,
    /// Requests rejected at submission, quota and queue-full alike
    /// (cumulative).
    pub rejected: u64,
    /// The subset of `rejected` shed by this tenant's quota (cumulative).
    pub shed: u64,
}

impl TenantStat {
    /// The five `u64`s that follow the weight on the wire, in order.
    fn tail(&self) -> [u64; 5] {
        [
            self.queued,
            self.admitted,
            self.completed,
            self.rejected,
            self.shed,
        ]
    }
}

/// Hand-written because it validates: the name is length-checked UTF-8.
impl Wire for TenantStat {
    fn wire_size(&self) -> usize {
        4 + self.name.len() + self.weight.wire_size() + self.tail().wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        (self.name.len() as u32).encode(out)?;
        out.extend_from_slice(self.name.as_bytes());
        self.weight.encode(out)?;
        self.tail().encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        let len = u32::decode(input)? as usize;
        if input.len() < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "wire: truncated tenant name",
            ));
        }
        let (head, tail) = input.split_at(len);
        let name = String::from_utf8(head.to_vec()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "wire: tenant name not UTF-8")
        })?;
        *input = tail;
        let weight = u32::decode(input)?;
        let [queued, admitted, completed, rejected, shed] = <[u64; 5]>::decode(input)?;
        Ok(TenantStat {
            name,
            weight,
            queued,
            admitted,
            completed,
            rejected,
            shed,
        })
    }
}

impl StatsReport {
    /// Renders the Prometheus text exposition format (0.0.4) served on
    /// `kk serve --metrics-addr`. The declared counters and gauges carry
    /// their doc comment as `# HELP`; `tests/golden/metric_set.txt` pins
    /// the whole exposed set.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let declared = self.counters.metrics();
        let of_kind = |out: &mut String, kind: MetricKind| {
            for m in declared.iter().filter(|m| m.kind == kind) {
                let (name, kind) = (m.export, kind.name());
                let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", m.help);
                let _ = writeln!(out, "{name} {}", m.value);
            }
        };
        of_kind(&mut out, MetricKind::Counter);
        let _ = writeln!(out, "# TYPE kk_phase_ns_total counter");
        for phase in Phase::ALL {
            let _ = writeln!(
                out,
                "kk_phase_ns_total{{phase=\"{}\"}} {}",
                phase.name(),
                self.phase_ns[phase.index()]
            );
        }
        of_kind(&mut out, MetricKind::Gauge);
        let _ = writeln!(out, "# TYPE kk_request_latency_us summary");
        let _ = writeln!(
            out,
            "kk_request_latency_us{{quantile=\"0.5\"}} {}",
            self.latency_p50_us
        );
        let _ = writeln!(
            out,
            "kk_request_latency_us{{quantile=\"0.99\"}} {}",
            self.latency_p99_us
        );
        let _ = writeln!(out, "kk_request_latency_us_sum {}", self.latency_sum_us);
        let _ = writeln!(out, "kk_request_latency_us_count {}", self.latency_count);
        let _ = writeln!(
            out,
            "# TYPE kk_trace_spans_total counter\nkk_trace_spans_total {}",
            self.spans
        );
        let _ = writeln!(
            out,
            "# TYPE kk_trace_spans_dropped_total counter\nkk_trace_spans_dropped_total {}",
            self.spans_dropped
        );
        if !self.tenants.is_empty() {
            type TenantCol = (&'static str, &'static str, fn(&TenantStat) -> u64);
            let per_tenant: [TenantCol; 5] = [
                ("kk_tenant_queue_depth", "gauge", |t| t.queued),
                ("kk_tenant_admitted_total", "counter", |t| t.admitted),
                ("kk_tenant_completed_total", "counter", |t| t.completed),
                ("kk_tenant_rejected_total", "counter", |t| t.rejected),
                ("kk_tenant_shed_total", "counter", |t| t.shed),
            ];
            for (name, kind, get) in per_tenant {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for t in &self.tenants {
                    let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", t.name, get(t));
                }
            }
        }
        out
    }

    /// Renders one frame of the `kk top` terminal dashboard.
    pub fn render_dashboard(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kk top — superstep {}  epoch {}  pin-lag {}",
            self.supersteps, self.epoch, self.pinned_lag
        );
        let _ = writeln!(
            out,
            "  requests   {:>10} admitted  {:>10} completed  {:>8} rejected  {:>8} killed",
            self.admitted, self.completed, self.rejected, self.deadline_exceeded
        );
        let _ = writeln!(
            out,
            "  latency    p50 {:>8} µs   p99 {:>8} µs   max {:>8} µs   ({} requests)",
            self.latency_p50_us, self.latency_p99_us, self.latency_max_us, self.latency_count
        );
        let _ = writeln!(
            out,
            "  live       {:>10} active walkers   {:>6} queued   {:>12} steps   {:>12} xchg bytes",
            self.active_walkers, self.queue_len, self.steps, self.exchange_bytes
        );
        let _ = writeln!(
            out,
            "  traces     {:>10} spans ({} dropped)   {} updates applied",
            self.spans, self.spans_dropped, self.updates
        );
        let _ = writeln!(
            out,
            "  sampler    {:>10} rebuilds   {:>12} entry-edits   ({:.1} edits/rebuild)",
            self.sampler_rebuilds,
            self.sampler_rebuild_cost,
            if self.sampler_rebuilds == 0 {
                0.0
            } else {
                self.sampler_rebuild_cost as f64 / self.sampler_rebuilds as f64
            }
        );
        let total_ns: u64 = self.phase_ns.iter().sum();
        if total_ns > 0 {
            let _ = writeln!(out, "  phase breakdown:");
            let mut phases: Vec<(&'static str, u64)> = Phase::ALL
                .iter()
                .map(|p| (p.name(), self.phase_ns[p.index()]))
                .filter(|&(_, ns)| ns > 0)
                .collect();
            phases.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            for (name, ns) in phases {
                let _ = writeln!(
                    out,
                    "    {:<16} {:>12} ns  {:>5.1}%",
                    name,
                    ns,
                    100.0 * ns as f64 / total_ns as f64
                );
            }
        }
        // Sparkline over the most recent active-walker samples.
        if !self.series.is_empty() {
            const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
            let tail: Vec<&SeriesPoint> = self.series.iter().rev().take(60).rev().collect();
            let peak = tail.iter().map(|p| p.active_walkers).max().unwrap_or(0);
            let mut line = String::new();
            for p in &tail {
                let scaled = (p.active_walkers * (BARS.len() as u64 - 1)) + peak / 2;
                let idx = scaled.checked_div(peak).unwrap_or(0);
                line.push(BARS[idx as usize]);
            }
            let _ = writeln!(out, "  active     {line}  (peak {peak})");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeStats {
        let mut s = ServeStats {
            counters: ServeCounters {
                admitted: 10,
                completed: 8,
                rejected: 1,
                deadline_exceeded: 1,
                supersteps: 40,
                sampler_rebuilds: 6,
                sampler_rebuild_cost: 48,
                ..ServeCounters::default()
            },
            ..ServeStats::default()
        };
        for v in [100, 200, 5000] {
            s.latency_us.record(v);
        }
        s.queue_depth.record(3);
        s.admitted_per_superstep.record(1);
        s.completed_per_superstep.record(0);
        s.series.push(SeriesPoint {
            superstep: 39,
            active_walkers: 12,
            queue_depth: 3,
            admitted: 10,
            completed: 8,
        });
        s
    }

    #[test]
    fn jsonl_lines_are_balanced_objects() {
        let mut buf = Vec::new();
        sample().write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
            let open = line.matches(['{', '[']).count();
            let close = line.matches(['}', ']']).count();
            assert_eq!(open, close, "unbalanced: {line}");
        }
        assert!(text.contains("\"type\":\"serve\""));
        assert!(text.contains("\"sampler_rebuilds\":6"));
        assert!(text.contains("\"sampler_rebuild_cost\":48"));
        assert!(text.contains("\"name\":\"request_latency_us\""));
        assert!(text.contains("\"name\":\"queue_depth\""));
        assert!(text.contains("\"type\":\"series\""));
        assert!(text.contains("\"type\":\"phase_total\""));
    }

    #[test]
    fn table_mentions_counters_and_histograms() {
        let t = sample().render_table();
        assert!(t.contains("10 admitted"));
        assert!(t.contains("request_latency_us"));
        assert!(t.contains("p99"));
    }

    /// Every metric a node samples lands, summed over nodes, in the
    /// counter `ServeCounters` declares under the same exported name —
    /// checked through the declarations, not field by field.
    #[test]
    fn apply_live_sums_cumulative_node_samples() {
        let mut s = ServeStats::default();
        let a = LiveSample {
            active: 3,
            steps: 100,
            trials: 40,
            exchange_bytes: 1000,
            sampler_rebuilds: 4,
            sampler_rebuild_cost: 64,
            phase_ns: [10, 0, 20, 30, 0, 0, 0, 5, 1],
        };
        let b = LiveSample {
            active: 2,
            steps: 50,
            trials: 10,
            exchange_bytes: 200,
            sampler_rebuilds: 1,
            sampler_rebuild_cost: 8,
            phase_ns: [1, 0, 2, 3, 0, 0, 0, 4, 1],
        };
        // Re-applying newer samples replaces, not double-counts.
        for _ in 0..2 {
            s.apply_live(&[a, b]);
            let folded = s.counters.metrics();
            for (ma, mb) in a.metrics().into_iter().zip(b.metrics()) {
                let got = folded.iter().find(|m| m.export == ma.export).unwrap();
                assert_eq!(got.value, ma.value + mb.value, "{}", ma.export);
            }
            assert_eq!(s.phase_ns, [11, 0, 22, 33, 0, 0, 0, 9, 2]);
        }
        assert_eq!(s.active_walkers, 5);
    }

    #[test]
    fn report_snapshots_quantiles_and_series() {
        let s = sample();
        let r = s.report(7, 2);
        assert_eq!(r.admitted, 10);
        assert_eq!(r.latency_count, 3);
        assert_eq!(r.latency_max_us, 5000);
        // 200 is alone in [128, 255]; 5000 tops [4096, 8191], whose range
        // is clamped to the observed max.
        assert_eq!(r.latency_p50_us, 255);
        assert_eq!(r.latency_p99_us, 5000);
        assert_eq!(r.spans, 7);
        assert_eq!(r.spans_dropped, 2);
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].active_walkers, 12);
    }

    /// A latency population inside one power-of-two bucket reports where
    /// it sits in the bucket, not the bucket's upper bound (2 047 µs for a
    /// 1.06 ms median, before quantiles interpolated).
    #[test]
    fn report_quantiles_resolve_inside_a_bucket() {
        let mut s = ServeStats::default();
        for v in 1030..1090 {
            s.latency_us.record(v);
        }
        let r = s.report(0, 0);
        assert_eq!(r.latency_p50_us, 1059);
        assert_eq!(r.latency_p99_us, 1089);
        let text = r.render_prometheus();
        assert!(text.contains("kk_request_latency_us{quantile=\"0.5\"} 1059"));
    }

    #[test]
    fn report_quantiles_on_empty_stats_are_zero() {
        let r = ServeStats::default().report(0, 0);
        assert_eq!(r.latency_p50_us, 0);
        assert_eq!(r.latency_p99_us, 0);
        assert_eq!(r.latency_max_us, 0);
        assert_eq!(r.latency_count, 0);
        assert!(r.series.is_empty());
    }

    #[test]
    fn tenant_stats_render() {
        let mut r = sample().report(7, 2);
        r.shed = 3;
        r.tenants = vec![
            TenantStat {
                name: "default".into(),
                weight: 1,
                queued: 2,
                admitted: 5,
                completed: 4,
                rejected: 1,
                shed: 0,
            },
            TenantStat {
                name: "pro".into(),
                weight: 4,
                queued: 0,
                admitted: 9,
                completed: 9,
                rejected: 3,
                shed: 3,
            },
        ];
        let text = r.render_prometheus();
        assert!(text.contains("kk_requests_shed_total 3"));
        assert!(text.contains("kk_tenant_queue_depth{tenant=\"default\"} 2"));
        assert!(text.contains("kk_tenant_admitted_total{tenant=\"pro\"} 9"));
        assert!(text.contains("kk_tenant_shed_total{tenant=\"pro\"} 3"));
    }

    /// What a fresh service exposes — its whole Prometheus text, then its
    /// whole `--stats-output` JSONL — is the committed golden: the one
    /// list CI compares a live scrape with and the docs link to. A metric
    /// added to a declaration shows up here; paste the left side into the
    /// file to accept it.
    #[test]
    fn prometheus_exposition_has_the_documented_metric_set() {
        let mut exposed = StatsReport::default().render_prometheus().into_bytes();
        ServeStats::default().write_jsonl(&mut exposed).unwrap();
        let exposed = String::from_utf8(exposed).unwrap();
        assert_eq!(exposed, include_str!("../tests/golden/metric_set.txt"));
        // With values in: every non-comment line is `name[{labels}] value`.
        let text = sample().report(7, 2).render_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<u64>().is_ok(), "bad value in line: {line}");
        }
    }

    #[test]
    fn dashboard_renders_without_panicking_on_empty_and_full() {
        let empty = StatsReport::default().render_dashboard();
        assert!(empty.contains("kk top"));
        let mut s = sample();
        s.phase_ns = [5, 0, 100, 40, 0, 0, 0, 1, 2];
        for i in 0..200 {
            s.series.push(SeriesPoint {
                superstep: 40 + i,
                active_walkers: i % 17,
                queue_depth: 1,
                admitted: 10 + i,
                completed: 8 + i,
            });
        }
        let full = s.report(3, 0).render_dashboard();
        assert!(full.contains("phase breakdown"));
        assert!(full.contains("local_compute"));
        assert!(full.contains("peak 16"));
    }
}
