//! Service-level observability: request counters, latency/queue
//! histograms, and the live metrics plane (per-superstep gauges, a
//! bounded time-series ring, and Prometheus-style text exposition),
//! sharing `knightking-obs`'s histogram type and report schemas so
//! existing profile consumers can ingest them unchanged.

use std::io::{self, Write};

use knightking_core::LiveSample;
use knightking_net::{Wire, WireError};
use knightking_obs::{write_hist_jsonl, BoundedRing, Phase, Pow2Histogram, N_PHASES};

/// Time-series ring capacity: one sample per superstep, so this covers
/// the most recent ~1024 supersteps of a resident service.
pub const SERIES_CAP: usize = 1024;

/// One per-superstep snapshot in the stats time series. `admitted` and
/// `completed` are cumulative (diff successive points for rates);
/// `active_walkers` and `queue_depth` are instantaneous gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesPoint {
    /// Superstep the sample was taken at.
    pub superstep: u64,
    /// Cluster-wide active walker slots.
    pub active_walkers: u64,
    /// Admission-queue depth.
    pub queue_depth: u64,
    /// Requests admitted since service start (cumulative).
    pub admitted: u64,
    /// Requests completed since service start (cumulative).
    pub completed: u64,
}

impl Wire for SeriesPoint {
    fn wire_size(&self) -> usize {
        5 * 8
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.superstep.encode(out)?;
        self.active_walkers.encode(out)?;
        self.queue_depth.encode(out)?;
        self.admitted.encode(out)?;
        self.completed.encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        Ok(SeriesPoint {
            superstep: u64::decode(input)?,
            active_walkers: u64::decode(input)?,
            queue_depth: u64::decode(input)?,
            admitted: u64::decode(input)?,
            completed: u64::decode(input)?,
        })
    }
}

/// Counters and histograms accumulated over a service's lifetime, plus
/// the live gauges the leader refreshes every superstep from the nodes'
/// [`LiveSample`]s.
///
/// Counters move on the leader's control path (once per superstep or per
/// request), never inside the walk itself, so serving stays as fast as
/// batch execution.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Requests completed with `Status::Ok`.
    pub completed: u64,
    /// Requests rejected at submission (queue full or tenant quota).
    pub rejected: u64,
    /// The subset of `rejected` shed by a per-tenant quota while the
    /// global queue still had room.
    pub shed: u64,
    /// Requests force-terminated by deadline expiry.
    pub deadline_exceeded: u64,
    /// Graph update batches validated and scheduled for application.
    pub updates: u64,
    /// Supersteps the driver has polled.
    pub supersteps: u64,
    /// Cluster-wide active walker slots (gauge, refreshed per superstep).
    pub active_walkers: u64,
    /// Admission-queue depth (gauge, refreshed per superstep).
    pub queue_len: u64,
    /// Current graph epoch (gauge; 0 on static graphs).
    pub epoch: u64,
    /// How many epochs behind the current epoch the oldest pinned walker
    /// is (gauge; 0 when nothing is pinned behind).
    pub pinned_lag: u64,
    /// Total walker steps across the cluster (counter).
    pub steps: u64,
    /// Total rejection-sampling trials across the cluster (counter).
    pub trials: u64,
    /// Total remote exchange bytes sent across the cluster (counter).
    pub exchange_bytes: u64,
    /// Sampler versions rebuilt or patched for graph updates (counter).
    pub sampler_rebuilds: u64,
    /// Sampler maintenance cost in entry-edits — degree per O(degree)
    /// rebuild, edges touched per O(log degree) radix point-patch
    /// (counter).
    pub sampler_rebuild_cost: u64,
    /// Cumulative nanoseconds per engine phase across the cluster
    /// (counters; all zeros when the engine was built without `obs`).
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
            admitted: 0,
            completed: 0,
            rejected: 0,
            shed: 0,
            deadline_exceeded: 0,
            updates: 0,
            supersteps: 0,
            active_walkers: 0,
            queue_len: 0,
            epoch: 0,
            pinned_lag: 0,
            steps: 0,
            trials: 0,
            exchange_bytes: 0,
            sampler_rebuilds: 0,
            sampler_rebuild_cost: 0,
            phase_ns: [0; N_PHASES],
            latency_us: Pow2Histogram::new(),
            queue_depth: Pow2Histogram::new(),
            admitted_per_superstep: Pow2Histogram::new(),
            completed_per_superstep: Pow2Histogram::new(),
            series: BoundedRing::new(SERIES_CAP),
        }
    }
}

impl ServeStats {
    /// Folds the latest per-node [`LiveSample`]s into the live gauges and
    /// counters. Samples are cumulative per node, so summing the latest
    /// sample from each node gives exact cluster totals.
    pub fn apply_live(&mut self, nodes: &[LiveSample]) {
        self.active_walkers = nodes.iter().map(|s| s.active).sum();
        self.steps = nodes.iter().map(|s| s.steps).sum();
        self.trials = nodes.iter().map(|s| s.trials).sum();
        self.exchange_bytes = nodes.iter().map(|s| s.exchange_bytes).sum();
        self.sampler_rebuilds = nodes.iter().map(|s| s.sampler_rebuilds).sum();
        self.sampler_rebuild_cost = nodes.iter().map(|s| s.sampler_rebuild_cost).sum();
        for i in 0..N_PHASES {
            self.phase_ns[i] = nodes.iter().map(|s| s.phase_ns[i]).sum();
        }
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
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            shed: self.shed,
            deadline_exceeded: self.deadline_exceeded,
            updates: self.updates,
            supersteps: self.supersteps,
            active_walkers: self.active_walkers,
            queue_len: self.queue_len,
            epoch: self.epoch,
            pinned_lag: self.pinned_lag,
            steps: self.steps,
            trials: self.trials,
            exchange_bytes: self.exchange_bytes,
            sampler_rebuilds: self.sampler_rebuilds,
            sampler_rebuild_cost: self.sampler_rebuild_cost,
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
    /// counter line, one `hist` line per histogram, one `phase_total`
    /// line per engine phase (the `RunProfile` schema, so
    /// `scripts/profile-summary` ingests serve output unchanged), and one
    /// `series` line per retained time-series point.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"serve\",\"admitted\":{},\"completed\":{},\"rejected\":{},\
             \"shed\":{},\"deadline_exceeded\":{},\"updates\":{},\"supersteps\":{},\
             \"active_walkers\":{},\"queue_len\":{},\"epoch\":{},\"pinned_lag\":{},\
             \"steps\":{},\"trials\":{},\"exchange_bytes\":{},\
             \"sampler_rebuilds\":{},\"sampler_rebuild_cost\":{}}}",
            self.admitted,
            self.completed,
            self.rejected,
            self.shed,
            self.deadline_exceeded,
            self.updates,
            self.supersteps,
            self.active_walkers,
            self.queue_len,
            self.epoch,
            self.pinned_lag,
            self.steps,
            self.trials,
            self.exchange_bytes,
            self.sampler_rebuilds,
            self.sampler_rebuild_cost
        )?;
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
            writeln!(
                w,
                "{{\"type\":\"series\",\"superstep\":{},\"active_walkers\":{},\
                 \"queue_depth\":{},\"admitted\":{},\"completed\":{}}}",
                p.superstep, p.active_walkers, p.queue_depth, p.admitted, p.completed
            )?;
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

/// The flat stats snapshot a `Request::Stats` client receives: every
/// counter and gauge plus latency quantiles (interpolated inside their
/// power-of-two bucket) and the recent time series. All-integer so it stays `Eq` and cheap to encode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Requests completed with `Status::Ok`.
    pub completed: u64,
    /// Requests rejected at submission.
    pub rejected: u64,
    /// The subset of `rejected` shed by a per-tenant quota.
    pub shed: u64,
    /// Requests force-terminated by deadline expiry.
    pub deadline_exceeded: u64,
    /// Graph update batches scheduled.
    pub updates: u64,
    /// Supersteps polled.
    pub supersteps: u64,
    /// Cluster-wide active walker slots (gauge).
    pub active_walkers: u64,
    /// Admission-queue depth (gauge).
    pub queue_len: u64,
    /// Current graph epoch (gauge).
    pub epoch: u64,
    /// Epoch lag of the oldest pinned walker (gauge).
    pub pinned_lag: u64,
    /// Total walker steps (counter).
    pub steps: u64,
    /// Total sampler trials (counter).
    pub trials: u64,
    /// Total exchange bytes sent (counter).
    pub exchange_bytes: u64,
    /// Sampler versions rebuilt or patched for graph updates (counter).
    pub sampler_rebuilds: u64,
    /// Sampler maintenance cost in entry-edits (counter): degree per
    /// rebuild, edges touched per radix point-patch.
    pub sampler_rebuild_cost: u64,
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

impl Wire for TenantStat {
    fn wire_size(&self) -> usize {
        4 + self.name.len() + 4 + 5 * 8
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        (self.name.len() as u32).encode(out)?;
        out.extend_from_slice(self.name.as_bytes());
        self.weight.encode(out)?;
        self.queued.encode(out)?;
        self.admitted.encode(out)?;
        self.completed.encode(out)?;
        self.rejected.encode(out)?;
        self.shed.encode(out)
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
        Ok(TenantStat {
            name,
            weight: u32::decode(input)?,
            queued: u64::decode(input)?,
            admitted: u64::decode(input)?,
            completed: u64::decode(input)?,
            rejected: u64::decode(input)?,
            shed: u64::decode(input)?,
        })
    }
}

impl StatsReport {
    /// The scalar fields in schema order, paired with their names —
    /// single source of truth for the wire codec.
    fn scalars(&self) -> [u64; 23] {
        [
            self.admitted,
            self.completed,
            self.rejected,
            self.shed,
            self.deadline_exceeded,
            self.updates,
            self.supersteps,
            self.active_walkers,
            self.queue_len,
            self.epoch,
            self.pinned_lag,
            self.steps,
            self.trials,
            self.exchange_bytes,
            self.sampler_rebuilds,
            self.sampler_rebuild_cost,
            self.latency_p50_us,
            self.latency_p99_us,
            self.latency_max_us,
            self.latency_count,
            self.latency_sum_us,
            self.spans,
            self.spans_dropped,
        ]
    }

    /// Renders the Prometheus text exposition format (0.0.4) served on
    /// `kk serve --metrics-addr`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let counters: [(&str, u64); 12] = [
            ("kk_requests_admitted_total", self.admitted),
            ("kk_requests_completed_total", self.completed),
            ("kk_requests_rejected_total", self.rejected),
            ("kk_requests_shed_total", self.shed),
            (
                "kk_requests_deadline_exceeded_total",
                self.deadline_exceeded,
            ),
            ("kk_updates_total", self.updates),
            ("kk_supersteps_total", self.supersteps),
            ("kk_walker_steps_total", self.steps),
            ("kk_sampler_trials_total", self.trials),
            ("kk_exchange_bytes_total", self.exchange_bytes),
            ("kk_sampler_rebuilds_total", self.sampler_rebuilds),
            ("kk_sampler_rebuild_cost_total", self.sampler_rebuild_cost),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        let _ = writeln!(out, "# TYPE kk_phase_ns_total counter");
        for phase in Phase::ALL {
            let _ = writeln!(
                out,
                "kk_phase_ns_total{{phase=\"{}\"}} {}",
                phase.name(),
                self.phase_ns[phase.index()]
            );
        }
        let gauges: [(&str, u64); 4] = [
            ("kk_active_walkers", self.active_walkers),
            ("kk_queue_depth", self.queue_len),
            ("kk_epoch", self.epoch),
            ("kk_pinned_epoch_lag", self.pinned_lag),
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
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

impl Wire for StatsReport {
    fn wire_size(&self) -> usize {
        8 * (23 + N_PHASES) + self.series.wire_size() + self.tenants.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        for v in self.scalars() {
            v.encode(out)?;
        }
        for ns in &self.phase_ns {
            ns.encode(out)?;
        }
        self.series.encode(out)?;
        self.tenants.encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        let mut scalars = [0u64; 23];
        for v in &mut scalars {
            *v = u64::decode(input)?;
        }
        let mut phase_ns = [0u64; N_PHASES];
        for ns in &mut phase_ns {
            *ns = u64::decode(input)?;
        }
        let [admitted, completed, rejected, shed, deadline_exceeded, updates, supersteps, active_walkers, queue_len, epoch, pinned_lag, steps, trials, exchange_bytes, sampler_rebuilds, sampler_rebuild_cost, latency_p50_us, latency_p99_us, latency_max_us, latency_count, latency_sum_us, spans, spans_dropped] =
            scalars;
        Ok(StatsReport {
            admitted,
            completed,
            rejected,
            shed,
            deadline_exceeded,
            updates,
            supersteps,
            active_walkers,
            queue_len,
            epoch,
            pinned_lag,
            steps,
            trials,
            exchange_bytes,
            sampler_rebuilds,
            sampler_rebuild_cost,
            latency_p50_us,
            latency_p99_us,
            latency_max_us,
            latency_count,
            latency_sum_us,
            spans,
            spans_dropped,
            phase_ns,
            series: Vec::decode(input)?,
            tenants: Vec::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_net::{from_bytes, to_bytes};

    fn sample() -> ServeStats {
        let mut s = ServeStats {
            admitted: 10,
            completed: 8,
            rejected: 1,
            deadline_exceeded: 1,
            supersteps: 40,
            sampler_rebuilds: 6,
            sampler_rebuild_cost: 48,
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

    /// Stitched execution was removed; no sink may still expose one of
    /// its counters under any name.
    fn assert_no_stitch_names(text: &str) {
        for gone in ["stitch", "spliced"] {
            assert!(!text.contains(gone), "{gone:?} still exposed in:\n{text}");
        }
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
        assert_no_stitch_names(&text);
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
        s.apply_live(&[a, b]);
        assert_eq!(s.active_walkers, 5);
        assert_eq!(s.steps, 150);
        assert_eq!(s.trials, 50);
        assert_eq!(s.exchange_bytes, 1200);
        assert_eq!(s.sampler_rebuilds, 5);
        assert_eq!(s.sampler_rebuild_cost, 72);
        assert_eq!(s.phase_ns[0], 11);
        assert_eq!(s.phase_ns[3], 33);
        // Re-applying newer samples replaces, not double-counts.
        s.apply_live(&[a, b]);
        assert_eq!(s.steps, 150);
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
    fn stats_report_round_trips_on_the_wire() {
        let r = sample().report(7, 2);
        let bytes = to_bytes(&r).unwrap();
        assert_eq!(bytes.len(), r.wire_size());
        let back: StatsReport = from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn tenant_stats_round_trip_and_render() {
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
        let bytes = to_bytes(&r).unwrap();
        assert_eq!(bytes.len(), r.wire_size());
        let back: StatsReport = from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        let text = r.render_prometheus();
        assert!(text.contains("kk_requests_shed_total 3"));
        assert!(text.contains("kk_tenant_queue_depth{tenant=\"default\"} 2"));
        assert!(text.contains("kk_tenant_admitted_total{tenant=\"pro\"} 9"));
        assert!(text.contains("kk_tenant_shed_total{tenant=\"pro\"} 3"));
    }

    #[test]
    fn prometheus_exposition_has_the_documented_metric_set() {
        let text = sample().report(7, 2).render_prometheus();
        for name in [
            "kk_requests_admitted_total",
            "kk_requests_completed_total",
            "kk_requests_rejected_total",
            "kk_requests_deadline_exceeded_total",
            "kk_updates_total",
            "kk_supersteps_total",
            "kk_walker_steps_total",
            "kk_sampler_trials_total",
            "kk_exchange_bytes_total",
            "kk_sampler_rebuilds_total",
            "kk_sampler_rebuild_cost_total",
            "kk_phase_ns_total{phase=\"exchange\"}",
            "kk_active_walkers",
            "kk_queue_depth",
            "kk_epoch",
            "kk_pinned_epoch_lag",
            "kk_request_latency_us{quantile=\"0.5\"}",
            "kk_request_latency_us{quantile=\"0.99\"}",
            "kk_trace_spans_total",
            "kk_trace_spans_dropped_total",
        ] {
            assert!(text.contains(name), "missing metric {name} in:\n{text}");
        }
        assert_no_stitch_names(&text);
        // Every non-comment line is `name[{labels}] value`.
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
