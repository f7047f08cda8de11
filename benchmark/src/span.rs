//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto). Nothing here reaches
//! inside a crate: a span brackets a public call. A disabled tracer
//! (the untraced `run`) records nothing.

use std::time::Instant;

use crate::json::Json;

/// Index of a span in its tracer; `ROOT` parents top-level spans.
pub type SpanId = usize;
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share this identifier; 0 for spans that
    /// belong to no request.
    pub request_id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` taken by a workload into tracer time.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request_id: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled && id != ROOT {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a child of `parent`.
    pub fn scope<R>(
        &mut self,
        name: &str,
        parent: SpanId,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let r = f(self, id);
        self.end(id);
        r
    }

    /// Records a span whose endpoints were measured elsewhere (another
    /// thread, or the load generator's per-request timestamps).
    pub fn record(
        &mut self,
        name: &str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        request_id: u64,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover (children may overlap each other — two ranks run
    /// side by side — so the covered part is the union of their
    /// intervals). Indexed like [`spans`](Tracer::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = self.spans.get(c.parent) {
                let (a, b) = (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns));
                if b > a {
                    kids[c.parent].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed by span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64)> {
        let mut by: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by.entry(&s.name).or_default() += t;
        }
        let mut by: Vec<(String, u64)> = by.into_iter().map(|(n, t)| (n.to_string(), t)).collect();
        by.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        by
    }

    /// Chrome trace-event JSON. Each top-level span and its descendants
    /// share a lane, except request spans, which get a lane per
    /// connection-independent request slot so concurrent requests stack.
    pub fn chrome_json(&self) -> Json {
        let self_times = self.self_times();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(self.lane(id) as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                if s.parent == ROOT {
                                    Json::Null
                                } else {
                                    Json::Num(s.parent as f64)
                                },
                            ),
                            ("request_id", Json::Num(s.request_id as f64)),
                            ("self_us", Json::Num(self_times[id] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    fn lane(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        if s.request_id != 0 {
            // 64 request lanes above the structural ones.
            return 100 + s.request_id % 64;
        }
        // Side-by-side ranks name their lane in the span name.
        match s.name.strip_prefix("rank").and_then(|r| r.chars().next()) {
            Some(c) if c.is_ascii_digit() => 1 + c.to_digit(10).unwrap_or(0) as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record("root", ROOT, 0, 100, 0);
        // Two overlapping children cover [10, 60).
        t.record("a", root, 10, 50, 0);
        t.record("b", root, 30, 60, 0);
        let c = t.record("c", root, 70, 80, 0);
        t.record("c.inner", c, 72, 75, 0);
        assert_eq!(t.self_times()[root], 100 - 50 - 10);
        assert_eq!(t.self_times()[c], 7);
        let total: u64 = t.self_time_by_name().iter().map(|(_, ns)| ns).sum();
        // Overlap is counted in both overlapping children.
        assert_eq!(total, 40 + 40 + 30 + 7 + 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT);
        t.end(id);
        t.record("y", ROOT, 0, 1, 7);
        assert!(t.spans().is_empty());
    }
}
