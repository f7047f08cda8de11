//! What one run of one workload produces: metric rows, the failure
//! count, and the correctness verdict — printed as human-readable rows,
//! written as a JSON file, and closed by the one-line result object the
//! acceptance driver reads.

use crate::json::Json;
use crate::span::Tracer;
use crate::spec::{self, MetricSpec};
use crate::stats::{Samples, Summary};

pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub summary: Summary,
    /// Why a per-layer metric reads 0 on this workload, if it does.
    pub na: Option<&'static str>,
}

/// Run-wide state threaded through a workload.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run: per-layer metrics and spans instead of the
    /// end-to-end metrics.
    pub traced: bool,
    /// Smoke-test shapes (scale 12, short windows); never used for
    /// numbers anyone compares.
    pub quick: bool,
    pub tracer: Tracer,
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Self {
        Ctx {
            workload,
            seed,
            seconds,
            traced,
            quick,
            tracer: Tracer::new(traced),
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric. Metrics of the other mode (an end-to-end value
    /// computed during a traced run, say) are silently dropped, so
    /// workloads need not branch around every `put`.
    pub fn put(&mut self, name: &str, value: f64, summary: Summary) {
        let (here, there): (&[MetricSpec], &[MetricSpec]) = if self.traced {
            (spec::PER_LAYER, &spec::END_TO_END)
        } else {
            (&spec::END_TO_END, spec::PER_LAYER)
        };
        let Some(declared) = here.iter().find(|m| m.name == name) else {
            assert!(
                there.iter().any(|m| m.name == name),
                "metric {name} is not declared in spec.rs"
            );
            return;
        };
        assert!(
            !self.rows.iter().any(|r| r.name == name),
            "metric {name} reported twice"
        );
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit: declared.unit,
            summary,
            na: None,
        });
    }

    /// A metric whose value is the median of `samples`, converted to the
    /// metric's unit by `scale`.
    pub fn put_samples(&mut self, name: &str, samples: &Samples, scale: f64) {
        self.put(
            name,
            samples.median() * scale,
            samples.summary().scaled(scale),
        );
    }

    /// A metric backed by one observation.
    pub fn put1(&mut self, name: &str, value: f64) {
        self.put(name, value, Summary::single(value));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Completes the row set: every metric of this mode must be present.
    /// A per-layer metric the workload did not produce reads 0 with the
    /// reason; a missing end-to-end metric is a bug.
    pub fn finish(&mut self) {
        if self.traced {
            for m in spec::PER_LAYER {
                if !self.rows.iter().any(|r| r.name == m.name) {
                    self.rows.push(Row {
                        name: m.name.to_string(),
                        value: 0.0,
                        unit: m.unit,
                        summary: Summary::default(),
                        na: Some("layer not on this workload's path"),
                    });
                }
            }
            // Declaration order, so tables line up across workloads.
            self.rows.sort_by_key(|r| {
                spec::PER_LAYER
                    .iter()
                    .position(|m| m.name == r.name)
                    .unwrap_or(usize::MAX)
            });
        } else {
            for m in &spec::END_TO_END {
                assert!(
                    self.rows.iter().any(|r| r.name == m.name),
                    "workload {} did not report {}",
                    self.workload,
                    m.name
                );
            }
        }
        self.attempted = self.attempted.max(1);
    }

    /// `<workload> <metric> <value> <unit> n=<samples> p25=.. p75=..`
    pub fn print_rows(&self) {
        for r in &self.rows {
            match r.na {
                Some(why) => println!("{} {} n/a {} ({why})", self.workload, r.name, r.unit),
                None => println!(
                    "{} {} {} {} n={} p25={} p75={}",
                    self.workload,
                    r.name,
                    fmt(r.value),
                    r.unit,
                    r.summary.n,
                    fmt(r.summary.p25),
                    fmt(r.summary.p75)
                ),
            }
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} fail_share {} ratio n={} failed={}",
            self.workload,
            fmt(share),
            self.attempted,
            self.failed
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.check_failures {
            println!("# CHECK FAILED: {f}");
        }
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.rows
                        .iter()
                        .map(|r| {
                            (
                                r.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(r.value)),
                                    ("unit", Json::str(r.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The result file: the result line's content plus sample counts,
    /// quartiles, notes and provenance.
    pub fn result_file(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            (
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::str(r.name.clone())),
                                ("value", Json::Num(r.value)),
                                ("unit", Json::str(r.unit)),
                                ("n", Json::Num(r.summary.n as f64)),
                                ("p25", Json::Num(r.summary.p25)),
                                ("p75", Json::Num(r.summary.p75)),
                                ("na", r.na.map_or(Json::Null, Json::str)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "check_failures",
                Json::Arr(self.check_failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Six significant digits, no exponent for ordinary magnitudes.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let mag = v.abs().log10().floor() as i32;
    if !(-5..15).contains(&mag) {
        return format!("{v:.5e}");
    }
    let decimals = (5 - mag).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// `VmHWM` of this process, in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// `VmRSS` of this process, in MB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_six_significant_digits() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.23456789), "1.23457");
        assert_eq!(fmt(8_123_456.7), "8123457");
        assert_eq!(fmt(0.000123456), "0.000123456");
    }

    #[test]
    fn rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            assert!(rss_mb() > 0.0);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut ctx = Ctx::new("batch_deepwalk", 1, 1.0, false, true);
        for m in &spec::END_TO_END {
            ctx.put1(m.name, 1.5);
        }
        ctx.put1("core.steps", 3.0); // other mode: dropped
        ctx.attempted = 10;
        ctx.finish();
        let line = crate::json::parse(&ctx.result_line()).unwrap();
        let Json::Obj(pairs) = &line else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = line.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}
