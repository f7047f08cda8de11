//! `kk-bench`: the repository's benchmark. One binary, four workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separate traced run. See `README.md` beside this package.

mod batch;
mod inputs;
mod json;
mod layers;
mod loadgen;
mod report;
mod serve;
mod span;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::Ctx;

const USAGE: &str = "\
usage:
  kk-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result object
  kk-bench run <workload|all> [--seed S] [--seconds N] [--quick]      end-to-end metrics, tracing off, checks on
  kk-bench trace <workload|all> [--seed S] [--seconds N] [--quick]    per-layer metrics and a Chrome-trace span file
  kk-bench selftest [--seed S] [--seconds N] [--quick]                two sets of the same build against the bounds
  kk-bench spread [--runs R] [--seconds N] [--quick]                 R seeds per workload; run-to-run spread against the bounds
  kk-bench list                                                       workloads and metrics with units
  kk-bench manifest                                                   BENCHMARK.json on stdout";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_flags(args: &[String], opts: &mut Opts) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(())
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_one(opts: &Opts) -> Result<bool, String> {
    let spec = spec::workload(&opts.workload)
        .ok_or_else(|| format!("unknown workload {} (see `kk-bench list`)", opts.workload))?;
    let mut ctx = Ctx::new(spec.name, opts.seed, opts.seconds, opts.traced, opts.quick);
    match spec.name {
        "batch_deepwalk" => batch::deepwalk(&mut ctx),
        "batch_node2vec_2rank" => batch::node2vec_2rank(&mut ctx),
        "serve_static" => serve::static_graph(&mut ctx),
        "serve_churn" => serve::churn(&mut ctx),
        other => unreachable!("workload {other} is declared but not dispatched"),
    }
    ctx.finish();
    ctx.print_rows();

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = if opts.traced {
        format!("{}.layers", spec.name)
    } else {
        spec.name.to_string()
    };
    let write = |name: String, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), ctx.result_file().pretty())?;
    if opts.traced {
        println!("# self time by span (ms):");
        for (name, ns) in ctx.tracer.self_time_by_name().into_iter().take(16) {
            println!("#   {name} {:.1}", ns as f64 / 1e6);
        }
        write(
            format!("{}.trace.json", spec.name),
            ctx.tracer.chrome_json().render(),
        )?;
    }
    // The acceptance driver reads the last line.
    println!("{}", ctx.result_line());
    Ok(ctx.correct())
}

fn workloads_of(sel: &str) -> Result<Vec<&'static str>, String> {
    if sel == "all" {
        Ok(spec::WORKLOADS.iter().map(|w| w.name).collect())
    } else {
        spec::workload(sel)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload {sel} (see `kk-bench list`)"))
    }
}

/// One workload in a process of its own (so `VmHWM` is that workload's
/// peak), its output passed through. Returns the parsed result object.
fn run_child(workload: &str, opts: &Opts, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("start child for {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn run_many(sel: &str, opts: &Opts, traced: bool) -> Result<bool, String> {
    let names = workloads_of(sel)?;
    if names.len() == 1 {
        return run_one(&Opts {
            workload: names[0].to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            traced,
            quick: opts.quick,
        });
    }
    let mut all_ok = true;
    for w in names {
        let result = run_child(w, opts, traced)?;
        all_ok &= result.get("correct") == Some(&Json::Bool(true));
    }
    Ok(all_ok)
}

/// `runs` untraced runs of one workload, seeds `opts.seed`,
/// `opts.seed + seed_step`, ...: every metric's values in run order, and
/// whether every run was correct.
fn run_series(
    workload: &str,
    opts: &Opts,
    runs: u64,
    seed_step: u64,
) -> Result<(BTreeMap<String, Vec<f64>>, bool), String> {
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for i in 0..runs {
        let one = Opts {
            workload: workload.to_string(),
            seed: opts.seed + i * seed_step,
            seconds: opts.seconds,
            traced: false,
            quick: opts.quick,
        };
        let result = run_child(workload, &one, false)?;
        correct &= result.get("correct") == Some(&Json::Bool(true));
        for (m, v) in metric_values(&result) {
            series.entry(m).or_default().push(v);
        }
    }
    Ok((series, correct))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|n| (k.clone(), n))
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Untraced runs per workload in each selftest set; a set's end-to-end
/// value is their median, as a change is judged on medians of runs.
const SELFTEST_RUNS: u64 = 3;

/// Two full sets on the same build and seed: every workload untraced
/// (`SELFTEST_RUNS` times, medians taken) and traced (once). Every
/// end-to-end metric must agree within its bound and every count metric
/// must repeat exactly.
fn selftest(opts: &Opts) -> Result<bool, String> {
    let mut sets: Vec<BTreeMap<(String, String), f64>> = Vec::new();
    let mut correct = true;
    for set in 0..2 {
        println!("# selftest: set {}", set + 1);
        let mut values = BTreeMap::new();
        for w in &spec::WORKLOADS {
            let (series, ok) = run_series(w.name, opts, SELFTEST_RUNS, 0)?;
            correct &= ok;
            for (m, v) in series {
                values.insert((w.name.to_string(), m), stats::median_f64(&v));
            }
            let result = run_child(w.name, opts, true)?;
            correct &= result.get("correct") == Some(&Json::Bool(true));
            for (m, v) in metric_values(&result) {
                values.insert((w.name.to_string(), m), v);
            }
        }
        sets.push(values);
    }
    let mut breaches = Vec::new();
    let mut rows = Vec::new();
    for ((w, m), &a) in &sets[0] {
        let b = sets[1][&(w.clone(), m.clone())];
        let rel = if a == 0.0 {
            (b != 0.0) as u8 as f64
        } else {
            (b - a).abs() / a.abs()
        };
        let (limit, kind) = if let Some(e2e) = spec::end_to_end(m) {
            (Some(e2e.bound), "end_to_end")
        } else if spec::is_exact_count(m) {
            (Some(0.0), "exact_count")
        } else {
            (None, "per_layer")
        };
        let breach = limit.is_some_and(|l| rel > l);
        if breach {
            breaches.push(format!(
                "{w} {m}: {a} vs {b} differs by {:.2} % (limit {:.2} %)",
                rel * 100.0,
                limit.unwrap_or(0.0) * 100.0
            ));
        }
        rows.push(Json::obj([
            ("workload", Json::str(w.clone())),
            ("metric", Json::str(m.clone())),
            ("kind", Json::str(kind)),
            ("a", Json::Num(a)),
            ("b", Json::Num(b)),
            ("rel_diff", Json::Num(rel)),
            ("limit", limit.map_or(Json::Null, Json::Num)),
            ("breach", Json::Bool(breach)),
        ]));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let noise = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        ("correct", Json::Bool(correct)),
        (
            "breaches",
            Json::Arr(breaches.iter().cloned().map(Json::Str).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    let path = dir.join("noise.json");
    std::fs::write(&path, noise.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "# selftest: {} metric pairs compared, {} breaches; wrote {}",
        sets[0].len(),
        breaches.len(),
        path.display()
    );
    for b in &breaches {
        println!("# BREACH: {b}");
    }
    Ok(correct && breaches.is_empty())
}

/// What the acceptance driver does before it accepts the benchmark:
/// `runs` untraced runs per workload, each with another seed, and for
/// every end-to-end metric the interquartile range of its values as a
/// share of their median, against the metric's bound.
fn spread(opts: &Opts, runs: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &spec::WORKLOADS {
        let (series, correct) = run_series(w.name, opts, runs, 1)?;
        ok &= correct;
        for m in &spec::END_TO_END {
            let values = &series[m.name];
            let s = stats::spread(values);
            let (_, median, _) = stats::py_quartiles(values);
            // `setup_s` is exempt from the spread rule; every other
            // metric should stay under a third of its bound.
            let verdict = if s <= m.bound / 3.0 {
                "steady"
            } else if s <= m.bound || m.name == "setup_s" {
                "within bound"
            } else {
                ok = false;
                "TOO NOISY"
            };
            lines.push(format!(
                "{} {} median {} {} spread {:.2} % bound {:.0} % {verdict}",
                w.name,
                m.name,
                report::fmt(median),
                m.unit,
                s * 100.0,
                m.bound * 100.0
            ));
        }
    }
    println!("# spread over {runs} seeds per workload (IQR / median, Python `statistics.quantiles` quartiles):");
    for l in &lines {
        println!("{l}");
    }
    Ok(ok)
}

fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {}  — {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload; `run`):");
    for m in &spec::END_TO_END {
        println!(
            "  {} [{}] {} is better, bound {} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (`trace`; 0 where a workload bypasses the layer):");
    for m in spec::PER_LAYER {
        println!("  {} [{}]", m.name, m.unit);
    }
}

fn main() -> ExitCode {
    // The default step engine is what is measured.
    std::env::remove_var("KK_SCALAR_STEP");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        quick: false,
    };
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        Some(cmd @ ("run" | "trace")) => match args.get(1) {
            Some(sel) => parse_flags(&args[2..], &mut opts)
                .and_then(|()| run_many(sel, &opts, cmd == "trace")),
            None => Err(format!("{cmd} needs a workload or `all`")),
        },
        Some("selftest") => parse_flags(&args[1..], &mut opts).and_then(|()| selftest(&opts)),
        Some("spread") => {
            let (runs, rest) = match args.get(1).map(String::as_str) {
                Some("--runs") => (
                    args.get(2).and_then(|r| r.parse().ok()),
                    args.get(3..).unwrap_or(&[]),
                ),
                _ => (Some(10), &args[1..]),
            };
            match runs {
                Some(r) if r >= 2 => parse_flags(rest, &mut opts).and_then(|()| spread(&opts, r)),
                _ => Err("--runs takes a whole number of at least 2".into()),
            }
        }
        // The acceptance driver's form: a run that printed its result
        // line exits 0, and the line's `correct` carries the verdict.
        Some(flag) if flag.starts_with("--") => parse_flags(&args, &mut opts)
            .and_then(|()| run_one(&opts))
            .map(|_| true),
        _ => Err("no command".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kk-bench: a correctness check or a selftest bound failed");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("kk-bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
