//! End-to-end tests of the `kk` command-line tool, driving the real
//! binary through generate → stats → convert → walk pipelines.

use std::path::PathBuf;
use std::process::Command;

fn kk() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kk"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kk_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn generate_stats_walk_pipeline() {
    let graph = tmp("pipeline.kkg");
    let paths = tmp("pipeline_paths.txt");

    let out = kk()
        .args([
            "generate",
            "--kind",
            "twitter",
            "--scale",
            "10",
            "--weighted",
        ])
        .args(["--seed", "5", "--output", graph.to_str().unwrap()])
        .output()
        .expect("run kk generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("|V| = 1024"));

    let out = kk()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .output()
        .expect("run kk stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("weighted         true"), "{stdout}");
    assert!(stdout.contains("components"), "{stdout}");

    let out = kk()
        .args(["walk", "--graph", graph.to_str().unwrap()])
        .args(["--algo", "node2vec", "--p", "2", "--q", "0.5"])
        .args(["--length", "20", "--walkers", "100", "--nodes", "2"])
        .args(["--stats", "--output", paths.to_str().unwrap()])
        .output()
        .expect("run kk walk");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("walks            100"), "{stdout}");

    let corpus = std::fs::read_to_string(&paths).expect("corpus written");
    assert_eq!(corpus.lines().count(), 100);
    // Every line is whitespace-separated vertex ids below |V|.
    for line in corpus.lines() {
        for tok in line.split_whitespace() {
            let v: u32 = tok.parse().expect("vertex id");
            assert!(v < 1024);
        }
    }

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&paths).ok();
}

#[test]
fn convert_round_trips_between_formats() {
    let txt = tmp("convert.txt");
    let bin = tmp("convert.kkg");
    std::fs::write(&txt, "0 1\n1 2\n2 3\n").unwrap();

    let out = kk()
        .args(["convert", "--input", txt.to_str().unwrap()])
        .args(["--output", bin.to_str().unwrap()])
        .output()
        .expect("run kk convert");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("|V| = 4"));

    // Walk the converted binary graph deterministically.
    let out = kk()
        .args(["walk", "--graph", bin.to_str().unwrap()])
        .args(["--algo", "deepwalk", "--length", "5", "--stats"])
        .output()
        .expect("run kk walk");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("walks            4"));

    std::fs::remove_file(&txt).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = kk().args(["walk", "--algo", "warp"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("USAGE"), "{err}");

    let out = kk().output().unwrap();
    assert!(!out.status.success());

    let out = kk().arg("help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn walk_is_deterministic_per_seed() {
    let graph = tmp("determinism.kkg");
    kk().args([
        "generate", "--kind", "uniform", "--n", "200", "--degree", "6",
    ])
    .args(["--seed", "9", "--output", graph.to_str().unwrap()])
    .output()
    .expect("generate");

    let run = |seed: &str, file: &str| -> String {
        let p = tmp(file);
        let out = kk()
            .args(["walk", "--graph", graph.to_str().unwrap()])
            .args(["--algo", "rwr", "--restart", "0.2", "--length", "15"])
            .args(["--walkers", "50", "--seed", seed])
            .args(["--output", p.to_str().unwrap()])
            .output()
            .expect("walk");
        assert!(out.status.success());
        let s = std::fs::read_to_string(&p).expect("paths");
        std::fs::remove_file(&p).ok();
        s
    };
    let a = run("42", "det_a.txt");
    let b = run("42", "det_b.txt");
    let c = run("43", "det_c.txt");
    assert_eq!(a, b, "same seed must reproduce the corpus");
    assert_ne!(a, c, "different seed must change the corpus");

    std::fs::remove_file(&graph).ok();
}

#[test]
fn embed_produces_word2vec_format() {
    let graph = tmp("embed.kkg");
    let emb = tmp("embed.txt");
    kk().args([
        "generate", "--kind", "uniform", "--n", "100", "--degree", "6",
    ])
    .args(["--seed", "3", "--output", graph.to_str().unwrap()])
    .output()
    .expect("generate");
    let out = kk()
        .args(["embed", "--graph", graph.to_str().unwrap()])
        .args(["--p", "2", "--q", "0.5", "--length", "10"])
        .args(["--dims", "8", "--epochs", "1"])
        .args(["--output", emb.to_str().unwrap()])
        .output()
        .expect("embed");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&emb).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("100 8"));
    let mut count = 0;
    for line in lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(toks.len(), 9, "{line}");
        toks[0].parse::<u32>().expect("vertex id");
        for t in &toks[1..] {
            let x: f32 = t.parse().expect("float component");
            assert!(x.is_finite());
        }
        count += 1;
    }
    assert_eq!(count, 100);

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&emb).ok();
}

/// A flag the subcommand does not take is refused before any file is
/// opened, on one line naming the flag and the subcommand — a typo
/// (`--lenght`) or a flag of the removed stitched execution must not
/// silently run the default walk. None of the named files exist.
#[test]
fn unknown_flags_are_refused_by_name() {
    let cases = [
        (
            "walk --graph nope.kkg --algo deepwalk --stitch",
            "error: unknown flag --stitch for kk walk",
        ),
        (
            "serve --graph nope.kkg --algo deepwalk --pool nope.kkp",
            "error: unknown flag --pool for kk serve",
        ),
        (
            "query --addr 127.0.0.1:1 --walkers 4 --stitch",
            "error: unknown flag --stitch for kk query",
        ),
        (
            "pool build --graph nope.kkg --output nope.kkp",
            "error: unknown command pool",
        ),
        (
            "walk --graph nope.kkg --algo deepwalk --lenght 5",
            "error: unknown flag --lenght for kk walk",
        ),
    ];
    for (args, want) in cases {
        let out = kk().args(args.split(' ')).output().expect("run kk");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("nope"), "{args:?} opened a file: {stderr}");
    }
}
