#![warn(missing_docs)]

//! Shared harness for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7) at laptop scale; `DESIGN.md` carries the
//! experiment index and `EXPERIMENTS.md` the measured-vs-paper record.
//!
//! The paper's four real-world graphs are substituted by R-MAT stand-ins
//! with matching skew character (see [`graphs`]); scales are chosen so
//! every binary completes in seconds to minutes. Pass `--quick` to any
//! binary to shrink scales further (useful in CI), or `--scale N` to
//! override the default R-MAT scale.

pub mod overall;

use std::path::PathBuf;
use std::time::Instant;

use knightking_core::{WalkConfig, WalkResult};
use knightking_graph::{gen, CsrGraph};

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// R-MAT scale override (default per-binary).
    pub scale: Option<u32>,
    /// Shrink everything for a fast smoke run.
    pub quick: bool,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// `--profile <path>`: collect observability profiles for every
    /// engine run and append them as JSON lines to `path` (plus a
    /// human-readable table on stdout).
    pub profile: Option<PathBuf>,
}

/// One-line usage string for the shared harness flags.
pub const USAGE: &str = "usage: [--quick] [--scale N] [--nodes N] [--profile PATH]";

impl HarnessOpts {
    /// Parses the shared harness flags from `args` (binary name already
    /// stripped).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, flags missing their value
    /// (including a value flag in final position), and unparseable
    /// numbers.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = HarnessOpts {
            scale: None,
            quick: false,
            nodes: 4,
            profile: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--quick" => opts.quick = true,
                "--scale" | "--nodes" | "--profile" => {
                    i += 1;
                    let Some(value) = args.get(i) else {
                        return Err(format!("{flag} requires a value"));
                    };
                    match flag {
                        "--scale" => {
                            opts.scale =
                                Some(value.parse().map_err(|_| {
                                    format!("--scale takes an integer, got {value:?}")
                                })?);
                        }
                        "--nodes" => {
                            opts.nodes = value
                                .parse()
                                .map_err(|_| format!("--nodes takes an integer, got {value:?}"))?;
                            if opts.nodes == 0 {
                                return Err("--nodes must be at least 1".into());
                            }
                        }
                        _ => opts.profile = Some(PathBuf::from(value)),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Parses `std::env::args`, printing usage and exiting nonzero on
    /// bad input.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The effective scale: override > quick-shrunk default > default.
    pub fn effective_scale(&self, default: u32) -> u32 {
        self.scale.unwrap_or(if self.quick {
            default.saturating_sub(3).max(8)
        } else {
            default
        })
    }

    /// Turns profiling on in an engine config when `--profile` was given.
    pub fn configure(&self, cfg: &mut WalkConfig) {
        cfg.profile = self.profile.is_some();
    }

    /// Report sink for one engine run: appends the run's profile to the
    /// `--profile` JSONL target and prints the human-readable table,
    /// prefixed with `label`. A no-op without the flag (or when the run
    /// carried no profile, e.g. an obs-disabled build).
    pub fn sink_profile(&self, label: &str, result: &WalkResult) {
        let Some(path) = &self.profile else { return };
        let Some(profile) = result.profile.as_ref() else {
            return;
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open profile target {}: {e}", path.display()));
        let mut out = std::io::BufWriter::new(file);
        profile
            .write_jsonl(&mut out)
            .unwrap_or_else(|e| panic!("writing profile to {}: {e}", path.display()));
        use std::io::Write as _;
        out.flush()
            .unwrap_or_else(|e| panic!("writing profile to {}: {e}", path.display()));
        println!(
            "\n--- profile: {label} (appended to {}) ---",
            path.display()
        );
        print!("{}", profile.render_table());
    }
}

/// The four stand-in graphs for Table 2's datasets, at laptop scale.
pub mod graphs {
    use super::*;

    /// Which paper dataset a stand-in mimics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum StandIn {
        /// Small, mild skew.
        LiveJournal,
        /// Larger, moderate skew.
        Friendster,
        /// Heavy power-law skew with hub vertices.
        Twitter,
        /// Largest, web-graph-like heavy skew.
        UkUnion,
    }

    impl StandIn {
        /// All four, in the paper's table order.
        pub const ALL: [StandIn; 4] = [
            StandIn::LiveJournal,
            StandIn::Friendster,
            StandIn::Twitter,
            StandIn::UkUnion,
        ];

        /// Display name (starred: it is a stand-in, not the real graph).
        pub fn name(&self) -> &'static str {
            match self {
                StandIn::LiveJournal => "LiveJ*",
                StandIn::Friendster => "FriendS*",
                StandIn::Twitter => "Twitter*",
                StandIn::UkUnion => "UK-Union*",
            }
        }

        /// Default R-MAT scale preserving the paper's relative sizes.
        pub fn default_scale(&self) -> u32 {
            match self {
                StandIn::LiveJournal => 13,
                StandIn::Friendster => 14,
                StandIn::Twitter => 14,
                StandIn::UkUnion => 15,
            }
        }

        /// Whether the paper graph is strongly skewed (the dynamic-walk
        /// blow-up cases, marked `*` in Tables 3/4).
        pub fn heavy_skew(&self) -> bool {
            matches!(self, StandIn::Twitter | StandIn::UkUnion)
        }

        /// Builds the stand-in at `scale`, optionally weighted
        /// (`U[1, 5)`, §7.1) and typed (5 edge types for Meta-path).
        pub fn build(&self, scale: u32, weighted: bool, typed: bool) -> CsrGraph {
            let seed = match self {
                StandIn::LiveJournal => 0x11,
                StandIn::Friendster => 0x22,
                StandIn::Twitter => 0x33,
                StandIn::UkUnion => 0x44,
            };
            let opts = gen::GenOptions {
                weights: if weighted {
                    gen::WeightKind::Uniform { lo: 1.0, hi: 5.0 }
                } else {
                    gen::WeightKind::None
                },
                edge_types: if typed { Some(5) } else { None },
                seed,
            };
            match self {
                StandIn::LiveJournal => gen::presets::livejournal_like(scale, opts),
                StandIn::Friendster => gen::presets::friendster_like(scale, opts),
                StandIn::Twitter => gen::presets::twitter_like(scale, opts),
                StandIn::UkUnion => gen::rmat(scale, 20, 0.57, 0.19, 0.19, opts),
            }
        }
    }

    /// LiveJournal stand-in (compat helper).
    pub fn livejournal(scale: u32, weighted: bool) -> CsrGraph {
        StandIn::LiveJournal.build(scale, weighted, false)
    }

    /// Friendster stand-in (compat helper).
    pub fn friendster(scale: u32, weighted: bool) -> CsrGraph {
        StandIn::Friendster.build(scale, weighted, false)
    }

    /// Twitter stand-in (compat helper).
    pub fn twitter(scale: u32, weighted: bool) -> CsrGraph {
        StandIn::Twitter.build(scale, weighted, false)
    }

    /// UK-Union stand-in (compat helper).
    pub fn uk_union(scale: u32, weighted: bool) -> CsrGraph {
        StandIn::UkUnion.build(scale, weighted, false)
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let begin = Instant::now();
    let out = f();
    (out, begin.elapsed().as_secs_f64())
}

/// Plain-text table printer matching the paper's row/column layout.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats seconds the way the paper's tables do.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["algo", "time"]);
        t.row(&["DeepWalk".into(), "2.22".into()]);
        t.row(&["PPR".into(), "6.50".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.34");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }

    #[test]
    fn effective_scale_logic() {
        let mut o = HarnessOpts {
            scale: None,
            quick: false,
            nodes: 4,
            profile: None,
        };
        assert_eq!(o.effective_scale(14), 14);
        o.quick = true;
        assert_eq!(o.effective_scale(14), 11);
        o.scale = Some(9);
        assert_eq!(o.effective_scale(14), 9);
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_all_flags() {
        let o = HarnessOpts::parse(&strs(&[
            "--quick",
            "--scale",
            "12",
            "--nodes",
            "8",
            "--profile",
            "p.jsonl",
        ]))
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.scale, Some(12));
        assert_eq!(o.nodes, 8);
        assert_eq!(o.profile.as_deref(), Some(std::path::Path::new("p.jsonl")));
    }

    #[test]
    fn parse_defaults() {
        let o = HarnessOpts::parse(&[]).unwrap();
        assert_eq!(o.scale, None);
        assert!(!o.quick);
        assert_eq!(o.nodes, 4);
        assert_eq!(o.profile, None);
    }

    #[test]
    fn parse_rejects_trailing_value_flag() {
        // Regression: a value flag in final position used to index out of
        // bounds and panic instead of reporting the mistake.
        for flag in ["--scale", "--nodes", "--profile"] {
            let err = HarnessOpts::parse(&strs(&[flag])).unwrap_err();
            assert!(err.contains("requires a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(HarnessOpts::parse(&strs(&["--bogus"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(HarnessOpts::parse(&strs(&["--scale", "many"]))
            .unwrap_err()
            .contains("integer"));
        assert!(HarnessOpts::parse(&strs(&["--nodes", "0"]))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn stand_in_graphs_have_expected_skew_ordering() {
        let f = graphs::friendster(10, false);
        let t = graphs::twitter(10, false);
        let (_, vf) = f.degree_stats();
        let (_, vt) = t.degree_stats();
        assert!(vt > vf, "twitter stand-in must be more skewed");
    }
}
