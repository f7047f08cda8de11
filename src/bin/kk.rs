//! `kk` — command-line front end for the KnightKing random walk engine.
//!
//! ```text
//! kk generate --kind twitter --scale 14 --weighted --output g.kkg
//! kk convert  --input edges.txt --undirected --weighted --output g.kkg
//! kk stats    --graph g.kkg
//! kk walk     --graph g.kkg --algo node2vec --p 2 --q 0.5 --length 80 \
//!             --walkers pervertex --nodes 4 --output paths.txt
//! ```
//!
//! Graph files ending in `.kkg` use the binary CSR format
//! ([`knightking::graph::binfmt`]); anything else is parsed as a text
//! edge list.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use knightking::dynamic::{DynConfig, DynGraph, EdgeAdd, EdgeRef, EdgeReweight, UpdateBatch};
use knightking::graph::{binfmt, gen, io as gio};
use knightking::net::reserve_loopback_addrs;
use knightking::prelude::*;
use knightking::serve::{
    metrics_listener, protocol, serve_listener_with, signal, Request, Status, WalkService,
};
use knightking::walks::analysis;

/// The flags one subcommand accepts, as space-separated names.
struct Flags {
    /// The subcommand as typed after `kk`, for error messages.
    cmd: &'static str,
    /// `--key value` flags.
    values: &'static str,
    /// Boolean `--key` switches.
    switches: &'static str,
}

impl Flags {
    const fn new(cmd: &'static str, values: &'static str, switches: &'static str) -> Flags {
        Flags {
            cmd,
            values,
            switches,
        }
    }
}

/// How a graph file is read; every subcommand that loads one takes these.
const GRAPH_INPUT: &str = "weighted typed directed";

const GENERATE: Flags = Flags::new(
    "generate",
    "kind n scale degree cap gamma types seed output",
    "weighted",
);
const CONVERT: Flags = Flags::new("convert", "input output", GRAPH_INPUT);
const STATS: Flags = Flags::new("stats", "graph", GRAPH_INPUT);
const WALK: Flags = Flags::new(
    "walk",
    "graph algo length p q pt restart walkers start nodes seed sampler output profile",
    "weighted typed directed stats",
);
const SERVE: Flags = Flags::new(
    "serve",
    "graph algo length p q pt restart listen nodes queue-capacity max-admit retry-after seed \
     max-connections idle-timeout-ms write-deadline-ms tenant-weight default-tenant-weight \
     tenant-quota compact-ratio sampler stats-output metrics-addr trace-sample trace-output",
    "weighted typed directed dynamic stats",
);
const QUERY: Flags = Flags::new(
    "query",
    "addr walkers start seed deadline tenant retries output",
    "no-retry shutdown",
);
const TOP: Flags = Flags::new("top", "addr interval-ms count", "once");
const UPDATE: Flags = Flags::new("update", "addr updates", "");
const GRAPH_INFO: Flags = Flags::new("graph info", "graph nodes alpha", GRAPH_INPUT);
const GRAPH_APPLY: Flags = Flags::new("graph apply", "graph updates output", GRAPH_INPUT);
const CLUSTER: Flags = Flags::new("cluster", "nodes hostfile peers rank epoch", "");
const EMBED: Flags = Flags::new(
    "embed",
    "graph p q length dims window negatives epochs lr nodes seed output",
    GRAPH_INPUT,
);

/// Minimal flag parser: `--key value` pairs plus boolean `--key` flags.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `raw` against the flags `spec`'s subcommand accepts.
    ///
    /// # Errors
    ///
    /// Fails on a non-`--` token, a flag `spec` does not list (a typo must
    /// not silently run with the default), or a value flag at the end.
    fn parse(raw: &[String], spec: &Flags) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", raw[i]))?;
            let listed = |names: &str| names.split_whitespace().any(|n| n == key);
            if listed(spec.switches) {
                flags.push(key.to_string());
                i += 1;
            } else if listed(spec.values) {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                values.insert(key.to_string(), value.clone());
                i += 2;
            } else {
                return Err(format!("unknown flag --{key} for kk {}", spec.cmd));
            }
        }
        Ok(Args { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad value for --{key}: {s}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn load_graph(
    path: &str,
    weighted: bool,
    typed: bool,
    undirected: bool,
) -> Result<CsrGraph, String> {
    let p = Path::new(path);
    if p.extension().is_some_and(|e| e == "kkg") {
        binfmt::load_binary(p).map_err(|e| format!("loading {path}: {e}"))
    } else {
        let fmt = gio::EdgeListFormat {
            weighted,
            typed,
            undirected,
        };
        gio::load_edge_list_auto(p, fmt).map_err(|e| format!("loading {path}: {e}"))
    }
}

fn save_graph(graph: &CsrGraph, path: &str) -> Result<(), String> {
    let p = PathBuf::from(path);
    if p.extension().is_some_and(|e| e == "kkg") {
        binfmt::save_binary(graph, &p).map_err(|e| format!("saving {path}: {e}"))
    } else {
        let file = std::fs::File::create(&p).map_err(|e| format!("saving {path}: {e}"))?;
        gio::write_edge_list(graph, file, true).map_err(|e| format!("saving {path}: {e}"))
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = args.require("kind")?;
    let seed: u64 = args.parse_num("seed", 1)?;
    let opts = gen::GenOptions {
        weights: if args.has("weighted") {
            gen::WeightKind::Uniform { lo: 1.0, hi: 5.0 }
        } else {
            gen::WeightKind::None
        },
        edge_types: match args.get("types") {
            Some(t) => Some(t.parse().map_err(|_| "bad --types".to_string())?),
            None => None,
        },
        seed,
    };
    let graph = match kind {
        "uniform" => {
            let n: usize = args.parse_num("n", 10_000)?;
            let degree: usize = args.parse_num("degree", 16)?;
            gen::uniform_degree(n, degree, opts)
        }
        "powerlaw" => {
            let n: usize = args.parse_num("n", 10_000)?;
            let cap: usize = args.parse_num("cap", 1000)?;
            let gamma: f64 = args.parse_num("gamma", 2.0)?;
            gen::truncated_power_law(n, gamma, 2, cap, opts)
        }
        "livejournal" | "friendster" | "twitter" => {
            let scale: u32 = args.parse_num("scale", 14)?;
            match kind {
                "livejournal" => gen::presets::livejournal_like(scale, opts),
                "friendster" => gen::presets::friendster_like(scale, opts),
                _ => gen::presets::twitter_like(scale, opts),
            }
        }
        other => {
            return Err(format!(
                "unknown --kind {other} (uniform|powerlaw|livejournal|friendster|twitter)"
            ))
        }
    };
    let output = args.require("output")?;
    save_graph(&graph, output)?;
    let (mean, var) = graph.degree_stats();
    println!(
        "wrote {output}: |V| = {}, stored |E| = {}, degree mean {mean:.1} variance {var:.1e}",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    let graph = load_graph(
        args.require("input")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    save_graph(&graph, args.require("output")?)?;
    println!(
        "converted: |V| = {}, stored |E| = {}",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let graph = load_graph(
        args.require("graph")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    let (mean, var) = graph.degree_stats();
    println!("|V|              {}", graph.vertex_count());
    println!("stored |E|       {}", graph.edge_count());
    println!("degree mean      {mean:.2}");
    println!("degree variance  {var:.3e}");
    println!("max degree       {}", graph.max_degree());
    println!("weighted         {}", graph.is_weighted());
    println!("typed            {}", graph.is_typed());
    println!("heap bytes       {}", graph.heap_bytes());
    let comps = knightking::graph::connected_components(&graph);
    println!("components       {}", comps.count());
    println!(
        "largest comp     {} ({:.1}%)",
        comps.largest(),
        100.0 * comps.largest() as f64 / graph.vertex_count().max(1) as f64
    );
    Ok(())
}

/// Runs one engine either in-process (`transport: None`) or as one rank
/// of a multi-process cluster. Returns `None` on non-leader ranks, which
/// have nothing to report or write.
fn run_engine<P: WalkerProgram>(
    graph: &CsrGraph,
    program: P,
    cfg: WalkConfig,
    starts: WalkerStarts,
    transport: Option<&mut TcpTransport>,
) -> Option<WalkResult> {
    let engine = RandomWalkEngine::new(graph, program, cfg);
    match transport {
        None => Some(engine.run(starts)),
        Some(t) => engine.run_distributed(t, starts),
    }
}

fn cmd_walk(args: &Args, transport: Option<&mut TcpTransport>) -> Result<(), String> {
    let graph = load_graph(
        args.require("graph")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    let algo = args.require("algo")?;
    let length: u32 = args.parse_num("length", 80)?;
    let nodes: usize = match &transport {
        // The cluster decides the node count; `--nodes` in the walk args
        // must agree with it when present (SPMD: every rank parses the
        // same command line, so this check is uniform).
        Some(t) => {
            let n = t.world_size();
            let flag: usize = args.parse_num("nodes", n)?;
            if flag != n {
                return Err(format!(
                    "--nodes {flag} disagrees with the {n}-process cluster"
                ));
            }
            n
        }
        None => args.parse_num("nodes", 1)?,
    };
    let seed: u64 = args.parse_num("seed", 1)?;

    let starts = match (args.get("walkers"), args.get("start")) {
        (Some(_), Some(_)) => {
            return Err("--walkers and --start are mutually exclusive".to_string())
        }
        (_, Some(list)) => WalkerStarts::Explicit(parse_vertex_list(list)?),
        (None, None) | (Some("pervertex"), None) => WalkerStarts::PerVertex,
        (Some(n), None) => WalkerStarts::Count(n.parse().map_err(|_| "bad --walkers".to_string())?),
    };
    // Validate up front so a typo'd start vertex is a one-line error
    // naming the vertex, not an index panic deep inside the engine.
    starts.validate(graph.vertex_count())?;

    let mut cfg = WalkConfig::with_nodes(nodes, seed);
    cfg.sampler = SamplerBackend::parse(args.get("sampler").unwrap_or("alias"))?;
    cfg.record_paths = args.get("output").is_some() || args.has("stats");
    cfg.profile = args.get("profile").is_some();
    // SIGINT/SIGTERM drain the walk and still flush paths/profile below
    // instead of dropping buffered output. Every cluster rank installs
    // the same hook, so the cancellation check stays a uniform collective.
    let cancel = signal::install();
    cfg.cancel = Some(cancel.clone());

    let engine_result = match algo {
        "deepwalk" => run_engine(&graph, DeepWalk::new(length), cfg, starts, transport),
        "ppr" => {
            let pt: f64 = args.parse_num("pt", 1.0 / 80.0)?;
            run_engine(&graph, Ppr::new(pt), cfg, starts, transport)
        }
        "node2vec" => {
            let p: f64 = args.parse_num("p", 2.0)?;
            let q: f64 = args.parse_num("q", 0.5)?;
            run_engine(&graph, Node2Vec::new(p, q, length), cfg, starts, transport)
        }
        "metapath" => {
            let mp = knightking::walks::MetaPath::paper(seed);
            run_engine(&graph, mp, cfg, starts, transport)
        }
        "rwr" => {
            let c: f64 = args.parse_num("restart", 0.15)?;
            run_engine(&graph, Rwr::new(c, length), cfg, starts, transport)
        }
        "nobacktrack" => run_engine(&graph, NonBacktracking::new(length), cfg, starts, transport),
        other => {
            return Err(format!(
                "unknown --algo {other} (deepwalk|ppr|node2vec|metapath|rwr|nobacktrack)"
            ))
        }
    };
    // Non-leader cluster ranks contributed their fragments to rank 0 and
    // are done.
    let Some(engine_result) = engine_result else {
        return Ok(());
    };

    if cancel.is_cancelled() {
        eprintln!("interrupted: walk drained; flushing partial results");
    }

    eprintln!(
        "{} walks, {} steps, {} iterations in {:?} ({:.2} edges/step, {:.2} trials/step, {} queries)",
        engine_result.metrics.finished_walkers,
        engine_result.metrics.steps,
        engine_result.metrics.iterations,
        engine_result.elapsed,
        engine_result.metrics.edges_per_step(),
        engine_result.metrics.trials_per_step(),
        engine_result.metrics.queries,
    );

    if args.has("stats") {
        let ls = analysis::length_stats(&engine_result.paths);
        println!("walks            {}", ls.walks);
        println!("mean length      {:.2}", ls.mean);
        println!("min/max length   {}/{}", ls.min, ls.max);
        println!(
            "coverage         {:.1}%",
            100.0 * analysis::coverage(&engine_result.paths, graph.vertex_count())
        );
        println!(
            "return rate      {:.4}",
            analysis::return_rate(&engine_result.paths)
        );
    }

    if let Some(path) = args.get("profile") {
        let profile = engine_result
            .profile
            .as_ref()
            .expect("profile requested in config");
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        profile
            .write_jsonl(&mut out)
            .and_then(|()| {
                use std::io::Write as _;
                out.flush()
            })
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprint!("{}", profile.render_table());
        eprintln!("profile written to {path}");
    }

    if let Some(output) = args.get("output") {
        let file = std::fs::File::create(output).map_err(|e| format!("creating {output}: {e}"))?;
        engine_result
            .write_paths(file)
            .map_err(|e| format!("writing {output}: {e}"))?;
        eprintln!("paths written to {output}");
    }
    Ok(())
}

/// Runs walks and trains SkipGram embeddings — the full node2vec
/// pipeline from the shell.
fn cmd_embed(args: &Args) -> Result<(), String> {
    use knightking::walks::embedding::{train_skipgram, SkipGramConfig};

    let graph = load_graph(
        args.require("graph")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    let length: u32 = args.parse_num("length", 80)?;
    let nodes: usize = args.parse_num("nodes", 1)?;
    let seed: u64 = args.parse_num("seed", 1)?;
    let p: f64 = args.parse_num("p", 1.0)?;
    let q: f64 = args.parse_num("q", 1.0)?;

    let cfg = WalkConfig::with_nodes(nodes, seed);
    let t0 = std::time::Instant::now();
    let walk = RandomWalkEngine::new(&graph, Node2Vec::new(p, q, length), cfg)
        .run(WalkerStarts::PerVertex);
    eprintln!(
        "walks: {} sequences, {} steps in {:?}",
        walk.paths.len(),
        walk.metrics.steps,
        walk.elapsed
    );

    let sg = SkipGramConfig {
        dims: args.parse_num("dims", 64)?,
        window: args.parse_num("window", 5)?,
        negatives: args.parse_num("negatives", 5)?,
        epochs: args.parse_num("epochs", 2)?,
        learning_rate: args.parse_num("lr", 0.025)?,
        seed,
    };
    let emb = train_skipgram(&walk.paths, graph.vertex_count(), sg);
    eprintln!(
        "embeddings: {} × {}d trained in {:?} total",
        emb.len(),
        emb.dims(),
        t0.elapsed()
    );

    // word2vec text format: header line, then "vertex v1 v2 ...".
    let output = args.require("output")?;
    let file = std::fs::File::create(output).map_err(|e| format!("creating {output}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    use std::io::Write as _;
    writeln!(out, "{} {}", emb.len(), emb.dims()).map_err(|e| e.to_string())?;
    for v in 0..emb.len() as u32 {
        write!(out, "{v}").map_err(|e| e.to_string())?;
        for x in emb.vector(v) {
            write!(out, " {x}").map_err(|e| e.to_string())?;
        }
        writeln!(out).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("embeddings written to {output}");
    Ok(())
}

/// Parses a `--start v1,v2,...` vertex list.
fn parse_vertex_list(list: &str) -> Result<Vec<VertexId>, String> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad vertex id {s:?} in --start"))
        })
        .collect()
}

/// Writes paths in the same one-walk-per-line format as
/// `WalkResult::write_paths`, so `kk query --output` and `kk walk
/// --output` are byte-comparable.
fn write_path_lines<W: std::io::Write>(writer: W, paths: &[Vec<VertexId>]) -> Result<(), String> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(writer);
    let io = |e: std::io::Error| e.to_string();
    for path in paths {
        let mut first = true;
        for &v in path {
            if !first {
                write!(out, " ").map_err(io)?;
            }
            write!(out, "{v}").map_err(io)?;
            first = false;
        }
        writeln!(out).map_err(io)?;
    }
    out.flush().map_err(io)
}

/// `kk serve`: load the graph once, then serve walk queries over TCP
/// until a shutdown request or signal arrives. With `--dynamic` the
/// graph is wrapped in the epoch-versioned dynamic layer and accepts
/// live `kk update` batches at superstep boundaries.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let csr = load_graph(
        args.require("graph")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    let dyn_store;
    let csr_store;
    let graph: GraphRef<'_> = if args.has("dynamic") {
        let dcfg = DynConfig {
            compact_ratio: args.parse_num("compact-ratio", DynConfig::default().compact_ratio)?,
        };
        dyn_store = DynGraph::new(csr, dcfg);
        GraphRef::from(&dyn_store)
    } else {
        csr_store = csr;
        GraphRef::from(&csr_store)
    };
    let algo = args.require("algo")?;
    let length: u32 = args.parse_num("length", 80)?;
    let seed: u64 = args.parse_num("seed", 1)?;
    match algo {
        "deepwalk" => serve_program(graph, DeepWalk::new(length), args),
        "ppr" => {
            let pt: f64 = args.parse_num("pt", 1.0 / 80.0)?;
            serve_program(graph, Ppr::new(pt), args)
        }
        "node2vec" => {
            let p: f64 = args.parse_num("p", 2.0)?;
            let q: f64 = args.parse_num("q", 0.5)?;
            serve_program(graph, Node2Vec::new(p, q, length), args)
        }
        "metapath" => serve_program(graph, knightking::walks::MetaPath::paper(seed), args),
        "rwr" => {
            let c: f64 = args.parse_num("restart", 0.15)?;
            serve_program(graph, Rwr::new(c, length), args)
        }
        "nobacktrack" => serve_program(graph, NonBacktracking::new(length), args),
        other => Err(format!(
            "unknown --algo {other} (deepwalk|ppr|node2vec|metapath|rwr|nobacktrack)"
        )),
    }
}

/// Parses a `--tenant-weight` spec: comma-separated `name=weight`
/// pairs, e.g. `batch=1,online=4`.
fn parse_tenant_weights(spec: &str) -> Result<Vec<(String, u32)>, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            let pair = pair.trim();
            let (name, w) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad --tenant-weight entry {pair:?}: want name=weight"))?;
            let weight: u32 = w
                .parse()
                .map_err(|_| format!("bad weight in --tenant-weight entry {pair:?}"))?;
            if weight == 0 {
                return Err(format!(
                    "weight must be >= 1 in --tenant-weight entry {pair:?}"
                ));
            }
            Ok((name.to_string(), weight))
        })
        .collect()
}

/// Runs the resident service for one program: TCP listener, signal
/// handling, and the in-process node cluster.
fn serve_program<P: WalkerProgram>(
    graph: GraphRef<'_>,
    program: P,
    args: &Args,
) -> Result<(), String> {
    use knightking::serve::ServiceConfig;

    let nodes: usize = args.parse_num("nodes", 1)?;
    let seed: u64 = args.parse_num("seed", 1)?;
    let scfg = ServiceConfig {
        queue_capacity: args.parse_num("queue-capacity", 64)?,
        max_admit_per_superstep: args.parse_num("max-admit", 8)?,
        retry_after_ms: args.parse_num("retry-after", 50)?,
        trace_sample: args.parse_num("trace-sample", 0)?,
        tenant_weights: match args.get("tenant-weight") {
            Some(spec) => parse_tenant_weights(spec)?,
            None => Vec::new(),
        },
        default_tenant_weight: args.parse_num("default-tenant-weight", 1)?,
        tenant_quota: args.parse_num("tenant-quota", 0)?,
    };
    let lcfg = knightking::serve::ListenerConfig {
        max_connections: args.parse_num(
            "max-connections",
            knightking::serve::ListenerConfig::default().max_connections,
        )?,
        idle_timeout: std::time::Duration::from_millis(args.parse_num("idle-timeout-ms", 60_000)?),
        write_deadline: std::time::Duration::from_millis(
            args.parse_num("write-deadline-ms", 10_000)?,
        ),
    };
    let listen = args.get("listen").unwrap_or("127.0.0.1:0");
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?;

    let (service, handle) = WalkService::new(scfg);

    // SIGINT/SIGTERM become a drain-then-exit shutdown: in-flight and
    // already-queued walks finish, then the loop and listener stop.
    let token = signal::install();
    {
        let h = handle.clone();
        std::thread::spawn(move || loop {
            if token.is_cancelled() {
                h.shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let accept_handle = handle.clone();
    let accept = std::thread::spawn(move || serve_listener_with(listener, accept_handle, lcfg));

    // Optional metrics plane: a second listener serving the Prometheus
    // text exposition (scraped by Prometheus, `curl`, or `kk top`).
    let metrics = match args.get("metrics-addr") {
        Some(maddr) => {
            let ml = std::net::TcpListener::bind(maddr)
                .map_err(|e| format!("binding metrics {maddr}: {e}"))?;
            let bound = ml
                .local_addr()
                .map_err(|e| format!("metrics address: {e}"))?;
            let mh = handle.clone();
            let t = std::thread::spawn(move || metrics_listener(ml, mh));
            Some((bound, t))
        }
        None => None,
    };

    // The parseable readiness lines scripts wait for (stdout; logs go to
    // stderr).
    println!("listening on {addr}");
    if let Some((bound, _)) = &metrics {
        println!("metrics on {bound}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} vertices{} on {nodes} node(s); ctrl-c or `kk query --addr {addr} --shutdown` to stop",
        graph.vertex_count(),
        if graph.dyn_graph().is_some() {
            " (dynamic: accepting `kk update`)"
        } else {
            ""
        }
    );

    // The live metrics plane (phase breakdown, exchange bytes) rides the
    // obs profile; the service folds it in bounded live mode, so it is
    // always on for a resident loop.
    let mut wcfg = WalkConfig::with_nodes(nodes, seed);
    wcfg.sampler = SamplerBackend::parse(args.get("sampler").unwrap_or("alias"))?;
    wcfg.profile = true;
    service.run(graph, program, wcfg);

    // Give connection threads a bounded window to flush final responses.
    let t0 = std::time::Instant::now();
    while handle.active_connections() > 0 && t0.elapsed() < std::time::Duration::from_secs(5) {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    accept
        .join()
        .map_err(|_| "accept loop panicked".to_string())?
        .map_err(|e| format!("accept loop: {e}"))?;
    if let Some((_, t)) = metrics {
        t.join()
            .map_err(|_| "metrics loop panicked".to_string())?
            .map_err(|e| format!("metrics loop: {e}"))?;
    }

    let stats = handle.stats();
    if args.has("stats") {
        eprint!("{}", stats.render_table());
    }
    if let Some(path) = args.get("stats-output") {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        stats
            .write_jsonl(&mut out)
            .and_then(|()| handle.trace_log().write_jsonl(&mut out))
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("serve stats written to {path}");
    }
    if let Some(path) = args.get("trace-output") {
        let log = handle.trace_log();
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        log.write_chrome_trace(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "trace written to {path} ({} spans, {} dropped) — open in Perfetto or chrome://tracing",
            log.len(),
            log.dropped()
        );
    }
    Ok(())
}

/// `kk top`: poll a service's stats endpoint and render a refreshing
/// dashboard — request/latency/phase breakdown plus an active-walker
/// sparkline, over the same KKSV protocol `kk query` speaks.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let interval = std::time::Duration::from_millis(args.parse_num("interval-ms", 1000)?);
    // `--once` prints a single plain frame (CI-friendly); `--count N`
    // stops after N frames; the default refreshes until ^C or disconnect.
    let frames: u64 = if args.has("once") {
        1
    } else {
        args.parse_num("count", 0)?
    };
    let mut stream = protocol::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let mut seq = 1u64;
    loop {
        let resp = match protocol::round_trip(&mut stream, seq, &Request::Stats) {
            Ok(r) => r,
            // The service shut down between polls: exit cleanly, like
            // `top` on a host going away.
            Err(_) if seq > 1 => {
                eprintln!("service at {addr} went away");
                return Ok(());
            }
            Err(e) => return Err(format!("polling {addr}: {e}")),
        };
        let report = match resp.status {
            Status::Stats(report) => report,
            other => return Err(format!("unexpected stats reply: {other:?}")),
        };
        if frames != 1 {
            // Clear and home between frames so the dashboard refreshes in
            // place rather than scrolling.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", report.render_dashboard());
        use std::io::Write as _;
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        if frames > 0 && seq >= frames {
            return Ok(());
        }
        seq += 1;
        std::thread::sleep(interval);
    }
}

/// `kk query`: one-shot client for a running `kk serve`.
fn cmd_query(args: &Args) -> Result<(), String> {
    use knightking::serve::{StartSpec, WalkRequest};

    let addr = args.require("addr")?;
    let wants_walk = args.get("walkers").is_some() || args.get("start").is_some();
    if !wants_walk && !args.has("shutdown") {
        return Err("query needs --walkers, --start, or --shutdown".to_string());
    }
    let tenant = args.get("tenant").unwrap_or("");
    let mut stream =
        protocol::connect_as(addr, tenant).map_err(|e| format!("connecting to {addr}: {e}"))?;

    if wants_walk {
        let starts = match (args.get("walkers"), args.get("start")) {
            (Some(_), Some(_)) => {
                return Err("--walkers and --start are mutually exclusive".to_string())
            }
            (Some(n), _) => StartSpec::Count(n.parse().map_err(|_| "bad --walkers".to_string())?),
            (None, Some(list)) => StartSpec::Explicit(parse_vertex_list(list)?),
            (None, None) => unreachable!("wants_walk implies one of the two"),
        };
        let req = Request::Walk(WalkRequest {
            seed: args.parse_num("seed", 1)?,
            starts,
            deadline_ms: args.parse_num("deadline", 0)?,
            stitch: false,
        });
        // A `Rejected` response is backpressure, not failure: honor the
        // service's retry-after hint with capped exponential backoff,
        // bounded by --retries (1 try total under --no-retry).
        let attempts: u64 = if args.has("no-retry") {
            1
        } else {
            args.parse_num("retries", 5)?
        };
        if attempts == 0 {
            return Err("--retries must be >= 1".to_string());
        }
        let mut attempt = 1u64;
        let resp = loop {
            let resp = protocol::round_trip(&mut stream, attempt, &req)
                .map_err(|e| format!("querying {addr}: {e}"))?;
            match resp.status {
                Status::Rejected { retry_after_ms } if attempt < attempts => {
                    let backoff = retry_after_ms
                        .max(1)
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(2_000);
                    eprintln!("rejected (attempt {attempt}/{attempts}); retrying in {backoff}ms");
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                    attempt += 1;
                }
                _ => break resp,
            }
        };
        let emit_paths = |paths: &[Vec<VertexId>]| -> Result<(), String> {
            match args.get("output") {
                Some(output) => {
                    let file = std::fs::File::create(output)
                        .map_err(|e| format!("creating {output}: {e}"))?;
                    write_path_lines(file, paths)?;
                    eprintln!("paths written to {output}");
                    Ok(())
                }
                None => write_path_lines(std::io::stdout(), paths),
            }
        };
        match resp.status {
            Status::Ok => {
                eprintln!("{} walks served", resp.paths.len());
                emit_paths(&resp.paths)?;
            }
            Status::Rejected { retry_after_ms } => {
                return Err(format!(
                    "rejected after {attempt} attempt(s): the queue is full; retry after {retry_after_ms}ms"
                ))
            }
            Status::DeadlineExceeded => {
                return Err("deadline exceeded: the walk was force-terminated".to_string())
            }
            Status::ShuttingDown => {
                return Err("the service is shutting down and admits nothing new".to_string())
            }
            Status::Invalid(msg) => return Err(format!("invalid request: {msg}")),
            Status::Updated { epoch } => {
                return Err(format!(
                    "unexpected update ack (epoch {epoch}) for a walk request"
                ))
            }
            Status::Stats(_) => return Err("unexpected stats reply for a walk request".to_string()),
        }
    }

    if args.has("shutdown") {
        let ack = protocol::round_trip(&mut stream, 2, &Request::Shutdown)
            .map_err(|e| format!("shutting down {addr}: {e}"))?;
        match ack.status {
            Status::Ok => eprintln!("shutdown requested; the service drains and exits"),
            other => return Err(format!("unexpected shutdown ack: {other:?}")),
        }
    }
    Ok(())
}

/// Parses an update file into a batch. One op per line, `#` comments and
/// blank lines skipped:
///
/// ```text
/// add src dst [weight] [type]
/// del src dst
/// rew src dst weight
/// ```
fn parse_update_lines(text: &str) -> Result<UpdateBatch, String> {
    let mut batch = UpdateBatch::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let fields: Vec<&str> = parts.collect();
        let bad = |what: &str| format!("update line {}: {what}: {raw:?}", lineno + 1);
        let vertex = |s: &str, name: &str| -> Result<VertexId, String> {
            s.parse().map_err(|_| bad(&format!("bad {name}")))
        };
        match op {
            "add" => {
                if fields.len() < 2 || fields.len() > 4 {
                    return Err(bad("want `add src dst [weight] [type]`"));
                }
                batch.adds.push(EdgeAdd {
                    src: vertex(fields[0], "src")?,
                    dst: vertex(fields[1], "dst")?,
                    weight: match fields.get(2) {
                        Some(w) => w.parse().map_err(|_| bad("bad weight"))?,
                        None => 1.0,
                    },
                    edge_type: match fields.get(3) {
                        Some(t) => t.parse().map_err(|_| bad("bad edge type"))?,
                        None => 0,
                    },
                });
            }
            "del" => {
                if fields.len() != 2 {
                    return Err(bad("want `del src dst`"));
                }
                batch.dels.push(EdgeRef {
                    src: vertex(fields[0], "src")?,
                    dst: vertex(fields[1], "dst")?,
                });
            }
            "rew" => {
                if fields.len() != 3 {
                    return Err(bad("want `rew src dst weight`"));
                }
                batch.reweights.push(EdgeReweight {
                    src: vertex(fields[0], "src")?,
                    dst: vertex(fields[1], "dst")?,
                    weight: fields[2].parse().map_err(|_| bad("bad weight"))?,
                });
            }
            other => return Err(bad(&format!("unknown op {other:?} (add|del|rew)"))),
        }
    }
    Ok(batch)
}

/// `kk update`: send an update batch to a running `kk serve --dynamic`.
fn cmd_update(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let path = args.require("updates")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let batch = parse_update_lines(&text)?;
    eprintln!(
        "{}: {} adds, {} deletions, {} reweights",
        path,
        batch.adds.len(),
        batch.dels.len(),
        batch.reweights.len()
    );
    let mut stream = protocol::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = protocol::round_trip(&mut stream, 1, &Request::Update(batch))
        .map_err(|e| format!("updating {addr}: {e}"))?;
    match resp.status {
        Status::Updated { epoch } => {
            // The parseable line scripts key on (stdout).
            println!("updated: epoch {epoch}");
            Ok(())
        }
        Status::Invalid(msg) => Err(format!("invalid update: {msg}")),
        Status::Rejected { retry_after_ms } => Err(format!(
            "rejected: the update queue is full; retry after {retry_after_ms}ms"
        )),
        Status::ShuttingDown => {
            Err("the service is shutting down and accepts no updates".to_string())
        }
        other => Err(format!("unexpected update ack: {other:?}")),
    }
}

/// `kk graph info <file.kkg>`: print the binary-format header and
/// workload-balance diagnostics without walking anything.
fn cmd_graph_info(path: &str, args: &Args) -> Result<(), String> {
    // Decode the raw header first, so the printout reflects the bytes on
    // disk (not a round trip through the loader).
    let is_kkg = Path::new(path).extension().is_some_and(|e| e == "kkg");
    if is_kkg {
        use std::io::Read as _;
        let mut f = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        let mut header = [0u8; 21];
        f.read_exact(&mut header)
            .map_err(|e| format!("reading {path} header: {e}"))?;
        let magic = &header[0..4];
        let flags = header[4];
        let v = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let e = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
        println!("magic            {}", String::from_utf8_lossy(magic));
        println!("format version   {}", char::from(magic[3]));
        println!("header flags     {flags:#04x}");
        println!("header |V|       {v}");
        println!("header |E|       {e}");
    }
    let graph = load_graph(
        path,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    println!("|V|              {}", graph.vertex_count());
    println!("stored |E|       {}", graph.edge_count());
    println!("weighted         {}", graph.is_weighted());
    println!("typed            {}", graph.is_typed());
    println!("max degree       {}", graph.max_degree());

    // Static-sampler memory: what each backend would allocate for this
    // graph's weighted per-vertex tables (alias: 12 B/edge; radix: three
    // f64 segment trees over the next power of two of the degree).
    if graph.is_weighted() {
        let mut alias_bytes = 0u64;
        let mut radix_bytes = 0u64;
        for v in 0..graph.vertex_count() as u32 {
            let deg = graph.degree(v) as u64;
            if deg > 0 {
                alias_bytes += 12 * deg;
                radix_bytes += 3 * 2 * deg.next_power_of_two() * 8;
            }
        }
        println!("sampler footprint (weighted static component):");
        println!(
            "  alias: {alias_bytes} bytes ({:.1} B/edge), O(degree) update",
            alias_bytes as f64 / graph.edge_count().max(1) as f64
        );
        println!(
            "  radix: {radix_bytes} bytes ({:.1} B/edge), O(log degree) update",
            radix_bytes as f64 / graph.edge_count().max(1) as f64
        );
    }

    // Workload balance: the paper's α·|V_i| + |E_i| estimate per node of
    // the 1-D balanced partitioning (§6.1).
    let nodes: usize = args.parse_num("nodes", 4)?;
    let alpha: f64 = args.parse_num("alpha", 1.0)?;
    let partition = Partition::balanced(&graph, nodes, alpha);
    let loads = partition.workloads(&graph, alpha);
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    println!("partition balance (α = {alpha}, {nodes} nodes):");
    for (node, load) in loads.iter().enumerate() {
        let r = partition.range(node);
        let edges = load - alpha * (r.end - r.start) as f64;
        println!(
            "  node {node}: vertices [{}, {}) ({}), edges {}, α·V + E = {:.0} ({:+.1}% of mean)",
            r.start,
            r.end,
            r.end - r.start,
            edges as u64,
            load,
            if mean > 0.0 {
                100.0 * (load - mean) / mean
            } else {
                0.0
            }
        );
    }
    let max = loads.iter().cloned().fold(0.0_f64, f64::max);
    if mean > 0.0 {
        println!("  imbalance (max/mean): {:.4}", max / mean);
    }
    Ok(())
}

/// `kk graph apply`: materialize a base graph plus an update file into a
/// new graph file — the offline mirror of serving updates live, used to
/// cross-check served walks against batch walks on the updated graph.
fn cmd_graph_apply(args: &Args) -> Result<(), String> {
    let csr = load_graph(
        args.require("graph")?,
        args.has("weighted"),
        args.has("typed"),
        !args.has("directed"),
    )?;
    let path = args.require("updates")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let batch = parse_update_lines(&text)?;
    let dyn_graph = DynGraph::new(csr, DynConfig::default());
    let applied = dyn_graph
        .apply(&batch)
        .map_err(|e| format!("applying {path}: {e}"))?;
    let out = dyn_graph.materialize();
    save_graph(&out, args.require("output")?)?;
    println!(
        "applied {} ops touching {} vertices: |V| = {}, stored |E| = {}",
        batch.len(),
        applied.touched.len(),
        out.vertex_count(),
        out.edge_count()
    );
    Ok(())
}

/// `kk graph <info|apply> ...` dispatcher. `info` accepts the file as a
/// positional argument (`kk graph info g.kkg`) or via `--graph`.
fn cmd_graph(rest: &[String]) -> Result<(), String> {
    let Some((sub, sub_rest)) = rest.split_first() else {
        return Err("graph needs a subcommand: kk graph <info|apply> ...".to_string());
    };
    match sub.as_str() {
        "info" => {
            let (positional, flag_args) = match sub_rest.first() {
                Some(first) if !first.starts_with("--") => (Some(first.clone()), &sub_rest[1..]),
                _ => (None, sub_rest),
            };
            let args = Args::parse(flag_args, &GRAPH_INFO)?;
            let path = match (&positional, args.get("graph")) {
                (Some(p), None) => p.clone(),
                (None, Some(p)) => p.to_string(),
                (Some(_), Some(_)) => {
                    return Err("give the graph positionally or via --graph, not both".to_string())
                }
                (None, None) => return Err("graph info needs a graph file".to_string()),
            };
            cmd_graph_info(&path, &args)
        }
        "apply" => cmd_graph_apply(&Args::parse(sub_rest, &GRAPH_APPLY)?),
        other => Err(format!("unknown graph subcommand {other} (info|apply)")),
    }
}

/// `kk cluster [--nodes N | --hostfile F --rank R] [--epoch E] -- walk ...`
///
/// Two modes share one entry point:
///
/// * **Launcher** (no `--rank`): reserve N loopback ports, spawn N child
///   processes of this same binary — each a worker with its rank — and
///   wait for all of them. One laptop, real sockets.
/// * **Worker** (`--rank R`): connect the TCP mesh and run the walk as
///   rank R. With `--hostfile` listing one `host:port` per line this is
///   the multi-machine mode: start the same command on every host,
///   varying only `--rank`.
fn cmd_cluster(cluster_args: &[String], walk_args: &[String]) -> Result<(), String> {
    if walk_args.first().map(String::as_str) != Some("walk") {
        return Err("cluster runs a walk: kk cluster ... -- walk ...".to_string());
    }
    let args = Args::parse(cluster_args, &CLUSTER)?;
    // Parsed before anything is spawned or connected, so a bad walk flag
    // is one error from the launcher, not one per worker.
    let wargs = Args::parse(&walk_args[1..], &WALK)?;
    match args.get("rank") {
        None => cluster_launch(&args, walk_args),
        Some(_) => cluster_worker(&args, &wargs),
    }
}

/// Parses the worker's peer list: inline `--peers a:1,b:2` or a
/// `--hostfile` with one address per line (`#` comments allowed).
fn parse_peers(args: &Args) -> Result<Vec<SocketAddr>, String> {
    let entries: Vec<String> = if let Some(list) = args.get("peers") {
        list.split(',').map(str::to_string).collect()
    } else if let Some(path) = args.get("hostfile") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading hostfile {path}: {e}"))?;
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    } else {
        return Err("worker needs --peers or --hostfile".to_string());
    };
    entries
        .iter()
        .map(|e| {
            e.parse()
                .map_err(|_| format!("bad peer address {e:?} (want host:port)"))
        })
        .collect()
}

/// Launcher mode: spawn `--nodes` workers on loopback and reap them.
fn cluster_launch(args: &Args, walk_args: &[String]) -> Result<(), String> {
    let nodes: usize = args.parse_num("nodes", 4)?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    let addrs = reserve_loopback_addrs(nodes).map_err(|e| format!("reserving ports: {e}"))?;
    let peers = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    // A fresh epoch per launch keeps stragglers from a previous run (or a
    // concurrent one) out of this mesh.
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        ^ u64::from(std::process::id());
    let exe = std::env::current_exe().map_err(|e| format!("locating kk binary: {e}"))?;

    let mut children = Vec::with_capacity(nodes);
    for rank in 0..nodes {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("cluster")
            .args(["--rank", &rank.to_string()])
            .args(["--nodes", &nodes.to_string()])
            .args(["--peers", &peers])
            .args(["--epoch", &epoch.to_string()])
            .arg("--")
            .args(walk_args);
        if rank != 0 {
            // Only the leader reports results; silencing follower stdout
            // keeps `kk cluster ... | sort` and friends sane.
            cmd.stdout(std::process::Stdio::null());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning worker {rank}: {e}"))?;
        children.push((rank, child));
    }

    let mut failed = Vec::new();
    for (rank, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("worker {rank} exited with {status}")),
            Err(e) => failed.push(format!("waiting for worker {rank}: {e}")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Worker mode: join the TCP mesh as `--rank` and run the walk.
fn cluster_worker(args: &Args, wargs: &Args) -> Result<(), String> {
    let rank: usize = args.parse_num("rank", 0)?;
    let epoch: u64 = args.parse_num("epoch", 0)?;
    let peers = parse_peers(args)?;
    if rank >= peers.len() {
        return Err(format!(
            "--rank {rank} out of range for {} peers",
            peers.len()
        ));
    }
    if args.get("nodes").is_some() {
        let n: usize = args.parse_num("nodes", peers.len())?;
        if n != peers.len() {
            return Err(format!(
                "--nodes {n} but peer list has {} entries",
                peers.len()
            ));
        }
    }
    let mut transport = TcpTransport::establish(TcpConfig::new(rank, peers, epoch))
        .map_err(|e| format!("rank {rank}: establishing cluster: {e}"))?;

    cmd_walk(wargs, Some(&mut transport))
}

const USAGE: &str = "\
kk — KnightKing random walk engine

USAGE:
  kk generate --kind <uniform|powerlaw|livejournal|friendster|twitter>
              [--n N | --scale S] [--degree D] [--cap C] [--gamma G]
              [--weighted] [--types T] [--seed S] --output <file[.kkg]>
  kk convert  --input <file> [--weighted] [--typed] [--directed] --output <file[.kkg]>
  kk stats    --graph <file> [--weighted] [--typed] [--directed]
  kk walk     --graph <file> --algo <deepwalk|ppr|node2vec|metapath|rwr|nobacktrack>
              [--length N] [--p P] [--q Q] [--pt PT] [--restart C]
              [--walkers N|pervertex | --start v1,v2,...] [--nodes N] [--seed S]
              [--sampler alias|radix] [--output paths.txt] [--stats]
              [--profile prof.jsonl]
              --sampler picks the weighted static-component backend:
              alias (O(1) sample, O(degree) update) or radix (O(log n)
              sample and update — for dynamic graphs under churn)
  kk serve    --graph <file> --algo <...> [walk params as above]
              [--listen 127.0.0.1:0] [--nodes N] [--queue-capacity C]
              [--max-admit A] [--retry-after MS] [--seed S]
              [--max-connections N] [--idle-timeout-ms MS]
              [--write-deadline-ms MS]
              [--tenant-weight name=w,name=w] [--default-tenant-weight W]
              [--tenant-quota N]
              [--dynamic] [--compact-ratio R] [--sampler alias|radix]
              [--stats] [--stats-output serve.jsonl]
              [--metrics-addr 127.0.0.1:0] [--trace-sample N]
              [--trace-output trace.json]
              load the graph once, print `listening on <addr>`, and serve
              walk queries until `kk query --shutdown` or SIGINT/SIGTERM;
              all client connections share one event-loop thread
              (--max-connections caps them; idle and stalled-writer
              connections are evicted on the listed timeouts); requests
              are scheduled across tenants by weighted fair queueing
              (--tenant-weight / --default-tenant-weight), and
              --tenant-quota N sheds any single tenant holding more than
              N queued requests; with --dynamic the graph accepts live
              `kk update` batches; --metrics-addr binds a Prometheus text
              endpoint (printed as `metrics on <addr>`), --trace-sample N
              traces every Nth request, and --trace-output writes the
              gathered spans as Chrome trace-event JSON (Perfetto /
              chrome://tracing)
  kk query    --addr <host:port> [--walkers N | --start v1,v2,...]
              [--seed S] [--deadline MS] [--tenant NAME] [--retries N]
              [--no-retry] [--output paths.txt] [--shutdown]
              served paths are byte-identical to `kk walk` with the same
              seed and starts; --tenant names this client's QoS lane, and
              a Rejected response is retried with capped exponential
              backoff (--retries, default 5) unless --no-retry
  kk top      --addr <host:port> [--interval-ms MS] [--count N] [--once]
              live dashboard for a running `kk serve`: requests, latency
              quantiles, phase breakdown, and an active-walker sparkline;
              --once prints a single plain frame (for scripts/CI)
  kk update   --addr <host:port> --updates <file>
              send an edge update batch to a running `kk serve --dynamic`;
              the file has one op per line: `add src dst [weight] [type]`,
              `del src dst`, `rew src dst weight` (# comments allowed)
  kk graph    info <file[.kkg]> [--nodes N] [--alpha A]
              print the binary header, counts/flags, the alias-vs-radix
              sampler memory footprint (weighted graphs), and the
              per-node alpha*V + E partition balance
  kk graph    apply --graph <file> --updates <file> --output <file[.kkg]>
              materialize base graph + updates into a new graph file (the
              offline mirror of `kk update` against a live service)
  kk cluster  [--nodes N] -- walk <walk args...>
              spawn N local worker processes talking real TCP on loopback
  kk cluster  --hostfile <file> --rank R [--epoch E] -- walk <walk args...>
              join a multi-machine cluster as rank R (hostfile lists one
              host:port per line; run the same command on every host)
  kk embed    --graph <file> [--p P] [--q Q] [--length N] [--dims D]
              [--window W] [--negatives K] [--epochs E] [--lr LR]
              [--nodes N] [--seed S] --output <embeddings.txt>
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = |spec: &Flags, f: fn(&Args) -> Result<(), String>| {
        Args::parse(rest, spec).and_then(|args| f(&args))
    };
    let result = match cmd.as_str() {
        // `--` separates cluster flags from the walk invocation.
        "cluster" => match rest.iter().position(|a| a == "--") {
            Some(i) => cmd_cluster(&rest[..i], &rest[i + 1..]),
            None => Err("cluster needs `-- walk ...` after its flags".to_string()),
        },
        // `graph` takes a subcommand and (for `info`) a positional file,
        // so it parses its own flags.
        "graph" => cmd_graph(rest),
        "generate" => run(&GENERATE, cmd_generate),
        "convert" => run(&CONVERT, cmd_convert),
        "stats" => run(&STATS, cmd_stats),
        "walk" => run(&WALK, |args| cmd_walk(args, None)),
        "serve" => run(&SERVE, cmd_serve),
        "query" => run(&QUERY, cmd_query),
        "update" => run(&UPDATE, cmd_update),
        "top" => run(&TOP, cmd_top),
        "embed" => run(&EMBED, cmd_embed),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
