//! Walk results: reassembled paths, per-iteration activity, metrics.

use knightking_graph::VertexId;
use knightking_net::{Wire, WireError};

use crate::metrics::WalkMetrics;

/// One recorded path entry: walker `walker` stood at `vertex` after
/// `step` steps. Nodes record entries locally as walkers pass through
/// (mirroring the paper's per-node walking trace collection); the engine
/// reassembles full paths at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Walker id.
    pub walker: u64,
    /// Step index (0 = start vertex).
    pub step: u32,
    /// Vertex visited.
    pub vertex: VertexId,
}

/// Path fragments travel to the leader in the end-of-run result gather of
/// multi-process runs.
impl Wire for PathEntry {
    fn wire_size(&self) -> usize {
        8 + 4 + 4
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.walker.encode(out)?;
        self.step.encode(out)?;
        self.vertex.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(PathEntry {
            walker: u64::decode(input)?,
            step: u32::decode(input)?,
            vertex: VertexId::decode(input)?,
        })
    }
}

/// The outcome of one engine run.
#[derive(Debug, Clone)]
pub struct WalkResult {
    /// Full walk sequences indexed by walker id; empty when path recording
    /// is disabled.
    pub paths: Vec<Vec<VertexId>>,
    /// Number of walkers still active after each BSP iteration — the
    /// series behind the paper's Figure 5 tail-behavior plot.
    pub active_per_iteration: Vec<u64>,
    /// Aggregated counters.
    pub metrics: WalkMetrics,
    /// Inter-node communication volume (remote messages, bytes,
    /// exchanges) over the whole run.
    pub comm: knightking_cluster::metrics::MetricCounts,
    /// Wall-clock duration of the walk phase (initialization of walkers
    /// and sampling structures included; graph loading and partitioning
    /// excluded — matching the paper's §7.1 methodology).
    pub elapsed: std::time::Duration,
    /// Observability profile of the run (phase timers, trace events,
    /// histograms per node); `Some` only when `WalkConfig::profile` was
    /// set. Render it with `RunProfile::render_table` or
    /// `RunProfile::write_jsonl`.
    pub profile: Option<knightking_obs::RunProfile>,
}

impl WalkResult {
    /// Dumps the recorded walk sequences as plain text, one walk per
    /// line, vertices space-separated — the corpus format SkipGram-style
    /// consumers (word2vec, gensim) ingest directly.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_paths<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(writer);
        for path in &self.paths {
            let mut first = true;
            for &v in path {
                if !first {
                    write!(out, " ")?;
                }
                write!(out, "{v}")?;
                first = false;
            }
            writeln!(out)?;
        }
        use std::io::Write as _;
        out.flush()
    }

    /// Reassembles per-walker paths from unordered per-node fragments.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if fragments contain duplicate
    /// `(walker, step)` pairs or leave gaps — both would indicate an
    /// engine bug.
    pub fn assemble_paths(n_walkers: u64, mut fragments: Vec<PathEntry>) -> Vec<Vec<VertexId>> {
        let mut lens = vec![0u32; n_walkers as usize];
        for e in &fragments {
            let l = &mut lens[e.walker as usize];
            *l = (*l).max(e.step + 1);
        }
        let mut paths: Vec<Vec<VertexId>> = lens
            .iter()
            .map(|&l| vec![VertexId::MAX; l as usize])
            .collect();
        fragments.sort_unstable_by_key(|e| (e.walker, e.step));
        for e in fragments {
            let slot = &mut paths[e.walker as usize][e.step as usize];
            debug_assert_eq!(*slot, VertexId::MAX, "duplicate path entry");
            *slot = e.vertex;
        }
        for (w, p) in paths.iter().enumerate() {
            debug_assert!(
                p.iter().all(|&v| v != VertexId::MAX),
                "gap in path of walker {w}"
            );
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_interleaved_fragments() {
        let frags = vec![
            PathEntry {
                walker: 1,
                step: 1,
                vertex: 30,
            },
            PathEntry {
                walker: 0,
                step: 0,
                vertex: 10,
            },
            PathEntry {
                walker: 1,
                step: 0,
                vertex: 20,
            },
            PathEntry {
                walker: 0,
                step: 2,
                vertex: 12,
            },
            PathEntry {
                walker: 0,
                step: 1,
                vertex: 11,
            },
        ];
        let paths = WalkResult::assemble_paths(2, frags);
        assert_eq!(paths[0], vec![10, 11, 12]);
        assert_eq!(paths[1], vec![20, 30]);
    }

    #[test]
    fn walkers_without_fragments_get_empty_paths() {
        let paths = WalkResult::assemble_paths(
            3,
            vec![PathEntry {
                walker: 1,
                step: 0,
                vertex: 5,
            }],
        );
        assert!(paths[0].is_empty());
        assert_eq!(paths[1], vec![5]);
        assert!(paths[2].is_empty());
    }

    #[test]
    fn empty_input() {
        let paths = WalkResult::assemble_paths(0, Vec::new());
        assert!(paths.is_empty());
    }

    #[test]
    fn write_paths_is_one_walk_per_line() {
        let r = WalkResult {
            paths: vec![vec![1, 2, 3], vec![], vec![7]],
            active_per_iteration: Vec::new(),
            metrics: crate::metrics::WalkMetrics::default(),
            comm: Default::default(),
            elapsed: std::time::Duration::ZERO,
            profile: None,
        };
        let mut buf = Vec::new();
        r.write_paths(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1 2 3\n\n7\n");
    }

    #[test]
    #[should_panic(expected = "duplicate path entry")]
    #[cfg(debug_assertions)]
    fn duplicate_entries_caught() {
        WalkResult::assemble_paths(
            1,
            vec![
                PathEntry {
                    walker: 0,
                    step: 0,
                    vertex: 1,
                },
                PathEntry {
                    walker: 0,
                    step: 0,
                    vertex: 2,
                },
            ],
        );
    }
}
