//! Everything a run derives from `--seed`: the graph, the engine seed,
//! request seeds, the arrival schedule and the churn content. The
//! program under test only ever sees these generated inputs.

use knightking_dyn::{EdgeAdd, EdgeRef, EdgeReweight, UpdateBatch};
use knightking_graph::gen::{self, GenOptions};
use knightking_graph::{CsrGraph, VertexId};
use knightking_sampling::DeterministicRng;

/// Independent random streams of one run, by purpose.
#[derive(Clone, Copy)]
pub enum Stream {
    Graph = 1,
    Engine = 2,
    Arrivals = 3,
    RequestSeeds = 4,
    Churn = 5,
    Probe = 6,
}

pub fn rng(seed: u64, stream: Stream) -> DeterministicRng {
    rng_of(seed, stream, 0)
}

/// The stream of the `lifetime`-th service of a run, so that no two
/// service lifetimes replay the same arrivals.
pub fn rng_of(seed: u64, stream: Stream, lifetime: u64) -> DeterministicRng {
    DeterministicRng::for_stream(seed, 0xBE7C_0000 + stream as u64 + (lifetime << 8))
}

/// A `u64` drawn from the stream — used where the program wants a seed.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    rng(seed, stream).next_u64()
}

/// The workload graph: weighted (uniform `[1, 5)`) `twitter_like`.
pub fn graph(seed: u64, scale: u32) -> CsrGraph {
    gen::presets::twitter_like(
        scale,
        GenOptions::paper_weighted(derive(seed, Stream::Graph)),
    )
}

/// Poisson arrivals at `rate` per second over `seconds`: due times in
/// nanoseconds from the phase start, ascending.
pub fn poisson_schedule(rng: &mut DeterministicRng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// Operations per update batch.
pub const CHURN_OPS: usize = 16;

/// Source of churn batches over one base graph: every operation names
/// an edge that exists in the base graph, its source drawn
/// degree-proportionally (a uniform pick over the edge array).
pub struct ChurnSource<'g> {
    graph: &'g CsrGraph,
    /// `offsets[v]` = edges before vertex `v`'s row.
    offsets: Vec<u64>,
    rng: DeterministicRng,
}

impl<'g> ChurnSource<'g> {
    pub fn new(graph: &'g CsrGraph, seed: u64, lifetime: u64) -> Self {
        let mut offsets = Vec::with_capacity(graph.vertex_count() + 1);
        let mut acc = 0u64;
        for v in 0..graph.vertex_count() {
            offsets.push(acc);
            acc += graph.degree(v as VertexId) as u64;
        }
        offsets.push(acc);
        ChurnSource {
            graph,
            offsets,
            rng: rng_of(seed, Stream::Churn, lifetime),
        }
    }

    fn pick_edge(&mut self) -> (VertexId, VertexId) {
        let total = *self.offsets.last().expect("offsets are never empty");
        let e = self.rng.next_bounded(total);
        let v = self.offsets.partition_point(|&o| o <= e) - 1;
        let dst = self.graph.neighbors(v as VertexId)[(e - self.offsets[v]) as usize];
        (v as VertexId, dst)
    }

    fn weight(&mut self) -> f32 {
        1.0 + self.rng.next_f64() as f32 * 4.0
    }

    /// The next batch: 80 % reweights, 10 % adds, 10 % deletions.
    pub fn next_batch(&mut self) -> UpdateBatch {
        let mut batch = UpdateBatch::default();
        for _ in 0..CHURN_OPS {
            let (src, dst) = self.pick_edge();
            match self.rng.next_bounded(10) {
                0 => {
                    let dst = self.rng.next_bounded(self.graph.vertex_count() as u64) as VertexId;
                    let weight = self.weight();
                    batch.adds.push(EdgeAdd {
                        src,
                        dst,
                        weight,
                        edge_type: 0,
                    });
                }
                1 => batch.dels.push(EdgeRef { src, dst }),
                _ => {
                    let weight = self.weight();
                    batch.reweights.push(EdgeReweight { src, dst, weight });
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = poisson_schedule(&mut rng(7, Stream::Arrivals), 2_000.0, 0.5);
        let b = poisson_schedule(&mut rng(7, Stream::Arrivals), 2_000.0, 0.5);
        let c = poisson_schedule(&mut rng(8, Stream::Arrivals), 2_000.0, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // ~1 000 arrivals; 5 sigma is ~160.
        assert!((840..1160).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn churn_names_existing_edges() {
        let g = graph(3, 8);
        let mut src = ChurnSource::new(&g, 3, 0);
        for _ in 0..20 {
            let b = src.next_batch();
            assert_eq!(b.len(), CHURN_OPS);
            for r in &b.reweights {
                assert!(g.has_edge(r.src, r.dst));
                assert!((1.0..5.0).contains(&r.weight));
            }
            for d in &b.dels {
                assert!(g.has_edge(d.src, d.dst));
            }
            for a in &b.adds {
                assert!(g.degree(a.src) > 0);
            }
        }
        let first = ChurnSource::new(&g, 3, 0).next_batch();
        assert_eq!(first, ChurnSource::new(&g, 3, 0).next_batch());
    }
}
