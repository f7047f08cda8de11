//! A `FlatAlias` row is the `AliasTable` of the same weights: built by
//! the same Vose routine, so equal in every bit, and drawn from with the
//! same RNG words.

use knightking_sampling::{
    alias::{self, VoseScratch},
    AliasTable, DeterministicRng, FlatAlias,
};

/// The rows under test: random weights of many lengths, rows with zero
/// entries, single outcomes, and the rows that have no table at all
/// (empty, all zero, an invalid weight).
fn rows() -> Vec<Vec<f64>> {
    let mut rng = DeterministicRng::new(0xA11A5);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for len in (1..40).chain([64, 257, 1000]) {
        rows.push((0..len).map(|_| rng.next_f64() * 100.0).collect());
        rows.push(
            (0..len)
                .map(|_| if rng.chance(0.4) { 0.0 } else { rng.next_f64() })
                .collect(),
        );
    }
    rows.extend([
        vec![3.5],
        vec![1e9, 1.0],
        vec![],
        vec![0.0],
        vec![0.0, 0.0, 0.0],
        vec![1.0, -2.0],
        vec![f64::NAN, 1.0],
    ]);
    rows
}

fn flat_of(rows: &[Vec<f64>], rows_per_block: usize) -> FlatAlias {
    let mut flat = FlatAlias::with_row_lens(rows.iter().map(Vec::len));
    let mut scratch = VoseScratch::default();
    for mut block in flat.row_blocks_mut(rows_per_block) {
        for k in 0..block.rows() {
            block.fill(k, &rows[block.first_row + k], &mut scratch);
        }
    }
    flat
}

#[test]
fn flat_rows_equal_alias_tables_bit_for_bit() {
    let rows = rows();
    // Every blocking (one row per block, uneven, all in one) builds the
    // same store: scratch reuse and block boundaries leave no trace.
    for rows_per_block in [1, 7, rows.len() + 1] {
        let flat = flat_of(&rows, rows_per_block);
        assert_eq!(flat.cells(), rows.iter().map(Vec::len).sum::<usize>());
        for (r, weights) in rows.iter().enumerate() {
            let (prob, alias) = flat.row(r);
            assert_eq!(prob.len(), weights.len());
            let Ok(table) = AliasTable::new(weights) else {
                assert_eq!(flat.total(r), 0.0, "row {r} has no table");
                continue;
            };
            assert_eq!(flat.total(r).to_bits(), table.total_weight().to_bits());
            let (p, a) = table.cells();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(prob), bits(p), "row {r} prob");
            assert_eq!(alias, a, "row {r} alias");
        }
    }
}

#[test]
fn flat_and_table_draws_consume_the_same_rng_words() {
    let rows = rows();
    let flat = flat_of(&rows, 5);
    let mut cell = 0usize;
    for (r, weights) in rows.iter().enumerate() {
        let row_start = cell;
        cell += weights.len();
        let Ok(table) = AliasTable::new(weights) else {
            continue;
        };
        let seed = 77 + r as u64;
        let (mut a, mut b, mut c) = (
            DeterministicRng::new(seed),
            DeterministicRng::new(seed),
            DeterministicRng::new(seed),
        );
        for _ in 0..200 {
            let want = table.sample(&mut a);
            assert_eq!(flat.sample(r, &mut b), want, "row {r}");
            // The split draw the step kernel uses.
            let (bucket, coin) = alias::draw_cell(weights.len(), &mut c);
            assert_eq!(flat.resolve_at(row_start, bucket, coin), want, "row {r}");
            assert!(weights[want] > 0.0, "row {r} drew a zero-weight outcome");
        }
        // All three streams stand at the same word.
        assert_eq!(a.next_u64(), b.next_u64(), "row {r}");
        assert_eq!(b.state(), {
            c.next_u64();
            c.state()
        });
    }
}
