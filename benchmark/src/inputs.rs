//! Everything a workload is fed is made here, from `--seed` alone: field contents,
//! Zipf draws, range offsets. The program under test only ever sees these inputs.

use huffdec::datasets::{all_datasets, dataset_by_name, generate, Dims, Field};

/// Elements of one file-workload field (16 MB of f32): large enough that decode or
/// encode work, not per-call overhead, is what a file workload measures.
pub const BIG_ELEMENTS: usize = 4_000_000;

/// Elements of one served field (256 KB of f32): small enough that launch overhead and
/// the scheduler's wave tick are visible next to the decode itself.
pub const SMALL_ELEMENTS: usize = 65_536;

/// Dense fields in the served set (every registry dataset, three seeds each).
pub const SERVED_DENSE: usize = 24;

/// Sparse walk fields in the served set (stored as RLE+Huffman hybrids under HFZ2).
pub const SERVED_HYBRID: usize = 8;

/// Share of flat steps in the sparse walk fields, in percent.
pub const WALK_ZERO_PCT: u64 = 95;

/// The three compression-ratio regimes of the paper's evaluation: low (HACC, ≈6),
/// middle (CESM, ≈18) and high (GAMESS, ≈24).
pub const BIG_DATASETS: [&str; 3] = ["HACC", "CESM", "GAMESS"];

/// The benchmark's own generator (splitmix64), so that request sequences do not move
/// when the program's `datasets::Rng` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A bounded random walk: `zero_pct` % of steps repeat the previous value (a
/// centre-bin code under an absolute error bound of 0.5), the rest jump by at most
/// ±200 quantization bins.
pub fn walk_field(n: usize, zero_pct: u64, seed: u64) -> Field {
    let mut rng = Rng::new(seed);
    let mut value = 0.0f32;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            if rng.below(100) >= zero_pct {
                value += rng.below(401) as f32 - 200.0;
            }
            value
        })
        .collect();
    Field::new(format!("walk{}", zero_pct), Dims::D1(n), data)
}

/// One field of a named registry dataset at about `elements` elements.
pub fn dataset_field(name: &str, elements: usize, seed: u64) -> Field {
    let spec = dataset_by_name(name).expect("a registry dataset");
    generate(&spec, elements, seed)
}

/// The three big fields of the file workloads.
pub fn big_fields(seed: u64) -> Vec<Field> {
    BIG_DATASETS
        .iter()
        .enumerate()
        .map(|(i, name)| dataset_field(name, BIG_ELEMENTS, seed.wrapping_add(i as u64)))
        .collect()
}

/// The big sparse field of `file_compress`.
pub fn big_walk_field(seed: u64) -> Field {
    walk_field(BIG_ELEMENTS, WALK_ZERO_PCT, seed.wrapping_add(1000))
}

/// The served set: 24 dense fields then 8 sparse walks, in archive order.
pub fn served_fields(seed: u64) -> (Vec<Field>, Vec<Field>) {
    let specs = all_datasets();
    let dense = (0..SERVED_DENSE)
        .map(|i| {
            generate(
                &specs[i % specs.len()],
                SMALL_ELEMENTS,
                seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let sparse = (0..SERVED_HYBRID)
        .map(|i| {
            walk_field(
                SMALL_ELEMENTS,
                WALK_ZERO_PCT,
                seed.wrapping_add(2000 + i as u64),
            )
        })
        .collect();
    (dense, sparse)
}

/// Zipf(1.0) popularity: the item at rank `r` of `item_of_rank` is drawn with weight
/// `1 / (r + 1)`. Which item holds which rank is the caller's decision and not the
/// seed's: in a fleet it fixes each shard's share of the traffic, and a share that
/// moved with the seed would move every latency with it.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    pub fn new(item_of_rank: Vec<u32>) -> Zipf {
        let weights: Vec<f64> = (0..item_of_rank.len())
            .map(|r| 1.0 / (r as f64 + 1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf, item_of_rank }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// Deals popularity ranks to items so that every group (a shard's fields) gets the
/// same share of a Zipf distribution, as nearly as its size allows: ranks go round the
/// groups in snake order (0 1 2 3 3 2 1 0 ...), each group handing out its items in
/// index order, and a group that has run out is skipped.
pub fn deal_ranks(group_of_item: &[usize], groups: usize) -> Vec<u32> {
    let mut remaining: Vec<std::collections::VecDeque<u32>> = vec![Default::default(); groups];
    for (item, &group) in group_of_item.iter().enumerate() {
        remaining[group].push_back(item as u32);
    }
    let snake: Vec<usize> = (0..groups).chain((0..groups).rev()).collect();
    let mut order = Vec::with_capacity(group_of_item.len());
    let mut turn = 0;
    while order.len() < group_of_item.len() {
        if let Some(item) = remaining[snake[turn % snake.len()]].pop_front() {
            order.push(item);
        }
        turn += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(walk_field(1000, 95, 7).data, walk_field(1000, 95, 7).data);
        assert_ne!(walk_field(1000, 95, 7).data, walk_field(1000, 95, 8).data);
        let (z, mut a, mut b) = (Zipf::new((0..32).collect()), Rng::new(3), Rng::new(3));
        let first: Vec<u32> = (0..50).map(|_| z.draw(&mut a)).collect();
        let again: Vec<u32> = (0..50).map(|_| z.draw(&mut b)).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let (z, mut rng) = (Zipf::new((0..32).rev().collect()), Rng::new(9));
        let hits = (0..10_000).filter(|_| z.draw(&mut rng) == 31).count();
        // Rank 0 carries 1 / H(32) ≈ 24.6 % of the mass.
        assert!((2000..3000).contains(&hits), "{}", hits);
    }

    #[test]
    fn ranks_are_dealt_in_snake_order_and_cover_every_item() {
        // Items 0..6 in groups [0, 0, 0, 0, 1, 1]: group 1 runs out after two turns.
        assert_eq!(deal_ranks(&[0, 0, 0, 0, 1, 1], 2), vec![0, 4, 5, 1, 2, 3]);
    }
}
