//! Op streams and the shadow model the outputs are checked against.
//!
//! Every client's ops are generated from the workload seed before the
//! deployment is built; the program under test only ever sees the
//! generated stream. File contents are a pure function of
//! `(file, block, version)`, so the expected bytes of any read are exact
//! even while other clients write.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One client operation. File and block numbers index the workload's
/// file set; blocks are IMCa blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `blocks` blocks of `file` starting at block `block`.
    Read { file: u32, block: u32, blocks: u32 },
    /// Overwrite `blocks` blocks starting at `block` with the next
    /// version of the stripe the range belongs to.
    Write { file: u32, block: u32, blocks: u32 },
    /// `stat` one file through the mount.
    Stat { file: u32 },
    /// `ls -l` of `n` consecutive entries: batched stats, one readdir
    /// window after another.
    List { first: u32, n: u32 },
    /// `stat` a name that was never created; must answer ENOENT.
    Ghost { ghost: u32 },
    /// Client think time before its next op, in virtual nanoseconds.
    Think { ns: u64 },
}

/// The latency class an op is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Data reads.
    Read = 0,
    /// Metadata lookups (single stats, ghost probes and listings).
    Stat = 1,
    /// Data writes.
    Write = 2,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Read, Class::Stat, Class::Write];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Stat => "stat",
            Class::Write => "write",
        }
    }
}

impl Op {
    /// The class this op is timed under; `None` for think time.
    pub fn class(&self) -> Option<Class> {
        match self {
            Op::Read { .. } => Some(Class::Read),
            Op::Write { .. } => Some(Class::Write),
            Op::Stat { .. } | Op::List { .. } | Op::Ghost { .. } => Some(Class::Stat),
            Op::Think { .. } => None,
        }
    }
}

/// splitmix64.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent RNG stream for `(seed, stream)`.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed ^ mix(stream.wrapping_add(1))))
}

/// Exact Zipf(s) sampler over ranks `0..n` (rank 0 hottest), by
/// inverse-CDF binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`, so Zipf ranks scatter over files and
/// daemons instead of clustering at the start of the file set.
pub fn permutation(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Exponential sample with mean `mean_ns`.
pub fn exp_ns(rng: &mut SmallRng, mean_ns: u64) -> u64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() * mean_ns as f64) as u64
}

fn pattern_base(file: u32, block: u64, version: u32) -> u64 {
    mix(((file as u64) << 40) ^ (block << 12) ^ version as u64)
}

fn pattern_word(base: u64, j: u64) -> u64 {
    base ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Append the contents of `file`'s block `block` at `version` (`len`
/// bytes) to `out`.
pub fn fill_block(file: u32, block: u64, version: u32, len: usize, out: &mut Vec<u8>) {
    let base = pattern_base(file, block, version);
    let start = out.len();
    out.reserve(len);
    let mut j = 0u64;
    while out.len() - start < len {
        let w = pattern_word(base, j).to_le_bytes();
        let take = (len - (out.len() - start)).min(8);
        out.extend_from_slice(&w[..take]);
        j += 1;
    }
}

/// Whether `data` is exactly `file`'s block `block` at `version`.
pub fn block_matches(file: u32, block: u64, version: u32, data: &[u8]) -> bool {
    let base = pattern_base(file, block, version);
    let mut chunks = data.chunks_exact(8);
    for (j, c) in (&mut chunks).enumerate() {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        if w != pattern_word(base, j as u64) {
            return false;
        }
    }
    let rest = chunks.remainder();
    if rest.is_empty() {
        return true;
    }
    let j = (data.len() / 8) as u64;
    rest == &pattern_word(base, j).to_le_bytes()[..rest.len()]
}

/// Committed and issued versions of every write stripe. A stripe has
/// one owning client, so at most one write per stripe is in flight and
/// the versions a concurrent read may legally see form the range
/// `committed at issue ..= issued at completion`.
pub struct Shadow {
    stripe_blocks: u32,
    stripes_per_file: u32,
    committed: Vec<u32>,
    issued: Vec<u32>,
}

impl Shadow {
    /// A shadow of `files` files of `blocks_per_file` blocks, written in
    /// stripes of `stripe_blocks` blocks, all at version 0.
    pub fn new(files: u32, blocks_per_file: u32, stripe_blocks: u32) -> Shadow {
        let stripes_per_file = blocks_per_file.div_ceil(stripe_blocks);
        let n = (files * stripes_per_file) as usize;
        Shadow {
            stripe_blocks,
            stripes_per_file,
            committed: vec![0; n],
            issued: vec![0; n],
        }
    }

    /// Index of the stripe holding `block` of `file`.
    fn stripe(&self, file: u32, block: u32) -> usize {
        (file * self.stripes_per_file + block / self.stripe_blocks) as usize
    }

    /// Committed version of every block in `blocks` blocks from `block`.
    pub fn committed_range(&self, file: u32, block: u32, blocks: u32) -> Vec<u32> {
        (block..block + blocks)
            .map(|b| self.committed[self.stripe(file, b)])
            .collect()
    }

    /// Highest version issued for `file`'s block `block`.
    pub fn issued(&self, file: u32, block: u32) -> u32 {
        self.issued[self.stripe(file, block)]
    }

    /// Start a write of the stripe holding `block`: returns its version.
    pub fn begin_write(&mut self, file: u32, block: u32) -> u32 {
        let s = self.stripe(file, block);
        self.issued[s] += 1;
        self.issued[s]
    }

    /// The write of `version` to the stripe holding `block` returned.
    pub fn commit_write(&mut self, file: u32, block: u32, version: u32) {
        let s = self.stripe(file, block);
        self.committed[s] = self.committed[s].max(version);
    }
}

/// Check a read of `blocks` blocks of `block_size` bytes against the
/// versions each block may legally hold (`lo[i] ..= hi[i]`). Returns the
/// first offending block.
pub fn check_read(
    file: u32,
    block: u32,
    block_size: u64,
    data: &[u8],
    lo: &[u32],
    hi: &[u32],
) -> Result<(), String> {
    let bs = block_size as usize;
    if data.len() != lo.len() * bs {
        return Err(format!(
            "file {file} block {block}: read returned {} bytes, expected {}",
            data.len(),
            lo.len() * bs
        ));
    }
    for (i, chunk) in data.chunks(bs).enumerate() {
        let b = block as u64 + i as u64;
        if !(lo[i]..=hi[i]).any(|v| block_matches(file, b, v, chunk)) {
            return Err(format!(
                "file {file} block {b}: bytes match no version in {}..={}",
                lo[i], hi[i]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_distinguish_file_block_and_version() {
        let mut a = Vec::new();
        fill_block(3, 7, 1, 2048, &mut a);
        assert!(block_matches(3, 7, 1, &a));
        assert!(!block_matches(3, 7, 2, &a));
        assert!(!block_matches(3, 8, 1, &a));
        assert!(!block_matches(4, 7, 1, &a));
        let mut odd = Vec::new();
        fill_block(1, 2, 3, 1027, &mut odd);
        assert_eq!(odd.len(), 1027);
        assert!(block_matches(1, 2, 3, &odd));
        odd[1026] ^= 1;
        assert!(!block_matches(1, 2, 3, &odd));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = stream_rng(1, 0);
        let mut hot = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                hot += 1;
            }
        }
        // The top 1% of ranks draws about 39% of Zipf(0.99) mass.
        assert!(hot > 3000 && hot < 5000, "{hot}");
    }

    #[test]
    fn shadow_tracks_stripe_versions() {
        let mut s = Shadow::new(2, 8, 2);
        let v = s.begin_write(1, 5);
        assert_eq!(v, 1);
        assert_eq!(s.committed_range(1, 4, 2), vec![0, 0]);
        assert_eq!(s.issued(1, 4), 1);
        s.commit_write(1, 5, v);
        assert_eq!(s.committed_range(1, 3, 3), vec![0, 1, 1]);
        let mut data = Vec::new();
        fill_block(1, 4, 1, 16, &mut data);
        fill_block(1, 5, 0, 16, &mut data);
        assert!(check_read(1, 4, 16, &data, &[0, 0], &[1, 1]).is_ok());
        assert!(check_read(1, 4, 16, &data, &[1, 1], &[1, 1]).is_err());
    }
}
