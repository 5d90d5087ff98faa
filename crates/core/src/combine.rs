//! The shipped combiner library (paper §III-A: *"A user can choose from one
//! of the several common combination functions already implemented in the
//! generalized reduction system library (such as aggregation, concatenation,
//! etc.), or they can provide one of their own."*).
//!
//! Every type here implements [`ReductionObject`] with a commutative,
//! associative `merge`; the property tests in `tests/scheduling_properties.rs`
//! verify the algebra over random inputs and splits.

use crate::api::ReductionObject;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Element-wise sum of a fixed-length `f64` vector ("aggregation").
///
/// The workhorse for numeric analytics — k-means uses one per centroid,
/// PageRank uses one the size of the rank vector.
///
/// ```
/// use cloudburst_core::combine::VecSum;
/// use cloudburst_core::api::ReductionObject;
///
/// let mut a = VecSum::from_vec(vec![1.0, 2.0]);
/// let b = VecSum::from_vec(vec![10.0, 20.0]);
/// a.merge(b);
/// assert_eq!(a.values(), &[11.0, 22.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VecSum {
    values: Vec<f64>,
}

impl VecSum {
    pub fn zeros(len: usize) -> Self {
        VecSum {
            values: vec![0.0; len],
        }
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        VecSum { values }
    }

    pub fn add_at(&mut self, idx: usize, x: f64) {
        self.values[idx] += x;
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl ReductionObject for VecSum {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "merging VecSum of different lengths"
        );
        for (a, b) in self.values.iter_mut().zip(other.values) {
            *a += b;
        }
    }

    fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

/// Scalar counters (u64 sum). Often embedded in larger objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(pub u64);

impl ReductionObject for Counter {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn size_bytes(&self) -> usize {
        8
    }
}

/// Concatenation of records, order-normalized on read ("concatenation").
///
/// `merge` appends; because concatenation alone is *not* commutative, the
/// object guarantees order-insensitivity by exposing results only in sorted
/// order. This matches how concatenating combiners are used in practice:
/// the collection is a set of records whose arrival order is meaningless.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Concat<T: Ord + Send + 'static> {
    items: Vec<T>,
}

impl<T: Ord + Send + 'static> Concat<T> {
    pub fn new() -> Self {
        Concat { items: Vec::new() }
    }

    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The collected records, in canonical (sorted) order.
    pub fn into_sorted(mut self) -> Vec<T> {
        self.items.sort_unstable();
        self.items
    }

    /// The collected records in arrival order (wire codecs sort a copy
    /// themselves to stay canonical without consuming the object).
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: Ord + Send + 'static> ReductionObject for Concat<T> {
    fn merge(&mut self, other: Self) {
        self.items.extend(other.items);
    }
    fn size_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<T>()
    }
}

/// Min / max over a totally ordered domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinMax {
    pub min: Option<i64>,
    pub max: Option<i64>,
}

impl MinMax {
    pub fn observe(&mut self, x: i64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }
}

impl ReductionObject for MinMax {
    fn merge(&mut self, other: Self) {
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }
    fn size_bytes(&self) -> usize {
        16
    }
}

/// Keyed aggregation: `key -> (sum, count)`. The generalized-reduction
/// analogue of a word-count/`reduceByKey`.
///
/// Storage is hash-accumulated: 256 `HashMap`s under one folded-multiply
/// hash, each key's partition picked by hash bits that the tables
/// themselves do not use. Many small tables rather than one large one keep
/// each table under the allocator's mmap threshold at wordcount
/// vocabularies, so growing a table never frees a multi-MB block (which
/// strands arena memory and inflates RSS). Only [`KeyedSum::iter`] orders
/// the keys, by sorting a copy: the canonical wire encoding needs that
/// order, and nothing else does.
///
/// The hash layout never changes a sum: per key, `add` folds in call
/// order and `merge` adds `other`'s sum to ours, so a given sequence of
/// folds and merges yields bit-identical results.
#[derive(Clone, PartialEq)]
pub struct KeyedSum {
    /// Always exactly `KEYED_PARTS` tables; key `k` lives in
    /// `parts[part_of(k)]`.
    parts: Vec<KeyedPart>,
}

/// Number of hash partitions in a [`KeyedSum`] (a fixed function of the
/// key, not a tuning knob).
const KEYED_PARTS: usize = 256;

type KeyedPart = HashMap<u64, (f64, u64), BuildHasherDefault<FoldHasher>>;

/// Multiplier and seed of [`key_hash`]: the first two 64-bit words of the
/// fractional part of pi (arbitrary, odd, dense in set bits).
const FOLD_MUL: u64 = 0x243f_6a88_85a3_08d3;
const FOLD_SEED: u64 = 0x1319_8a2e_0370_7344;

/// Folded-multiply hash of a `u64` key: the 128-bit product of the seeded
/// key and an odd constant, its halves XORed together. The high half mixes
/// every input bit into every output bit; the low half keeps low-bit
/// entropy for the table index.
#[inline]
fn key_hash(key: u64) -> u64 {
    let p = u128::from(key ^ FOLD_SEED) * u128::from(FOLD_MUL);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A key's partition: hash bits 48..56. The std tables index buckets with
/// the low bits and tag them with the top 7, so these bits stay free to
/// spread keys within each table.
#[inline]
fn part_of(key: u64) -> usize {
    (key_hash(key) >> 48) as usize % KEYED_PARTS
}

/// `Hasher` for [`KeyedSum`]'s tables: one [`key_hash`] per `u64` written.
#[derive(Default, Clone, Copy)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = key_hash(self.0 ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for KeyedSum {
    fn default() -> Self {
        KeyedSum {
            parts: (0..KEYED_PARTS).map(|_| KeyedPart::default()).collect(),
        }
    }
}

impl std::fmt::Debug for KeyedSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl KeyedSum {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty object with room for about `keys` distinct keys, spread
    /// evenly over the partitions (decoders know the count up front).
    pub fn with_capacity(keys: usize) -> Self {
        let mut out = Self::new();
        for part in &mut out.parts {
            part.reserve(keys / KEYED_PARTS);
        }
        out
    }

    #[inline]
    pub fn add(&mut self, key: u64, value: f64) {
        self.insert_entry(key, value, 1);
    }

    pub fn get(&self, key: u64) -> Option<(f64, u64)> {
        self.parts[part_of(key)].get(&key).copied()
    }

    pub fn len(&self) -> usize {
        self.parts.iter().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(HashMap::is_empty)
    }

    /// Every entry in ascending key order. This sorts a copy of the keys
    /// and looks each one up again: call it once per result, not per unit.
    pub fn iter(&self) -> impl Iterator<Item = (u64, (f64, u64))> + '_ {
        let mut keys: Vec<u64> = Vec::with_capacity(self.len());
        for part in &self.parts {
            keys.extend(part.keys());
        }
        keys.sort_unstable();
        keys.into_iter().map(|k| (k, self.parts[part_of(k)][&k]))
    }

    /// Reconstruct an entry verbatim — `(sum, count)` as stored, not one
    /// observation like [`KeyedSum::add`]. Merges with any existing entry.
    /// This is how wire codecs rebuild a shipped object exactly.
    #[inline]
    pub fn insert_entry(&mut self, key: u64, sum: f64, count: u64) {
        let e = self.parts[part_of(key)].entry(key).or_insert((0.0, 0));
        e.0 += sum;
        e.1 += count;
    }
}

impl ReductionObject for KeyedSum {
    fn merge(&mut self, other: Self) {
        for (k, (s, c)) in other.parts.into_iter().flatten() {
            self.insert_entry(k, s, c);
        }
    }
    fn size_bytes(&self) -> usize {
        self.len() * (8 + 8 + 8)
    }
}

/// Bounded top-K by ascending score: keeps the K smallest `(score, payload)`
/// pairs seen. This is k-NN's reduction object (K nearest = K smallest
/// distances). A binary max-heap caps memory at K entries per worker.
///
/// ```
/// use cloudburst_core::combine::TopK;
///
/// let mut best = TopK::new(2);
/// for (score, id) in [(3.0, 0), (1.0, 1), (2.0, 2)] {
///     best.offer(score, id);
/// }
/// assert_eq!(best.into_sorted(), vec![(1.0, 1), (2.0, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Max-heap on score: the root is the *worst* of the current best K.
    heap: std::collections::BinaryHeap<ScoredEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredEntry {
    score: f64,
    payload: u64,
}

impl Eq for ScoredEntry {}

impl PartialOrd for ScoredEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: by score, then payload for determinism. NaN scores
        // are rejected at insert.
        self.score
            .partial_cmp(&other.score)
            .expect("NaN score in TopK")
            .then_with(|| self.payload.cmp(&other.payload))
    }
}

impl TopK {
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "TopK requires k >= 1");
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a candidate; kept only if among the K best (smallest) so far.
    pub fn offer(&mut self, score: f64, payload: u64) {
        assert!(!score.is_nan(), "NaN score offered to TopK");
        if self.heap.len() < self.k {
            self.heap.push(ScoredEntry { score, payload });
            return;
        }
        let worst = self.heap.peek().expect("non-empty");
        let cand = ScoredEntry { score, payload };
        if cand < *worst {
            self.heap.pop();
            self.heap.push(cand);
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept entries in heap order (wire codecs re-`offer` these on
    /// decode; callers wanting ranked output use [`TopK::into_sorted`]).
    pub fn entries(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.heap.iter().map(|e| (e.score, e.payload))
    }

    /// Best-first (ascending score) results.
    pub fn into_sorted(self) -> Vec<(f64, u64)> {
        let mut v: Vec<ScoredEntry> = self.heap.into_vec();
        v.sort_unstable();
        v.into_iter().map(|e| (e.score, e.payload)).collect()
    }
}

impl ReductionObject for TopK {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.k, other.k, "merging TopK of different k");
        for e in other.heap {
            self.offer(e.score, e.payload);
        }
    }
    fn size_bytes(&self) -> usize {
        self.heap.len() * 16
    }
}

/// Fixed-range histogram: counts per equal-width bin over `[lo, hi)`, with
/// underflow/overflow buckets. Order-insensitive by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(hi > lo, "empty histogram range");
        assert!(n_bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    pub fn observe(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let bin = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[bin] += 1;
        }
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

impl ReductionObject for Histogram {
    fn merge(&mut self, other: Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "merging incompatible histograms"
        );
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
    fn size_bytes(&self) -> usize {
        self.bins.len() * 8 + 32
    }
}

/// Streaming first/second moments (count, mean, variance) with the
/// parallel Welford combination — merge order does not affect the result
/// beyond floating-point noise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

impl ReductionObject for Moments {
    fn merge(&mut self, other: Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.mean = (n1 * self.mean + n2 * other.mean) / n;
        self.n += other.n;
    }
    fn size_bytes(&self) -> usize {
        24
    }
}

/// Set union over a dense `u64` id space, as a bitmap. Useful for distinct
/// counting and membership reductions with a bounded universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSetUnion {
    words: Vec<u64>,
}

impl BitSetUnion {
    /// A set over ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSetUnion {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .map(|w| w & (1u64 << (id % 64)) != 0)
            .unwrap_or(false)
    }

    /// Number of distinct ids present.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl ReductionObject for BitSetUnion {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "merging BitSetUnion of different universes"
        );
        for (a, b) in self.words.iter_mut().zip(other.words) {
            *a |= b;
        }
    }
    fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecsum_merges_elementwise() {
        let mut a = VecSum::from_vec(vec![1.0, 2.0, 3.0]);
        let b = VecSum::from_vec(vec![10.0, 20.0, 30.0]);
        a.merge(b);
        assert_eq!(a.values(), &[11.0, 22.0, 33.0]);
        assert_eq!(a.size_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn vecsum_length_mismatch_panics() {
        let mut a = VecSum::zeros(2);
        a.merge(VecSum::zeros(3));
    }

    #[test]
    fn counter_merges() {
        let mut a = Counter(3);
        a.merge(Counter(4));
        assert_eq!(a, Counter(7));
    }

    #[test]
    fn concat_is_order_insensitive_after_sort() {
        let mut a = Concat::new();
        a.push(3);
        a.push(1);
        let mut b = Concat::new();
        b.push(2);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.into_sorted(), ba.into_sorted());
    }

    #[test]
    fn minmax_handles_empty_sides() {
        let mut a = MinMax::default();
        let mut b = MinMax::default();
        b.observe(5);
        b.observe(-2);
        a.merge(b);
        assert_eq!(a.min, Some(-2));
        assert_eq!(a.max, Some(5));
        a.merge(MinMax::default());
        assert_eq!(a.min, Some(-2));
    }

    #[test]
    fn keyedsum_merges_by_key() {
        let mut a = KeyedSum::new();
        a.add(1, 2.0);
        a.add(2, 5.0);
        let mut b = KeyedSum::new();
        b.add(1, 3.0);
        b.add(3, 7.0);
        a.merge(b);
        assert_eq!(a.get(1), Some((5.0, 2)));
        assert_eq!(a.get(2), Some((5.0, 1)));
        assert_eq!(a.get(3), Some((7.0, 1)));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn keyedsum_partitions_stay_balanced_on_strided_keys() {
        for stride in [1u64, 1 << 20, 1 << 40] {
            let mut per_part = [0usize; KEYED_PARTS];
            for i in 0..4096u64 {
                per_part[part_of(i.wrapping_mul(stride))] += 1;
            }
            let mean = 4096 / KEYED_PARTS;
            let max = *per_part.iter().max().unwrap();
            assert!(
                max <= 4 * mean,
                "stride {stride}: a partition holds {max} keys, mean {mean}"
            );
        }
    }

    #[test]
    fn keyedsum_debug_lists_keys_in_order() {
        let mut k = KeyedSum::new();
        for key in [u64::MAX, 7, 1 << 40, 0, 7, 3 << 20] {
            k.add(key, 1.0);
        }
        assert_eq!(
            format!("{k:?}"),
            "{0: (1.0, 1), 7: (2.0, 2), 3145728: (1.0, 1), 1099511627776: (1.0, 1), \
             18446744073709551615: (1.0, 1)}"
        );
    }

    #[test]
    fn topk_keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (i, s) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            t.offer(*s, i as u64);
        }
        let got = t.into_sorted();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (0.5, 5));
        assert_eq!(got[1], (1.0, 1));
        assert_eq!(got[2], (2.0, 3));
    }

    #[test]
    fn topk_merge_equals_union() {
        let scores: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let mut whole = TopK::new(5);
        for (i, &s) in scores.iter().enumerate() {
            whole.offer(s, i as u64);
        }
        let mut left = TopK::new(5);
        let mut right = TopK::new(5);
        for (i, &s) in scores.iter().enumerate() {
            if i % 2 == 0 {
                left.offer(s, i as u64);
            } else {
                right.offer(s, i as u64);
            }
        }
        left.merge(right);
        assert_eq!(left.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn topk_tie_scores_resolved_by_payload() {
        let mut t = TopK::new(2);
        t.offer(1.0, 9);
        t.offer(1.0, 3);
        t.offer(1.0, 7);
        assert_eq!(t.into_sorted(), vec![(1.0, 3), (1.0, 7)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn topk_rejects_nan() {
        TopK::new(1).offer(f64::NAN, 0);
    }

    #[test]
    fn topk_underfull() {
        let mut t = TopK::new(10);
        t.offer(2.0, 0);
        t.offer(1.0, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_sorted(), vec![(1.0, 1), (2.0, 0)]);
    }

    #[test]
    fn histogram_bins_and_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0] {
            h.observe(x);
        }
        assert_eq!(h.bins(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_merge_equals_union() {
        let mut whole = Histogram::new(0.0, 1.0, 10);
        let mut a = Histogram::new(0.0, 1.0, 10);
        let mut b = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            let x = (i as f64) / 100.0;
            whole.observe(x);
            if i % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        a.merge(b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn histogram_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 5);
        a.merge(Histogram::new(0.0, 2.0, 5));
    }

    #[test]
    fn moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &xs {
            m.observe(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64) * 0.31 - 7.0).collect();
        let mut whole = Moments::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &xs[..71] {
            a.observe(x);
        }
        for &x in &xs[71..] {
            b.observe(x);
        }
        a.merge(b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        // Empty-side identities.
        a.merge(Moments::new());
        assert_eq!(a.count(), 200);
        let mut empty = Moments::new();
        assert_eq!((empty.mean(), empty.variance()), (0.0, 0.0));
        empty.merge(a);
        assert_eq!(empty.count(), 200);
        assert_eq!(empty.mean().to_bits(), a.mean().to_bits());
    }

    #[test]
    fn bitset_union() {
        let mut a = BitSetUnion::new(200);
        let mut b = BitSetUnion::new(200);
        a.insert(0);
        a.insert(63);
        a.insert(64);
        b.insert(64);
        b.insert(199);
        a.merge(b);
        assert!(a.contains(0) && a.contains(63) && a.contains(64) && a.contains(199));
        assert!(!a.contains(1));
        assert!(!a.contains(5000), "out of universe is just absent");
        assert_eq!(a.count(), 4);
        assert_eq!(a.size_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn bitset_universe_mismatch_panics() {
        let mut a = BitSetUnion::new(64);
        a.merge(BitSetUnion::new(128));
    }
}
