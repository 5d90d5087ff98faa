//! `KeyedSum` on the wire: its canonical encoding is fixed bytes, and any
//! split of the input into partial objects merged in index order encodes
//! exactly like folding the whole input into one object.

use cb_net::RobjCodec;
use cloudburst_core::api::ReductionObject;
use cloudburst_core::combine::KeyedSum;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The input behind [`GOLDEN`]: two partial objects, one built by `add`,
/// one by `insert_entry`, then merged.
fn golden_object() -> KeyedSum {
    let mut a = KeyedSum::new();
    for (key, v) in [
        (0u64, 1.0f64),
        (1, 0.5),
        (u64::MAX, -2.25),
        (u64::MAX - 1, 1e300),
        (1 << 40, 3.0),
        (3 << 20, 0.1),
        (1, 0.25),
        (u64::MAX, 7.5),
        (1 << 40, -0.0),
        (3 << 20, 0.2),
    ] {
        a.add(key, v);
    }
    let mut b = KeyedSum::new();
    b.insert_entry(1, 1.0 / 3.0, 4);
    b.insert_entry(2 << 40, -1.5, 2);
    b.insert_entry(u64::MAX - 1, 1e300, 1);
    a.merge(b);
    a
}

/// `encode_robj` of [`golden_object`] as the ordered-map `KeyedSum` wrote
/// it: a `u32` count, then `(key, sum bits, count)` per key, ascending.
const GOLDEN: &str = concat!(
    "07000000",
    "0000000000000000000000000000f03f0100000000000000",
    "0100000000000000555555555555f13f0600000000000000",
    "0000300000000000343333333333d33f0200000000000000",
    "000000000001000000000000000008400200000000000000",
    "0000000000020000000000000000f8bf0200000000000000",
    "feffffffffffffff9c7500883ce4477e0200000000000000",
    "ffffffffffffffff00000000000015400200000000000000",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn encoding_matches_the_ordered_map_bytes() {
    let obj = golden_object();
    assert_eq!(hex(&obj.encode_robj()), GOLDEN);
    let back = KeyedSum::decode_robj(&obj.encode_robj()).unwrap();
    assert_eq!(back, obj);
    assert_eq!(hex(&back.encode_robj()), GOLDEN);
}

/// Keys from one of four families: sequential, strided by 2^20, strided
/// by 2^40, and counting down from `u64::MAX`.
fn key_of(family: u8, i: u64) -> u64 {
    match family % 4 {
        0 => i,
        1 => i << 20,
        2 => i << 40,
        _ => u64::MAX - i,
    }
}

/// Split `pairs` at `cuts` into 1–4 partial objects, fold each in
/// sequence, and merge them in index order (as slaves, then clusters, do).
fn split_and_merge(pairs: &[(u64, f64)], cuts: &[usize]) -> KeyedSum {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(pairs.len())).collect();
    bounds.sort_unstable();
    bounds.insert(0, 0);
    bounds.push(pairs.len());
    let mut merged: Option<KeyedSum> = None;
    for w in bounds.windows(2) {
        let mut part = KeyedSum::new();
        for &(k, v) in &pairs[w[0]..w[1]] {
            part.add(k, v);
        }
        match merged.as_mut() {
            None => merged = Some(part),
            Some(acc) => acc.merge(part),
        }
    }
    merged.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With values whose sums are exact (multiples of 1/4, small), the
    /// split cannot change any sum, so the bytes must equal whole-input
    /// accumulation's.
    fn any_split_encodes_like_the_whole_input(
        raw in prop::collection::vec((0u64..300, -64i32..64), 0..400),
        family in 0u8..4,
        cuts in prop::collection::vec(0usize..400, 0..4),
    ) {
        let pairs: Vec<(u64, f64)> = raw
            .iter()
            .map(|&(i, v)| (key_of(family, i), f64::from(v) * 0.25))
            .collect();
        let mut whole = KeyedSum::new();
        for &(k, v) in &pairs {
            whole.add(k, v);
        }
        let merged = split_and_merge(&pairs, &cuts[..cuts.len().min(3)]);
        prop_assert_eq!(merged.encode_robj(), whole.encode_robj());
        prop_assert_eq!(KeyedSum::decode_robj(&whole.encode_robj()).unwrap(), whole);
    }

    /// With arbitrary floats the order of additions matters: per key, the
    /// bytes must equal an ordered-map model that sums each partial in
    /// sequence and then adds the partials' sums in index order.
    fn merge_keeps_the_float_addition_order(
        raw in prop::collection::vec((0u64..200, -1e6f64..1e6), 0..400),
        family in 0u8..4,
        cuts in prop::collection::vec(0usize..400, 0..4),
    ) {
        let pairs: Vec<(u64, f64)> =
            raw.iter().map(|&(i, v)| (key_of(family, i), v)).collect();
        let cuts = &cuts[..cuts.len().min(3)];
        let merged = split_and_merge(&pairs, cuts);

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(pairs.len())).collect();
        bounds.sort_unstable();
        bounds.insert(0, 0);
        bounds.push(pairs.len());
        let mut model: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        for w in bounds.windows(2) {
            let mut part: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
            for &(k, v) in &pairs[w[0]..w[1]] {
                let e = part.entry(k).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
            for (k, (s, c)) in part {
                let e = model.entry(k).or_insert((0.0, 0));
                e.0 += s;
                e.1 += c;
            }
        }
        let mut expected = (model.len() as u32).to_le_bytes().to_vec();
        for (k, (s, c)) in &model {
            expected.extend_from_slice(&k.to_le_bytes());
            expected.extend_from_slice(&s.to_bits().to_le_bytes());
            expected.extend_from_slice(&c.to_le_bytes());
        }
        prop_assert_eq!(merged.encode_robj(), expected);
    }
}
