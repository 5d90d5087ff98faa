//! Canonical byte encodings for shipped reduction objects.
//!
//! The distributed runtime's correctness contract is *byte identity*: a
//! 3-process TCP run and a single-process loopback run over the same seed
//! and deployment must produce identical final reduction-object bytes. That
//! only holds if the encoding is canonical — independent of the arrival
//! order that built the object. So [`Concat`] sorts before encoding and
//! [`TopK`] sorts its kept set; [`KeyedSum`] lists its entries through
//! `iter`, which sorts them by key. Floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`), never through text, so the round trip is exact.

use crate::wire::{WireError, WireReader, WireWriter};
use cloudburst_core::combine::{Concat, Counter, KeyedSum, TopK, VecSum};

/// A reduction object that can cross the wire.
///
/// `decode_robj(encode_robj(x))` must reproduce `x` exactly (same merge
/// behaviour, same canonical encoding), and `encode_robj` must be canonical:
/// two objects that compare equal encode to the same bytes regardless of
/// the order their contents arrived.
pub trait RobjCodec: Sized {
    fn encode_robj(&self) -> Vec<u8>;
    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError>;
}

impl RobjCodec for Counter {
    fn encode_robj(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.0);
        w.into_payload()
    }

    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = r.u64()?;
        r.finish()?;
        Ok(Counter(v))
    }
}

impl RobjCodec for VecSum {
    fn encode_robj(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.values().len() as u32);
        for &v in self.values() {
            w.put_f64(v);
        }
        w.into_payload()
    }

    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.u32()? as usize;
        let mut values = Vec::with_capacity(n.min(bytes.len() / 8 + 1));
        for _ in 0..n {
            values.push(r.f64()?);
        }
        r.finish()?;
        Ok(VecSum::from_vec(values))
    }
}

impl RobjCodec for KeyedSum {
    fn encode_robj(&self) -> Vec<u8> {
        let n = self.len();
        let mut w = WireWriter::with_capacity(4 + 24 * n);
        w.put_u32(n as u32);
        // `iter` is key-ascending whatever the hash layout: canonical.
        for (key, (sum, count)) in self.iter() {
            w.put_u64(key);
            w.put_f64(sum);
            w.put_u64(count);
        }
        w.into_payload()
    }

    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.u32()? as usize;
        // Reserve for the entries the bytes can actually hold (24 each), so
        // a corrupt count cannot force a huge allocation.
        let mut out = KeyedSum::with_capacity(n.min(bytes.len() / 24));
        for _ in 0..n {
            let key = r.u64()?;
            let sum = r.f64()?;
            let count = r.u64()?;
            out.insert_entry(key, sum, count);
        }
        r.finish()?;
        Ok(out)
    }
}

impl RobjCodec for Concat<u64> {
    fn encode_robj(&self) -> Vec<u8> {
        // Arrival order is scheduling noise; sort a copy so equal sets
        // encode identically.
        let mut items = self.items().to_vec();
        items.sort_unstable();
        let mut w = WireWriter::new();
        w.put_u32(items.len() as u32);
        for v in items {
            w.put_u64(v);
        }
        w.into_payload()
    }

    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.u32()? as usize;
        let mut out = Concat::new();
        for _ in 0..n {
            out.push(r.u64()?);
        }
        r.finish()?;
        Ok(out)
    }
}

impl RobjCodec for TopK {
    fn encode_robj(&self) -> Vec<u8> {
        // Heap order depends on insertion history; sort by (score bits,
        // payload) for a canonical listing. Scores are non-NaN by TopK's
        // insert contract, and non-negative bit patterns sort the same as
        // their floats.
        let mut entries: Vec<(u64, u64)> = self.entries().map(|(s, p)| (s.to_bits(), p)).collect();
        entries.sort_unstable();
        let mut w = WireWriter::new();
        w.put_u32(self.k() as u32);
        w.put_u32(entries.len() as u32);
        for (score_bits, payload) in entries {
            w.put_u64(score_bits);
            w.put_u64(payload);
        }
        w.into_payload()
    }

    fn decode_robj(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let k = r.u32()? as usize;
        if k == 0 {
            return Err(WireError::Truncated);
        }
        let n = r.u32()? as usize;
        let mut out = TopK::new(k);
        for _ in 0..n {
            let score = f64::from_bits(r.u64()?);
            let payload = r.u64()?;
            out.offer(score, payload);
        }
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trips() {
        let c = Counter(u64::MAX - 3);
        assert_eq!(Counter::decode_robj(&c.encode_robj()).unwrap(), c);
    }

    #[test]
    fn keyedsum_round_trips_exactly() {
        let mut k = KeyedSum::new();
        k.add(7, 1.5);
        k.add(7, 2.25);
        k.add(99, -0.125);
        let back = KeyedSum::decode_robj(&k.encode_robj()).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.encode_robj(), k.encode_robj());
    }

    #[test]
    fn concat_encoding_ignores_arrival_order() {
        let mut a = Concat::new();
        for v in [5u64, 1, 9] {
            a.push(v);
        }
        let mut b = Concat::new();
        for v in [9u64, 5, 1] {
            b.push(v);
        }
        assert_eq!(a.encode_robj(), b.encode_robj());
        let back = Concat::<u64>::decode_robj(&a.encode_robj()).unwrap();
        assert_eq!(back.into_sorted(), vec![1, 5, 9]);
    }

    #[test]
    fn topk_round_trip_preserves_merge_behaviour() {
        let mut t = TopK::new(3);
        for (i, s) in [4.0, 2.0, 8.0, 1.0].iter().enumerate() {
            t.offer(*s, i as u64);
        }
        let back = TopK::decode_robj(&t.encode_robj()).unwrap();
        assert_eq!(back.k(), 3);
        let mut merged = back;
        merged.offer(0.5, 42);
        assert_eq!(merged.into_sorted(), vec![(0.5, 42), (1.0, 3), (2.0, 1)]);
    }

    #[test]
    fn truncated_robj_rejected() {
        let mut k = KeyedSum::new();
        k.add(1, 1.0);
        let enc = k.encode_robj();
        assert_eq!(
            KeyedSum::decode_robj(&enc[..enc.len() - 1]),
            Err(WireError::Truncated)
        );
    }
}
