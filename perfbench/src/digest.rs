//! FNV-1a digests of workload inputs and trained models. A digest is a
//! bit-level fingerprint: the same bits give the same hex string on every
//! host and build.

use kge_data::{Dataset, Triple};

#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn triples(&mut self, ts: &[Triple]) -> &mut Self {
        self.u64(ts.len() as u64);
        for t in ts {
            self.bytes(&t.head.to_le_bytes())
                .bytes(&t.rel.to_le_bytes())
                .bytes(&t.tail.to_le_bytes());
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a dataset: shape plus every split's triples in order.
pub fn dataset(ds: &Dataset) -> String {
    Fnv::default()
        .u64(ds.n_entities as u64)
        .u64(ds.n_relations as u64)
        .triples(&ds.train)
        .triples(&ds.valid)
        .triples(&ds.test)
        .hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
        assert_eq!(Fnv::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(Fnv::default().bytes(b"foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn float_digest_is_bit_level() {
        let a = Fnv::default().f32s(&[0.0]).hex();
        let b = Fnv::default().f32s(&[-0.0]).hex();
        assert_ne!(a, b);
    }
}
