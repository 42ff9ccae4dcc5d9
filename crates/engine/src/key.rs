//! Packed group-by keys and the hasher they are probed with.
//!
//! Aggregation slots one key per qualifying fact row, so key construction
//! and the group-table probe dominate the inner loop. When the combined bit
//! width of all group-by components fits a machine word
//! ([`KeyLayout::fits_u64`]) the engine packs the member ids into a single
//! `u64`, component `c` at bit offset [`KeyLayout::shift`]`(c)`; the
//! aggregation kernel builds a whole lane of such keys per morsel with one
//! `key |= roll[code] << shift` loop per component. Otherwise `get` falls
//! back to boxed wide keys (`crate::wide`). The layout also unpacks keys
//! back into member ids when materializing result coordinates.
//!
//! Every map keyed by packed keys — group tables, the view index of append
//! maintenance — hashes with [`FoldHasher`], a multiply-and-fold hasher:
//! packed keys are member ids drawn from validated, bounded domains, so
//! SipHash's flooding resistance buys little and costs most of a probe.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use olap_model::MemberId;

/// A multiply-and-fold hasher for integer keys.
///
/// Words combine FxHash-style (rotate, xor, multiply); `finish` multiplies
/// once more into 128 bits and xors the high half into the low one.
/// hashbrown picks buckets from the low bits, and a plain multiply leaves
/// those depending only on the key's low bits — yet packed keys often hold
/// a constant low component (a filter fixing `c_region`), which would
/// funnel every key into the same few buckets. The fold makes every output
/// bit depend on every key bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldHasher(u64);

const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FoldHasher {
    /// Writes other than `u64` (the wide path's `Coordinate` keys) fold in
    /// as 8-byte words.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FOLD_MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * u128::from(FOLD_MUL);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

/// A hash map hashing with [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Bit layout of a packed group-by key.
#[derive(Debug, Clone)]
pub struct KeyLayout {
    bits: Vec<u32>,
    shifts: Vec<u32>,
    total_bits: u32,
}

impl KeyLayout {
    /// Computes the layout for components with the given domain
    /// cardinalities. Every component gets `ceil(log2(cardinality))` bits
    /// (minimum 1).
    pub fn for_cardinalities(cardinalities: &[usize]) -> Self {
        let bits: Vec<u32> = cardinalities
            .iter()
            .map(|&c| (usize::BITS - c.max(2).saturating_sub(1).leading_zeros()).max(1))
            .collect();
        let mut shifts = Vec::with_capacity(bits.len());
        let mut acc = 0;
        for b in &bits {
            shifts.push(acc);
            acc += b;
        }
        KeyLayout { bits, shifts, total_bits: acc }
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.bits.len()
    }

    /// Whether keys fit in a `u64`.
    pub fn fits_u64(&self) -> bool {
        self.total_bits <= 64
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bit offset of component `component` in a packed key.
    #[inline]
    pub fn shift(&self, component: usize) -> u32 {
        self.shifts[component]
    }

    /// Packs member ids into a `u64` key. Caller must have checked
    /// [`KeyLayout::fits_u64`]; ids must be within the declared domains.
    #[inline]
    pub fn pack(&self, members: &[MemberId]) -> u64 {
        debug_assert_eq!(members.len(), self.bits.len());
        let mut key = 0u64;
        for (i, m) in members.iter().enumerate() {
            key |= (m.0 as u64) << self.shifts[i];
        }
        key
    }

    /// Packs from raw component values (avoids building a slice first).
    #[inline]
    pub fn pack_component(&self, key: &mut u64, component: usize, member: MemberId) {
        *key |= (member.0 as u64) << self.shifts[component];
    }

    /// Unpacks a key back into member ids.
    pub fn unpack(&self, key: u64) -> Vec<MemberId> {
        self.bits
            .iter()
            .zip(self.shifts.iter())
            .map(|(&b, &s)| {
                let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                MemberId(((key >> s) & mask) as u32)
            })
            .collect()
    }

    /// Unpacks one component of a key.
    #[inline]
    pub fn unpack_component(&self, key: u64, component: usize) -> MemberId {
        let b = self.bits[component];
        let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        MemberId(((key >> self.shifts[component]) & mask) as u32)
    }

    /// A key with component `component` cleared — used by pivot to group
    /// rows by "all coordinates but the sliced level" (`γ|G\l`).
    #[inline]
    pub fn clear_component(&self, key: u64, component: usize) -> u64 {
        let b = self.bits[component];
        let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        key & !(mask << self.shifts[component])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let layout = KeyLayout::for_cardinalities(&[1000, 5, 365]);
        assert!(layout.fits_u64());
        let members = vec![MemberId(999), MemberId(4), MemberId(364)];
        let key = layout.pack(&members);
        assert_eq!(layout.unpack(key), members);
        assert_eq!(layout.unpack_component(key, 1), MemberId(4));
    }

    #[test]
    fn bit_widths_are_minimal_but_sufficient() {
        let layout = KeyLayout::for_cardinalities(&[2, 3, 4, 5]);
        // 2→1 bit, 3→2 bits, 4→2 bits, 5→3 bits.
        assert_eq!(layout.total_bits(), 1 + 2 + 2 + 3);
        // Largest valid ids survive.
        let members = vec![MemberId(1), MemberId(2), MemberId(3), MemberId(4)];
        assert_eq!(layout.unpack(layout.pack(&members)), members);
    }

    #[test]
    fn singleton_domains_get_one_bit() {
        let layout = KeyLayout::for_cardinalities(&[1]);
        assert_eq!(layout.total_bits(), 1);
        assert_eq!(layout.unpack(layout.pack(&[MemberId(0)])), vec![MemberId(0)]);
    }

    #[test]
    fn wide_layouts_are_detected() {
        let layout = KeyLayout::for_cardinalities(&[1 << 30, 1 << 30, 1 << 30]);
        assert!(!layout.fits_u64());
    }

    #[test]
    fn clear_component_zeroes_only_that_field() {
        let layout = KeyLayout::for_cardinalities(&[100, 100, 100]);
        let members = vec![MemberId(42), MemberId(17), MemberId(99)];
        let key = layout.pack(&members);
        let cleared = layout.clear_component(key, 1);
        assert_eq!(layout.unpack_component(cleared, 0), MemberId(42));
        assert_eq!(layout.unpack_component(cleared, 1), MemberId(0));
        assert_eq!(layout.unpack_component(cleared, 2), MemberId(99));
    }

    #[test]
    fn pack_component_is_incremental_pack() {
        let layout = KeyLayout::for_cardinalities(&[10, 20, 30]);
        let members = vec![MemberId(9), MemberId(19), MemberId(29)];
        let mut key = 0;
        for (i, m) in members.iter().enumerate() {
            layout.pack_component(&mut key, i, *m);
        }
        assert_eq!(key, layout.pack(&members));
    }

    #[test]
    fn empty_layout_packs_to_zero() {
        let layout = KeyLayout::for_cardinalities(&[]);
        assert_eq!(layout.arity(), 0);
        assert_eq!(layout.pack(&[]), 0);
        assert!(layout.unpack(0).is_empty());
    }
}
