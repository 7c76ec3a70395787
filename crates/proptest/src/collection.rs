//! Collection strategies: `vec` and `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;
use std::ops::Range;

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// A `Vec` whose length is drawn from `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.usize_in(self.size.start, self.size.end.max(self.size.start + 1));
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}

/// The strategy returned by [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: Range<usize>,
}

/// A `BTreeMap` with `size`-many draws (key collisions may leave fewer
/// final entries, as with upstream's non-retry path).
pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy { key, value, size }
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let draws = rng.usize_in(self.size.start, self.size.end.max(self.size.start + 1));
        let mut out = BTreeMap::new();
        for _ in 0..draws {
            out.insert(self.key.gen_value(rng), self.value.gen_value(rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_stay_in_range() {
        let s = vec(0u8..10, 2..5);
        let mut rng = TestRng::from_seed(1);
        for _ in 0..200 {
            let v = s.gen_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 10));
        }
    }

    #[test]
    fn btree_map_respects_minimum_when_keys_distinct() {
        let s = btree_map(0u32..1_000_000, 0u8..255, 1..20);
        let mut rng = TestRng::from_seed(2);
        for _ in 0..100 {
            assert!(!s.gen_value(&mut rng).is_empty());
        }
    }
}
