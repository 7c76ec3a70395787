//! Offline stand-in for the `crossbeam` crate.
//!
//! One slice of crossbeam is provided (all this workspace uses):
//! [`utils::CachePadded`], the cache-line padding wrapper the elastic
//! process uses to keep its lifetime counters and table shards off each
//! other's cache lines.

pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns `T` to (at least) its own cache line.
    ///
    /// 128 bytes rather than 64: x86_64 prefetches cache-line pairs and
    /// aarch64 big cores use 128-byte lines, so adjacent values one
    /// 64-byte line apart can still false-share. Matches upstream
    /// crossbeam's choice for these targets.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in its own cache line.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }

        /// Unwraps the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> CachePadded<T> {
            CachePadded::new(value)
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_tuple("CachePadded").field(&self.value).finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn padded_values_land_on_distinct_cache_lines() {
            assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
            assert!(std::mem::size_of::<[CachePadded<u64>; 2]>() >= 256);
            let padded = CachePadded::new(7u64);
            assert_eq!(*padded, 7);
            assert_eq!(padded.into_inner(), 7);
        }
    }
}
