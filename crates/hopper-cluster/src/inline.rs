//! [`InlineVec`]: a short vector stored inline, spilling to the heap only
//! beyond a fixed capacity.
//!
//! The per-event results and per-machine tables of this crate hold a
//! handful of elements almost always (a finished task's freed slots, a
//! machine's warm jobs), so a `Vec` for each paid an allocation per event
//! for a few bytes of payload. An `InlineVec<T, N>` keeps up to `N`
//! elements in place; the first push past `N` moves them into a `Vec`,
//! which the value then keeps (capacity included) for the rest of its
//! life, so a size oscillating around `N` does not churn the allocator.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements, inline up to `N` of them (see the module
/// docs). Reads go through its slice (`Deref<Target = [T]>`).
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: usize, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }

    /// Whether the elements have moved to the heap.
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Insert `x` at position `i`, shifting later elements right.
    /// Panics if `i > len`.
    pub fn insert(&mut self, i: usize, x: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if *len < N => {
                assert!(i <= *len, "insert index {i} beyond length {len}");
                buf.copy_within(i..*len, i + 1);
                buf[i] = x;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(2 * N.max(1));
                v.extend_from_slice(&buf[..*len]);
                v.insert(i, x);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.insert(i, x),
        }
    }

    /// Append `x`.
    pub fn push(&mut self, x: T) {
        self.insert(self.len(), x);
    }

    /// Remove and return the element at `i`, shifting later elements
    /// left. Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                assert!(i < *len, "remove index {i} beyond length {len}");
                let x = buf[i];
                buf.copy_within(i + 1..*len, i);
                *len -= 1;
                x
            }
            Repr::Heap(v) => v.remove(i),
        }
    }

    /// Drop every element (a spilled vector keeps its heap buffer).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equality of contents, wherever they are stored.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_capacity_and_keeps_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(3);
        v.insert(0, 1);
        assert!(!v.spilled());
        v.insert(1, 2);
        assert!(v.spilled(), "third element spills");
        v.push(4);
        assert_eq!(&v[..], &[1, 2, 3, 4]);
        assert_eq!(v.remove(0), 1);
        v.clear();
        assert!(
            v.is_empty() && v.spilled(),
            "a spilled vector stays spilled"
        );
        v.push(7);
        assert_eq!(v, {
            let mut w = InlineVec::new();
            w.push(7);
            w
        });
        let mut u: InlineVec<u32, 2> = InlineVec::new();
        u.push(5);
        u.push(6);
        assert_eq!(u.remove(1), 6);
        assert_eq!(format!("{u:?}"), "[5]");
    }
}
