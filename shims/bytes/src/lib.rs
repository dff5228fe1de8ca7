//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The workspace builds in environments with no access to crates.io, so the
//! handful of external dependencies are vendored as small, API-compatible
//! shims. This one provides [`Bytes`]: an immutable, reference-counted byte
//! buffer whose clones and slices share one allocation (the property the
//! zero-copy wire decoder in `emlio-core` relies on).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Backing storage: a shared heap allocation, a static slice, or an
/// arbitrary shared owner (the hook buffer pools use to get their
/// allocation back when the last view drops).
///
/// `Heap` holds the `Vec` it was built from, moved in whole: the only
/// allocation `Bytes::from(Vec<u8>)` makes is the refcount header, and the
/// payload is never copied (an `Arc<[u8]>` would reallocate and `memcpy`
/// every byte to put the count in front of them).
#[derive(Clone)]
enum Storage {
    Heap(Arc<Vec<u8>>),
    Static(&'static [u8]),
    Owned(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Heap(a) => a,
            Storage::Static(s) => s,
            Storage::Owned(o) => (**o).as_ref(),
        }
    }
}

/// A cheaply cloneable, immutable slice of shared memory.
///
/// Clones bump a reference count; `slice`/`slice_ref` produce views into the
/// same allocation without copying.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes {
            storage: Storage::Static(&[]),
            offset: 0,
            len: 0,
        }
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(data),
            offset: 0,
            len: data.len(),
        }
    }

    /// Copy `data` into a fresh shared allocation (no allocation at all
    /// when `data` is empty).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Wrap an arbitrary owner whose `AsRef<[u8]>` view is stable for the
    /// owner's lifetime. The owner is dropped when the last clone/slice of
    /// the returned `Bytes` drops — which is how pooled buffers find their
    /// way back to their pool (the owner's `Drop` recycles the allocation).
    ///
    /// Mirrors `bytes::Bytes::from_owner` (bytes ≥ 1.9).
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let owner: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(owner);
        let len = (*owner).as_ref().len();
        Bytes {
            storage: Storage::Owned(owner),
            offset: 0,
            len,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[u8] {
        &self.storage.as_slice()[self.offset..self.offset + self.len]
    }

    /// A sub-view of this buffer sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "Bytes::slice out of bounds: {start}..{end} of {}",
            self.len
        );
        Bytes {
            storage: self.storage.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Given a `subset` that lies within `self`'s memory, return a `Bytes`
    /// view of it that shares this buffer's allocation (zero-copy).
    ///
    /// # Panics
    /// Panics if `subset` is not contained in `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_slice().as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len,
            "Bytes::slice_ref: subset is not within the buffer"
        );
        let start = sub - base;
        self.slice(start..start + subset.len())
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s allocation — no copy, as in the real
    /// `bytes` crate: `as_ptr()` of the result is `v`'s pointer.
    fn from(v: Vec<u8>) -> Self {
        // Route zero-length buffers to the allocation-free static
        // representation instead of allocating a refcount header for them.
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes {
            storage: Storage::Heap(Arc::new(v)),
            offset: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len > 64 {
            write!(f, "…({} bytes)", self.len)?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(&b[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_aliases() {
        let a = Bytes::from((0u8..32).collect::<Vec<_>>());
        let s = a.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], 4);
        assert_eq!(s.as_ptr() as usize, a.as_ptr() as usize + 4);
    }

    #[test]
    fn slice_ref_zero_copy() {
        let a = Bytes::from((0u8..64).collect::<Vec<_>>());
        let sub = &a[10..20];
        let s = a.slice_ref(sub);
        assert_eq!(s.as_ptr(), sub.as_ptr());
        assert_eq!(&s[..], sub);
    }

    #[test]
    #[should_panic]
    fn slice_ref_foreign_panics() {
        let a = Bytes::from(vec![0u8; 8]);
        let other = [1u8; 4];
        let _ = a.slice_ref(&other);
    }

    #[test]
    fn from_static_and_eq() {
        let s = Bytes::from_static(b"hello");
        assert_eq!(s, b"hello"[..]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_vec_uses_static_representation() {
        // Regression: `Bytes::from(vec![])` used to allocate an Arc header
        // for zero bytes of payload. It must now be the same allocation-free
        // representation as `Bytes::new()`.
        for b in [
            Bytes::from(Vec::new()),
            Bytes::from(Vec::new().into_boxed_slice()),
            Bytes::copy_from_slice(&[]),
        ] {
            assert!(b.is_empty());
            assert_eq!(b, Bytes::new());
            assert!(matches!(b.storage, Storage::Static(_)));
        }
    }

    #[test]
    fn from_vec_moves_the_allocation() {
        // Spare capacity too: nothing is shrunk, reallocated or copied.
        let mut v = Vec::with_capacity(4096);
        v.extend_from_slice(&[9u8; 1000]);
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 1000);
        assert_eq!(b.slice(10..).as_ptr() as usize, ptr as usize + 10);
        assert_eq!(
            b.slice_ref(&b[500..600]).as_ptr() as usize,
            ptr as usize + 500
        );

        let boxed = vec![3u8; 64].into_boxed_slice();
        let ptr = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), ptr);
    }

    #[test]
    fn from_owner_shares_and_drops_owner_last() {
        struct Probe {
            data: Vec<u8>,
            dropped: Arc<std::sync::atomic::AtomicBool>,
        }
        impl AsRef<[u8]> for Probe {
            fn as_ref(&self) -> &[u8] {
                &self.data
            }
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                self.dropped
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let b = Bytes::from_owner(Probe {
            data: vec![1, 2, 3, 4],
            dropped: dropped.clone(),
        });
        let slice = b.slice(1..3);
        let clone = b.clone();
        assert_eq!(&clone[..], &[1, 2, 3, 4]);
        assert_eq!(&slice[..], &[2, 3]);
        assert_eq!(slice.as_ptr() as usize, b.as_ptr() as usize + 1, "aliases");
        drop(b);
        drop(clone);
        assert!(
            !dropped.load(std::sync::atomic::Ordering::SeqCst),
            "slice still alive"
        );
        drop(slice);
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }
}
