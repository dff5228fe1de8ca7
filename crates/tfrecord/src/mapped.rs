//! A shard file as one read-only shared mapping.
//!
//! The paper's daemon memory-maps its shards and slices each batch's
//! contiguous range out of the mapping (§2 technique (i), §4.3). [`map`]
//! does that once per shard; the [`Bytes`] it returns owns the mapping,
//! and every block read from then on is a refcounted sub-view of it — the
//! pages the kernel holds in its cache are the pages the socket reads, and
//! no byte is copied in between. [`fault_in`] makes the read a stage the
//! worker thread pays and can fail, rather than a page fault (or a
//! `SIGBUS`) in whoever touches the view first.
//!
//! 64-bit Linux only: `MADV_POPULATE_READ` is what turns a fault into an
//! error code. Everywhere else [`map`] answers `None` and the caller keeps
//! its positioned reads.

pub(crate) use imp::{fault_in, map};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    use bytes::Bytes;
    use std::ffi::{c_int, c_long, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::ptr::{self, NonNull};

    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;
    /// Fault the range's pages in as a read would, reporting what would
    /// have been a `SIGBUS` as `EFAULT` (Linux ≥ 5.14; `EINVAL` before).
    const MADV_POPULATE_READ: c_int = 22;
    const SC_PAGESIZE: c_int = 30;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    /// `len` bytes of a file, mapped `PROT_READ` until drop.
    struct Mapping {
        base: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only memory this value alone unmaps;
    // `base` and `len` never change after `new`, so moving the value to
    // another thread moves nothing but the right to unmap.
    unsafe impl Send for Mapping {}
    // SAFETY: `&Mapping` exposes only `&[u8]` over `PROT_READ` pages.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map the first `len` (non-zero) bytes of `file`.
        fn new(file: &File, len: usize) -> io::Result<Mapping> {
            // SAFETY: a fresh mapping at an address the kernel picks
            // aliases no Rust object, and the descriptor is open for the
            // duration of the call.
            let addr = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            // `MAP_FAILED` is `(void *) -1`; without `MAP_FIXED` a
            // successful `mmap` never returns null.
            match NonNull::new(addr.cast::<u8>()) {
                Some(base) if addr as isize != -1 => Ok(Mapping { base, len }),
                _ => Err(io::Error::last_os_error()),
            }
        }
    }

    impl AsRef<[u8]> for Mapping {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: `base..base + len` is one live `PROT_READ` mapping
            // from `new` until `drop`, which cannot run while this borrow
            // is alive. The bytes do not change under the reference so
            // long as nothing writes the file: shards are immutable once
            // `ShardWriter::finish` returns (docs/TESTING.md, "Unsafe
            // sites"). A file *shrunk* under the mapping leaves the slice
            // valid to form but faulting to read, which is why readers go
            // through `fault_in` and a length check before handing a view
            // out.
            unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: exactly the range `mmap` returned, unmapped once;
            // `Bytes::from_owner` drops its owner only after the last view
            // of it, so no slice into the range outlives this call.
            unsafe { munmap(self.base.as_ptr().cast(), self.len) };
        }
    }

    /// The whole of `file` (`len` bytes, its length now) as one shared
    /// read-only view, unmapped when the last clone or slice of it drops.
    ///
    /// `None` is an answer, not an error — it selects the caller's
    /// positioned reads: the file is empty (a zero-length mapping is
    /// `EINVAL`), the filesystem refuses `mmap`, or the kernel cannot
    /// fault the first page in on request (no `MADV_POPULATE_READ` before
    /// 5.14, or a read error that a `pread` will report properly).
    pub(crate) fn map(file: &File, len: u64) -> Option<Bytes> {
        let len = usize::try_from(len).ok().filter(|&n| n > 0)?;
        let mapping = Mapping::new(file, len).ok()?;
        fault_in(&mapping.as_ref()[..1]).ok()?;
        Some(Bytes::from_owner(mapping))
    }

    /// Fault `span`'s pages in now, on this thread: on a cold page cache
    /// this is where the disk wait is paid, and a page that cannot be read
    /// — the file shrank below it, the device failed — comes back as an
    /// error instead of a `SIGBUS` at first touch. Meant for views of
    /// [`map`]'s mapping; any readable slice is accepted, since populating
    /// pages already present only walks them.
    pub(crate) fn fault_in(span: &[u8]) -> io::Result<()> {
        if span.is_empty() {
            return Ok(());
        }
        // SAFETY: reads a constant of the running system.
        let page = unsafe { sysconf(SC_PAGESIZE) } as usize;
        let start = span.as_ptr() as usize;
        let aligned = start & !(page - 1);
        let len = start - aligned + span.len();
        // SAFETY: `MADV_POPULATE_READ` changes no mapping and no byte: it
        // walks the pages as a read of them would and reports a fault as
        // an error. Every page in the range holds a byte of `span` (the
        // start is rounded down within its first page, the kernel rounds
        // the length up within its last), so all of them stay mapped for
        // as long as `span` is borrowed.
        match unsafe { madvise(aligned as *mut c_void, len, MADV_POPULATE_READ) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }
}

/// No mapping off 64-bit Linux: every reader keeps its positioned reads,
/// and `fault_in` is never reached.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub(crate) fn map(_file: &std::fs::File, _len: u64) -> Option<bytes::Bytes> {
        None
    }

    pub(crate) fn fault_in(_span: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}
