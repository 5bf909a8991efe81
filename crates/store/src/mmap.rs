//! A minimal read-only memory map over a store file.
//!
//! This is the one module in the workspace that uses `unsafe`: it
//! binds `mmap(2)`/`munmap(2)` directly (the workspace takes no
//! external crates) so [`StoreReader`](crate::StoreReader) can decode
//! block payloads as zero-copy slices of the page cache instead of
//! reading the file into memory. Every unsafe block carries a SAFETY
//! comment; the rest of the crate stays `deny(unsafe_code)`.
//!
//! Mapping is strictly an optimization: [`Mmap::map`] returns `None`
//! whenever the platform is not unix, the file is empty, or the kernel
//! refuses the mapping, and the reader then reads the file whole. The
//! mapping is private (`MAP_PRIVATE`) and read-only (`PROT_READ`), so
//! it can never write back to the store.
#![allow(unsafe_code)]

#[cfg(unix)]
mod unix {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An owned read-only mapping of a whole file.
    #[derive(Debug)]
    pub(crate) struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only and owned exclusively by this
    // value; the raw pointer is only ever exposed as a shared `&[u8]`,
    // so moving or sharing the owner across threads is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only. Returns `None` when
        /// the kernel refuses (or the request is degenerate), in which
        /// case the caller reads the file whole instead.
        pub(crate) fn map(file: &File, len: u64) -> Option<Self> {
            let len = usize::try_from(len).ok()?;
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh private read-only mapping of a file
            // descriptor we hold open; the kernel validates the fd and
            // length, and a failure comes back as MAP_FAILED rather
            // than UB.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX || ptr.is_null() {
                return None;
            }
            Some(Mmap { ptr, len })
        }

        /// The mapped bytes. Valid for as long as `self` lives; the
        /// mapping stays valid even if the `File` is closed.
        pub(crate) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly
            // `len` bytes established in `map` and released only in
            // `drop`; MAP_PRIVATE means no other process mutates our
            // view.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by mmap in
            // `map`; after this the pointer is never used again.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(unix)]
pub(crate) use unix::Mmap;

/// Non-unix placeholder: uninhabited, so a mapping can never exist and
/// `map` always reports "no mapping".
#[cfg(not(unix))]
#[derive(Debug)]
pub(crate) enum Mmap {}

#[cfg(not(unix))]
impl Mmap {
    pub(crate) fn map(_file: &std::fs::File, _len: u64) -> Option<Self> {
        None
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match *self {}
    }
}

#[cfg(test)]
mod tests {
    use super::Mmap;
    use std::io::Write;

    #[test]
    fn maps_a_real_file_and_rejects_empty_ones() {
        let path = std::env::temp_dir().join(format!("spm-mmap-{}.bin", std::process::id()));
        let payload = b"spmstk01 mapped bytes";
        {
            let mut file = std::fs::File::create(&path).expect("create");
            file.write_all(payload).expect("write");
        }
        let file = std::fs::File::open(&path).expect("open");
        if let Some(map) = Mmap::map(&file, payload.len() as u64) {
            assert_eq!(map.as_slice(), payload);
        }
        // Zero-length requests must decline rather than map.
        assert!(Mmap::map(&file, 0).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
