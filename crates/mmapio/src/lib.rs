//! Std-only read-only memory mapping.
//!
//! The build environment has no crates.io access, so this crate provides
//! the small slice of `memmap2`-style functionality the workspace needs:
//! map a whole file read-only, hand out `&[u8]`, give the kernel access
//! hints, and unmap on drop. On unix the mapping is a real `mmap(2)`
//! (declared here via `extern "C"` — no libc crate); everywhere else
//! [`Mmap::map`] transparently degrades to reading the file into an owned
//! buffer, so callers never need their own platform gate.
//!
//! ## Safety model
//!
//! The only `unsafe` in the workspace's ingest path lives in this module,
//! behind three invariants:
//!
//! 1. **The pointer is kernel-vouched.** `as_slice` builds its slice only
//!    from a pointer a successful `mmap(PROT_READ, MAP_PRIVATE)` call
//!    returned, with exactly the length that was mapped. The kernel
//!    guarantees that range is readable for the mapping's lifetime.
//! 2. **The lifetime is tied to the owner.** The pointer is unmapped only
//!    in `Drop`, and the borrow checker pins every `&[u8]` derived from
//!    the mapping to the `Mmap`'s lifetime — no slice can outlive the
//!    `munmap`.
//! 3. **Immutability is private.** `MAP_PRIVATE` + `PROT_READ` means the
//!    mapping is never writable through this object, and writes by other
//!    processes to the file are not required to be coherent with it.
//!    The one hazard `mmap` cannot fence is another process *truncating*
//!    the file, which turns reads past the new end into `SIGBUS`; the
//!    corpus layer treats `.ltc` files as immutable once written
//!    (documented in DESIGN.md), and callers who cannot guarantee that
//!    should use the buffered path.
//!
//! Zero-length files never call `mmap` (a zero-length mapping is
//! `EINVAL`); they map to the canonical empty slice.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    // Raw unix syscall surface. Constant values are identical on Linux
    // and the BSD family (including macOS) for everything used here.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: isize = -1;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;
    pub const MADV_DONTNEED: c_int = 4;
    /// Linux-only: pre-fault the whole range at map time, trading one
    /// longer syscall for the per-page fault a sequential scan would
    /// otherwise take on every touched page. Not in POSIX; the BSDs use
    /// different values or lack it, so it is gated to Linux alone.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: c_int = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: c_int = 0;
}

/// Granularity of [`Mmap::release`]: a multiple of the page size of every
/// platform the workspace runs on (4 KiB, 16 KiB, 64 KiB).
pub const RELEASE_ALIGN: usize = 64 * 1024;

/// Access-pattern hints forwarded to `madvise(2)` (ignored by the
/// owned-buffer fallback, where the data is already resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// `MADV_SEQUENTIAL`: expect linear scans; the kernel reads ahead
    /// aggressively and drops pages behind the scan sooner.
    Sequential,
    /// `MADV_WILLNEED`: expect the whole range to be needed; start
    /// faulting it in now.
    WillNeed,
}

enum Backing {
    /// A live `mmap(2)` region (unix only). `ptr` is what `mmap` returned;
    /// `len` is the exact mapped length and is nonzero.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// The portable fallback: the file's bytes, owned.
    Owned(Vec<u8>),
}

/// A read-only view of a whole file: a real memory mapping on unix, an
/// owned copy of the bytes elsewhere. Dereferences to `&[u8]` either way.
pub struct Mmap {
    backing: Backing,
}

// SAFETY: the mapping is read-only for its whole lifetime (PROT_READ,
// never remapped or written through this object), so shared references
// from any thread observe immutable memory; the owned fallback is a Vec.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety. On unix this is
    /// `mmap(PROT_READ, MAP_PRIVATE)`; on other platforms the file is
    /// read into an owned buffer. Fails with the OS error if the mapping
    /// (or fallback read) fails.
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Mmap {
                backing: Backing::Owned(Vec::new()),
            });
        }
        Self::map_nonempty(file, len)
    }

    /// Opens and maps the file at `path`.
    pub fn map_path(path: impl AsRef<Path>) -> io::Result<Mmap> {
        Self::map(&File::open(path)?)
    }

    #[cfg(unix)]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open descriptor for this call's duration;
        // len is nonzero and no larger than the file; a MAP_FAILED return
        // is checked before the pointer is ever used. MAP_POPULATE (a
        // no-op bit off Linux) pre-faults the range so a whole-file scan
        // pays one syscall instead of one fault per page.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE | sys::MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            backing: Backing::Mapped {
                ptr: ptr.cast(),
                len,
            },
        })
    }

    #[cfg(not(unix))]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut src = file;
        src.read_to_end(&mut buf)?;
        Ok(Mmap {
            backing: Backing::Owned(buf),
        })
    }

    /// Whether this is a live kernel mapping (`false`: the owned-buffer
    /// fallback). Telemetry uses this to count real zero-copy ingests.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// Forwards an access-pattern hint to the kernel. Best-effort: hints
    /// are advisory, so failures (and the fallback backing) are ignored.
    pub fn advise(&self, advice: Advice) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                let advice = match advice {
                    Advice::Sequential => sys::MADV_SEQUENTIAL,
                    Advice::WillNeed => sys::MADV_WILLNEED,
                };
                // SAFETY: (ptr, len) is exactly the live mapping; madvise
                // never invalidates it, whatever the advice.
                unsafe {
                    sys::madvise(ptr.cast(), *len, advice);
                }
            }
            Backing::Owned(_) => {
                let _ = advice;
            }
        }
    }

    /// Drops the pages wholly inside `range` (bytes of the mapping,
    /// aligned inward to [`RELEASE_ALIGN`]) from this process's resident
    /// set: a scan that has consumed them says so, and a mapping read once
    /// front to back never holds more than its unread part. The bytes stay
    /// mapped — reading them again faults them back in from the file.
    /// Best-effort, like [`Self::advise`]; a no-op on the owned fallback.
    pub fn release(&self, range: std::ops::Range<usize>) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = &self.backing {
            let start = range.start.next_multiple_of(RELEASE_ALIGN);
            let end = range.end.min(*len) / RELEASE_ALIGN * RELEASE_ALIGN;
            if start < end {
                // SAFETY: [start, end) lies inside the live mapping and
                // starts on a page boundary (the mapping does, and
                // RELEASE_ALIGN is a multiple of every page size).
                // MADV_DONTNEED on a read-only private file mapping only
                // unmaps clean pages; the next read refetches the same
                // bytes, so no slice ever observes a change.
                unsafe {
                    sys::madvise(ptr.add(start).cast(), end - start, sys::MADV_DONTNEED);
                }
            }
        }
        #[cfg(not(unix))]
        let _ = range;
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: invariants 1 and 2 of the module doc — the
                // pointer/length pair came from a successful mmap that
                // only Drop tears down, and the returned borrow cannot
                // outlive `self`.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Owned(v) => v,
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: (ptr, len) is the exact region mmap returned,
                // unmapped exactly once (Drop runs once, and no other
                // code path munmaps).
                unsafe {
                    sys::munmap(ptr.cast::<std::os::raw::c_void>(), *len);
                }
            }
            Backing::Owned(_) => {}
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mmapio_{}_{tag}", std::process::id()));
        let mut f = File::create(&path).expect("create temp file");
        f.write_all(bytes).expect("write temp file");
        path
    }

    #[test]
    fn maps_file_contents_exactly() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("contents", &payload);
        let map = Mmap::map_path(&path).expect("map");
        assert_eq!(&*map, &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(map.is_mapped(), cfg!(unix));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_file("empty", &[]);
        let map = Mmap::map_path(&path).expect("map empty");
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), &[] as &[u8]);
        // Zero-length never calls mmap, so it is never a kernel mapping.
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("mmapio_does_not_exist");
        assert!(Mmap::map_path(&path).is_err());
    }

    #[test]
    fn advice_is_accepted_on_every_backing() {
        let path = temp_file("advice", b"0123456789");
        let map = Mmap::map_path(&path).expect("map");
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        assert_eq!(&*map, b"0123456789");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn released_pages_read_back_unchanged() {
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 239) as u8).collect();
        let path = temp_file("release", &payload);
        let map = Mmap::map_path(&path).expect("map");
        map.release(0..map.len());
        map.release(1..RELEASE_ALIGN + 1);
        map.release(map.len() - 10..usize::MAX);
        assert_eq!(&*map, &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 241) as u8).collect();
        let path = temp_file("threads", &payload);
        let map = std::sync::Arc::new(Mmap::map_path(&path).expect("map"));
        let sums: Vec<u64> = std::thread::scope(|scope| {
            (0..4)
                .map(|w| {
                    let map = std::sync::Arc::clone(&map);
                    scope.spawn(move || {
                        let chunk = map.len() / 4;
                        let lo = w * chunk;
                        let hi = if w == 3 { map.len() } else { lo + chunk };
                        map[lo..hi].iter().map(|&b| u64::from(b)).sum()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        let total: u64 = sums.iter().sum();
        let expect: u64 = payload.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(total, expect);
        std::fs::remove_file(&path).ok();
    }
}
