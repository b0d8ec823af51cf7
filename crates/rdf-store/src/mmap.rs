//! [`StoreBuf`]: the byte source of the zero-copy load path — a
//! memory-mapped file when the platform allows it, an 8-aligned owned
//! buffer otherwise.
//!
//! The mapping is std-only: raw `mmap(2)`/`munmap(2)` syscalls on
//! Linux x86-64 and aarch64 (no libc crate, nothing to install), and a
//! single `read_to_end`-style fallback everywhere else — so every
//! platform and the CI container keep working, just without
//! page-cache sharing. A failed map falls back the same way.
//!
//! A reader that is done with a stretch of the file hands it to
//! [`StoreBuf::release`], which drops its pages from the process with
//! `madvise(MADV_DONTNEED)`: the mapping is private and never written,
//! so a later read of the same bytes faults them back in from the page
//! cache unchanged. That is how a load keeps only the pages near its
//! cursor resident. On the owned fallback it does nothing.
//!
//! Either way the buffer base is at least 8-aligned (pages are
//! page-aligned; the owned fallback stores `u64` words), which is what
//! lets layout-v2 readers serve 4-byte-wide columns as `&[u32]` slices
//! straight from the buffer.

use crate::error::StoreError;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Whether the raw-syscall mapping path exists on this target.
const MMAP_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// The page size [`StoreBuf::release`] aligns to. A kernel with larger
/// pages refuses the misaligned spans, and those pages stay resident.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
const PAGE: usize = 4096;

/// Bytes a reader walks between two releases of the pages behind its
/// cursor ([`StoreBuf::release`]): the most of one walk left resident.
pub const RELEASE_WINDOW: usize = 1 << 20;

/// An owned byte buffer whose base is 8-aligned: `u64` storage viewed
/// as bytes. `Vec<u8>` guarantees only 1-alignment, which would defeat
/// the zero-copy column casts on the read-fallback path.
#[derive(Debug)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Read the entire file into an 8-aligned buffer.
    fn read_file(file: &mut File) -> Result<AlignedBuf, StoreError> {
        let hint = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
        let mut words = vec![0u64; hint.div_ceil(8)];
        let mut len = 0usize;
        loop {
            if len == words.len() * 8 {
                words.resize(words.len() + words.len().max(1024) / 2, 0);
            }
            let spare = {
                let total = words.len() * 8;
                // SAFETY: viewing initialised u64 storage as bytes is
                // always valid (alignment only ever decreases).
                #[allow(unsafe_code)]
                let bytes = unsafe {
                    std::slice::from_raw_parts_mut(
                        words.as_mut_ptr().cast::<u8>(),
                        total,
                    )
                };
                &mut bytes[len..]
            };
            match file.read(spare) {
                Ok(0) => break,
                Ok(n) => len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
        Ok(AlignedBuf { words, len })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: as above — byte view of initialised u64 storage, and
        // `len` never exceeds the allocation (read() wrote that span).
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(
                self.words.as_ptr().cast::<u8>(),
                self.len,
            )
        }
    }
}

/// A read-only mapping created by the raw `mmap` syscall; unmapped on
/// drop.
#[derive(Debug)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct RawMapping {
    addr: *const u8,
    len: usize,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! The syscalls, invoked directly so the crate stays std-only.
    use super::RawMapping;
    use std::os::fd::RawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_MADVISE: usize = 233;

    const MADV_DONTNEED: usize = 4;

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: plain syscall instruction with the kernel's x86-64
        // calling convention; rcx/r11 are kernel-clobbered.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    #[allow(unsafe_code)]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: plain svc with the kernel's aarch64 convention.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack)
            );
        }
        ret
    }

    /// Map `len` bytes of `fd` read-only/private; `None` on failure
    /// (the caller falls back to reading).
    pub(super) fn map(fd: RawFd, len: usize) -> Option<RawMapping> {
        if len == 0 {
            return None;
        }
        // SAFETY: arguments follow the mmap(2) contract; a failure
        // returns a negative errno which we detect and discard.
        #[allow(unsafe_code)]
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                fd as usize,
                0,
            )
        };
        if ret > usize::MAX - 4095 {
            return None; // negative errno
        }
        Some(RawMapping {
            addr: ret as *const u8,
            len,
        })
    }

    /// Drop the pages of `addr..addr + len`, a page-aligned span inside
    /// a mapping, from the process; the next read faults them back in
    /// from the file. A failure (say, a kernel with larger pages than
    /// the span's alignment) leaves them resident, which is harmless.
    pub(super) fn dont_need(addr: usize, len: usize) {
        // SAFETY: the span lies inside a live read-only private file
        // mapping that is never written, so dropping its pages changes
        // no byte a reader can observe: a later access re-reads them
        // from the file.
        #[allow(unsafe_code)]
        unsafe {
            syscall6(SYS_MADVISE, addr, len, MADV_DONTNEED, 0, 0, 0);
        }
    }

    pub(super) fn unmap(m: &RawMapping) {
        // SAFETY: addr/len came from a successful mmap of exactly this
        // span; double-unmap is prevented by Drop running once.
        #[allow(unsafe_code)]
        unsafe {
            syscall6(SYS_MUNMAP, m.addr as usize, m.len, 0, 0, 0, 0);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl RawMapping {
    fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping covers `len` readable bytes for the life
        // of self (unmapped only in Drop). The file is opened
        // read-only by us; concurrent external truncation of a store
        // being read is outside the supported contract (same caveat as
        // any mmap'd reader).
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.addr, self.len)
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for RawMapping {
    fn drop(&mut self) {
        sys::unmap(self);
    }
}

// SAFETY: the mapping is read-only and the raw pointer refers to
// process-global memory not tied to a thread.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Send for RawMapping {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Sync for RawMapping {}

#[derive(Debug)]
enum BufImpl {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped(RawMapping),
    Owned(AlignedBuf),
}

/// The byte source behind a borrowed store reader: a mapped file or an
/// owned 8-aligned buffer. Graph views produced by
/// [`crate::BorrowedStoreReader`] borrow from this, which is what ties
/// their lifetime to the buffer's (see the compile-fail example on
/// [`crate::BorrowedStoreReader`]).
#[derive(Debug)]
pub struct StoreBuf {
    inner: BufImpl,
}

impl StoreBuf {
    /// Open `path`, mapping it when possible and falling back to one
    /// aligned read otherwise.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreBuf, StoreError> {
        let mut file = File::open(path)?;
        if MMAP_SUPPORTED {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            {
                use std::os::fd::AsRawFd;
                let len = file.metadata()?.len();
                if let Ok(len) = usize::try_from(len) {
                    if let Some(m) = sys::map(file.as_raw_fd(), len) {
                        return Ok(StoreBuf {
                            inner: BufImpl::Mapped(m),
                        });
                    }
                }
            }
        }
        Ok(StoreBuf {
            inner: BufImpl::Owned(AlignedBuf::read_file(&mut file)?),
        })
    }

    /// Wrap in-memory bytes, copying them into an 8-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> StoreBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        {
            let n = bytes.len();
            // SAFETY: byte view of initialised u64 storage, same span.
            #[allow(unsafe_code)]
            let dst = unsafe {
                std::slice::from_raw_parts_mut(
                    words.as_mut_ptr().cast::<u8>(),
                    n,
                )
            };
            dst.copy_from_slice(bytes);
        }
        StoreBuf {
            inner: BufImpl::Owned(AlignedBuf {
                words,
                len: bytes.len(),
            }),
        }
    }

    /// The file image.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BufImpl::Mapped(m) => m.as_slice(),
            BufImpl::Owned(b) => b.as_slice(),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release the pages that lie wholly inside `done`, a stretch of
    /// [`StoreBuf::as_slice`] the caller has finished reading: on a
    /// mapping they are dropped from the resident set (see the module
    /// docs), and reading them again faults them back in with the same
    /// bytes. Pages shared with bytes outside `done` stay. On the owned
    /// fallback, and for a slice that is not part of this buffer, it
    /// does nothing.
    pub fn release(&self, done: &[u8]) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let BufImpl::Mapped(m) = &self.inner {
            let base = m.addr as usize;
            let start = done.as_ptr() as usize;
            let end = start + done.len();
            if start < base || end > base + m.len {
                return;
            }
            let first = start.next_multiple_of(PAGE);
            let last = end / PAGE * PAGE;
            if first < last {
                sys::dont_need(first, last - first);
            }
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        let _ = done;
    }

    /// Whether the bytes come from a memory mapping (false: owned
    /// fallback buffer).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BufImpl::Mapped(_) => true,
            BufImpl::Owned(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rdf-store-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn open_serves_file_bytes_aligned() {
        let path = temp_path("basic");
        let data: Vec<u8> = (0..=255u8).cycle().take(4097).collect();
        File::create(&path).unwrap().write_all(&data).unwrap();
        let buf = StoreBuf::open(&path).unwrap();
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(buf.len(), data.len());
        assert!(!buf.is_empty());
        assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0, "8-aligned base");
        std::fs::remove_file(&path).unwrap();
    }

    /// The owned read (the path of platforms without the raw map, and
    /// of a failed map) serves the bytes `open` serves, from an
    /// 8-aligned base, on a file whose length is not a multiple of 8.
    #[test]
    fn owned_read_matches_mapped_bytes() {
        let path = temp_path("fallback");
        let data: Vec<u8> =
            (0..12345u32).map(|i| (i * 7 % 251) as u8).collect();
        assert_ne!(data.len() % 8, 0);
        File::create(&path).unwrap().write_all(&data).unwrap();
        let read = AlignedBuf::read_file(&mut File::open(&path).unwrap())
            .unwrap();
        assert_eq!(read.as_slice(), data.as_slice());
        assert_eq!(read.as_slice().as_ptr() as usize % 8, 0, "8-aligned");
        let opened = StoreBuf::open(&path).unwrap();
        assert_eq!(opened.as_slice(), read.as_slice());
        assert_eq!(opened.as_slice().as_ptr() as usize % 8, 0);
        let owned = StoreBuf::from_bytes(&data);
        assert!(!owned.is_mapped());
        assert_eq!(owned.as_slice(), data.as_slice());
        assert_eq!(owned.as_slice().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Releasing a stretch of a mapped file, or of an owned buffer,
    /// changes no byte a reader sees: the next read serves the same
    /// bytes, whatever the stretch's alignment, and a slice of another
    /// buffer is ignored.
    #[test]
    fn released_pages_read_back_unchanged() {
        let path = temp_path("release");
        let data: Vec<u8> =
            (0..5 * 4096 + 123u32).map(|i| (i * 31 % 253) as u8).collect();
        File::create(&path).unwrap().write_all(&data).unwrap();
        for buf in [StoreBuf::open(&path).unwrap(), StoreBuf::from_bytes(&data)]
        {
            let bytes = buf.as_slice();
            buf.release(&bytes[100..3 * 4096 + 7]);
            assert_eq!(buf.as_slice(), data.as_slice());
            buf.release(bytes);
            buf.release(&data[..4096]);
            assert_eq!(buf.as_slice(), data.as_slice());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_and_empty_bytes() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let buf = StoreBuf::open(&path).unwrap();
        assert!(buf.is_empty());
        assert!(!buf.is_mapped(), "zero-length files are never mapped");
        let b = StoreBuf::from_bytes(&[]);
        assert_eq!(b.len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            StoreBuf::open(temp_path("missing-definitely")),
            Err(StoreError::Io(_))
        ));
    }
}
