//! Backing storage for the flat Q-table arena: a plain heap `Vec` or —
//! behind the `GLAP_ARENA_MMAP` flag — a file-backed `mmap` region, so a
//! million-PM table set (≈105 GB of values alone) can spill to disk
//! instead of pinning RSS.
//!
//! The mmap path deliberately avoids any libc dependency (the workspace
//! vendors no `libc`): on `x86_64-linux` it issues the `mmap`/`munmap`
//! syscalls directly via inline assembly against an *unlinked* temporary
//! file (created, grown with `set_len`, then removed while the fd stays
//! open), so the backing space is reclaimed automatically on process
//! exit, clean or not. Everywhere else — or on any failure along the way
//! — it silently degrades to the heap, which is always correct, just
//! fatter.
//!
//! Freshly mapped pages read back as zero bytes, which is exactly the
//! all-`0.0` / all-`false` initial state the arena wants, so heap and
//! mmap slabs start byte-identical for the element types used here
//! (`f64`, `bool`, zeroable sidecar integers).

use std::ops::{Deref, DerefMut};

/// Marker for element types whose all-zero byte pattern is a valid value
/// equal to `Self::ZERO` — the invariant that makes freshly mapped pages
/// a correct initial state.
///
/// # Safety
///
/// `ZERO`'s object representation must be all zero bytes and every bit
/// pattern the slab will ever hold must be produced by safe writes of
/// valid `Self` values (trivially true for the plain-old-data types
/// implemented below).
pub unsafe trait Zeroable: Copy {
    /// The value all-zero bytes decode to.
    const ZERO: Self;
}

unsafe impl Zeroable for f64 {
    const ZERO: Self = 0.0;
}
unsafe impl Zeroable for bool {
    const ZERO: Self = false;
}
unsafe impl Zeroable for usize {
    const ZERO: Self = 0;
}
unsafe impl Zeroable for u128 {
    const ZERO: Self = 0;
}

/// A fixed-length zero-initialized array of `T`, heap- or mmap-backed.
/// Derefs to `[T]`; the backing choice is invisible to all table kernels.
pub enum Slab<T: Zeroable> {
    /// Ordinary heap allocation.
    Heap(Vec<T>),
    /// File-backed anonymous-in-spirit mapping (unlinked temp file).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mmap(mmap_impl::MmapSlab<T>),
}

impl<T: Zeroable> Slab<T> {
    /// A zeroed heap slab of `len` elements.
    pub fn heap(len: usize) -> Self {
        Slab::Heap(vec![T::ZERO; len])
    }

    /// A zeroed slab of `len` elements, file-backed if `want_mmap` and
    /// the platform cooperates, heap otherwise. Never fails — the heap is
    /// the universal fallback.
    pub fn new(len: usize, want_mmap: bool) -> Self {
        if want_mmap {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            if let Some(m) = mmap_impl::MmapSlab::create(len) {
                return Slab::Mmap(m);
            }
        }
        Self::heap(len)
    }

    /// Whether this slab actually ended up file-backed.
    pub fn is_mmap(&self) -> bool {
        match self {
            Slab::Heap(_) => false,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Slab::Mmap(_) => true,
        }
    }
}

impl<T: Zeroable> Deref for Slab<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Slab::Heap(v) => v,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Slab::Mmap(m) => m.as_slice(),
        }
    }
}

impl<T: Zeroable> DerefMut for Slab<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Slab::Heap(v) => v,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Slab::Mmap(m) => m.as_mut_slice(),
        }
    }
}

impl<T: Zeroable> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Slab<{}>{{ len: {}, backing: {} }}",
            std::any::type_name::<T>(),
            self.len(),
            if self.is_mmap() { "mmap" } else { "heap" }
        )
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod mmap_impl {
    use super::Zeroable;
    use std::fs::{File, OpenOptions};
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicU64, Ordering};

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 0x1;
    const PROT_WRITE: usize = 0x2;
    const MAP_SHARED: usize = 0x01;

    /// Raw `mmap(2)`; returns the mapped address or a negative errno.
    unsafe fn sys_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MMAP as isize => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ | PROT_WRITE,
            in("r10") MAP_SHARED,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// Raw `munmap(2)`.
    unsafe fn sys_munmap(addr: usize, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MUNMAP as isize => ret,
            in("rdi") addr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// A writable mapping of an unlinked temp file, viewed as `[T]`.
    pub struct MmapSlab<T> {
        addr: usize,
        byte_len: usize,
        len: usize,
        /// Keeps the (already unlinked) backing file alive.
        _file: File,
        _marker: PhantomData<T>,
    }

    // The mapping is plain memory owned by this value; `T: Zeroable` is
    // POD, so the usual slice rules apply.
    unsafe impl<T: Send> Send for MmapSlab<T> {}
    unsafe impl<T: Sync> Sync for MmapSlab<T> {}

    static SLAB_COUNTER: AtomicU64 = AtomicU64::new(0);

    impl<T: Zeroable> MmapSlab<T> {
        /// Maps a zeroed `len`-element region backed by an unlinked temp
        /// file. Returns `None` on any failure (caller falls back to heap).
        pub fn create(len: usize) -> Option<Self> {
            let byte_len = len.checked_mul(std::mem::size_of::<T>())?;
            if byte_len == 0 {
                // Zero-length mmap is EINVAL; an empty heap Vec is free.
                return None;
            }
            let dir = std::env::var_os("GLAP_ARENA_MMAP_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(std::env::temp_dir);
            let seq = SLAB_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("glap-arena-{}-{}.slab", std::process::id(), seq));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .ok()?;
            // Unlink immediately: the mapping keeps the inode alive and
            // the kernel reclaims the space when the process dies.
            let _ = std::fs::remove_file(&path);
            file.set_len(byte_len as u64).ok()?;
            let ret = unsafe { sys_mmap(byte_len, fd_of(&file)) };
            if !(0..isize::MAX).contains(&ret)
                || !(ret as usize).is_multiple_of(std::mem::align_of::<T>())
            {
                return None;
            }
            Some(MmapSlab {
                addr: ret as usize,
                byte_len,
                len,
                _file: file,
                _marker: PhantomData,
            })
        }

        #[inline]
        pub fn as_slice(&self) -> &[T] {
            unsafe { std::slice::from_raw_parts(self.addr as *const T, self.len) }
        }

        #[inline]
        pub fn as_mut_slice(&mut self) -> &mut [T] {
            unsafe { std::slice::from_raw_parts_mut(self.addr as *mut T, self.len) }
        }
    }

    impl<T> Drop for MmapSlab<T> {
        fn drop(&mut self) {
            unsafe {
                sys_munmap(self.addr, self.byte_len);
            }
        }
    }

    /// `AsRawFd` without importing the trait into the public surface.
    fn fd_of(f: &File) -> i32 {
        use std::os::unix::io::AsRawFd;
        f.as_raw_fd()
    }
}

/// Reads the `GLAP_ARENA_MMAP` environment flag: `1`/`true`/`yes` (any
/// case) requests file-backed arena storage.
pub fn mmap_requested_from_env() -> bool {
    std::env::var("GLAP_ARENA_MMAP")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "yes"
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_slab_is_zeroed_and_writable() {
        let mut s: Slab<f64> = Slab::new(1024, false);
        assert!(!s.is_mmap());
        assert!(s.iter().all(|&x| x == 0.0));
        s[17] = 3.5;
        assert_eq!(s[17], 3.5);
    }

    #[test]
    fn mmap_slab_matches_heap_semantics() {
        let mut m: Slab<f64> = Slab::new(4096, true);
        // On non-linux-x86_64 (or mmap failure) this silently fell back
        // to heap; the semantics below must hold either way.
        assert!(m.iter().all(|&x| x == 0.0));
        for i in 0..m.len() {
            m[i] = i as f64 * 0.5;
        }
        assert_eq!(m[4095], 4095.0 * 0.5);
        let mut b: Slab<bool> = Slab::new(333, true);
        assert!(b.iter().all(|&x| !x));
        b[300] = true;
        assert!(b[300] && !b[299]);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn mmap_backing_actually_engages_on_linux() {
        let s: Slab<f64> = Slab::new(1 << 16, true);
        assert!(s.is_mmap(), "mmap slab should engage on x86_64 linux");
    }

    #[test]
    fn env_flag_parsing() {
        // Only exercises the parser, not the environment.
        assert!(!mmap_requested_from_env() || std::env::var("GLAP_ARENA_MMAP").is_ok());
    }
}
