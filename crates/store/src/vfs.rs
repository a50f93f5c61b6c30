//! The store's filesystem seam.
//!
//! [`Store`](crate::Store) performs every filesystem operation through
//! the [`Vfs`] / [`VfsFile`] traits instead of calling `std::fs`
//! directly. Production code uses [`RealFs`] (the default); test
//! harnesses substitute an implementation that injects faults — short
//! reads, failed writes, fsync errors, post-write corruption — to prove
//! the store degrades into typed errors instead of panics or silent
//! data loss. The `cm-chaos` crate provides such an implementation.
//!
//! The surface is deliberately minimal: exactly the operations the
//! columnar store performs, nothing speculative. Paths are passed
//! through untouched, so a fault-injecting [`Vfs`] can delegate to
//! [`RealFs`] for the actual storage.

use std::fmt::Debug;
use std::fs::{self, File};
use std::io;
use std::path::Path;

/// An open file handle obtained through a [`Vfs`].
///
/// Reads are positioned (no shared cursor — the store's committed file
/// is read concurrently). Writes come in two shapes: sequential appends
/// while a compaction builds a new store file under its temporary name,
/// and positioned writes that append a commit's bytes to the live file
/// and flip one of its superblock slots.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Debug + Send + Sync {
    /// Current length of the file in bytes.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    fn len(&self) -> io::Result<u64>;

    /// Fills `buf` from the absolute byte `offset` without moving any
    /// shared cursor.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when fewer than `buf.len()`
    /// bytes exist past `offset`, or any underlying I/O failure.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Appends all of `buf` at the current write position.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure (out of space, permissions, …).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Writes all of `buf` at the absolute byte `offset`, extending the
    /// file if the range ends past its current length.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure; a prefix of `buf` may have landed.
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()>;

    /// Flushes data and metadata to durable storage.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the columnar store needs.
///
/// Implementations must be usable from multiple threads; the store
/// itself holds the [`Vfs`] behind an [`Arc`](std::sync::Arc).
pub trait Vfs: Debug + Send + Sync {
    /// Opens an existing file for reading.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] or any underlying I/O failure.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file for reading and writing, without
    /// truncating it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] or any underlying I/O failure.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Creates (truncating) a file for writing.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (replacing `to`).
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// The real filesystem: a thin veneer over `std::fs`.
///
/// # Examples
///
/// ```
/// use cm_store::{RealFs, Vfs};
///
/// let fs = RealFs;
/// assert!(!fs.exists(std::path::Path::new("/nonexistent/cm.store")));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

/// A [`VfsFile`] backed by a real [`File`].
#[derive(Debug)]
struct RealFile(File);

impl VfsFile for RealFile {
    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.0.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = self.0.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(buf)
    }

    #[cfg(unix)]
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.0.write_all_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for RealFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::open(path)?)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_vfs_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("f.bin")
    }

    #[test]
    fn real_fs_round_trips() {
        let path = temp_file("roundtrip");
        let fs_ = RealFs;
        assert!(!fs_.exists(&path));
        {
            let mut f = fs_.create(&path).unwrap();
            f.write_all(b"hello world").unwrap();
            f.sync_all().unwrap();
        }
        assert!(fs_.exists(&path));
        let f = fs_.open(&path).unwrap();
        assert_eq!(f.len().unwrap(), 11);
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 6).unwrap();
        assert_eq!(&buf, b"world");
        // Short read past the end is UnexpectedEof, not a panic.
        let mut big = [0u8; 32];
        let err = f.read_exact_at(&mut big, 6).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn real_fs_writes_in_place() {
        let path = temp_file("in_place");
        let fs_ = RealFs;
        fs_.create(&path)
            .unwrap()
            .write_all(b"hello world")
            .unwrap();
        let mut f = fs_.open_rw(&path).unwrap();
        f.write_all_at(b"W", 6).unwrap();
        f.write_all_at(b"!!", 11).unwrap();
        f.sync_all().unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello World!!");
        assert!(fs_.open_rw(&path.with_extension("missing")).is_err());
    }

    #[test]
    fn real_fs_rename_and_remove() {
        let path = temp_file("rename");
        let to = path.with_extension("renamed");
        let fs_ = RealFs;
        fs_.create(&path).unwrap().write_all(b"x").unwrap();
        fs_.rename(&path, &to).unwrap();
        assert!(!fs_.exists(&path));
        assert!(fs_.exists(&to));
        fs_.remove(&to).unwrap();
        assert!(!fs_.exists(&to));
    }
}
