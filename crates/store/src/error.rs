use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced by the performance-data store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A run with the same (program, run index, mode) key already exists.
    DuplicateRun {
        /// Program name of the rejected run.
        program: String,
        /// Run index of the rejected run.
        run_index: u32,
    },
    /// A series with the same (program, run index, mode, event) key is
    /// already stored in the columnar store.
    DuplicateSeries {
        /// Program name of the rejected series.
        program: String,
        /// Run index of the rejected series.
        run_index: u32,
        /// Event index of the rejected series.
        event: usize,
    },
    /// A requested series is not in the columnar store.
    SeriesNotFound {
        /// Program name looked up.
        program: String,
        /// Run index looked up.
        run_index: u32,
        /// Event index looked up.
        event: usize,
    },
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file is not a columnar store (bad magic bytes).
    NotAStore {
        /// Offending file.
        file: String,
    },
    /// The store was written by an unknown format version.
    UnsupportedVersion {
        /// Offending file.
        file: String,
        /// Version recorded in the superblock.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A CRC-32 check failed: the bytes on disk are not the bytes that
    /// were written.
    ChecksumMismatch {
        /// Offending file.
        file: String,
        /// Which region failed (superblock, index, or a chunk).
        what: String,
    },
    /// The file ends before a structure it promises to contain.
    Truncated {
        /// Offending file.
        file: String,
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A structurally invalid store file (checksums pass but the
    /// contents are inconsistent).
    Corrupt {
        /// Offending file.
        file: String,
        /// What was inconsistent.
        what: String,
    },
}

impl StoreError {
    /// Fills in the file name on variants that carry one but were
    /// constructed where the name was unknown (e.g. in the codec).
    pub(crate) fn with_file(mut self, name: &str) -> Self {
        match &mut self {
            StoreError::NotAStore { file }
            | StoreError::UnsupportedVersion { file, .. }
            | StoreError::ChecksumMismatch { file, .. }
            | StoreError::Truncated { file, .. }
            | StoreError::Corrupt { file, .. }
                if file.is_empty() =>
            {
                *file = name.to_string();
            }
            _ => {}
        }
        self
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateRun { program, run_index } => {
                write!(f, "run {run_index} of program {program} already stored")
            }
            StoreError::DuplicateSeries {
                program,
                run_index,
                event,
            } => write!(
                f,
                "series for event {event} of {program} run {run_index} already stored"
            ),
            StoreError::SeriesNotFound {
                program,
                run_index,
                event,
            } => write!(
                f,
                "no series for event {event} of {program} run {run_index} in the store"
            ),
            StoreError::Io(e) => write!(f, "storage i/o failed: {e}"),
            StoreError::NotAStore { file } => {
                write!(f, "{file} is not a columnar store (bad magic)")
            }
            StoreError::UnsupportedVersion {
                file,
                found,
                supported,
            } => write!(
                f,
                "{file} uses store format version {found}; this build supports version {supported}"
            ),
            StoreError::ChecksumMismatch { file, what } => {
                write!(f, "checksum mismatch in {file}: {what} is corrupt")
            }
            StoreError::Truncated { file, what } => {
                write!(f, "{file} is truncated: {what}")
            }
            StoreError::Corrupt { file, what } => {
                write!(f, "corrupt store {file}: {what}")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::DuplicateRun {
            program: "sort".into(),
            run_index: 3,
        };
        assert!(e.to_string().contains("sort"));
        assert!(e.to_string().contains('3'));

        let e = StoreError::DuplicateSeries {
            program: "sort".into(),
            run_index: 3,
            event: 7,
        };
        assert!(e.to_string().contains("event 7"));
    }

    #[test]
    fn columnar_errors_name_the_file() {
        let e = StoreError::UnsupportedVersion {
            file: "x.cmstore".into(),
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("x.cmstore"));
        assert!(e.to_string().contains('9'));

        let e = StoreError::ChecksumMismatch {
            file: "x.cmstore".into(),
            what: "chunk at offset 32".into(),
        };
        assert!(e.to_string().contains("offset 32"));

        let e = StoreError::SeriesNotFound {
            program: "wc".into(),
            run_index: 1,
            event: 42,
        };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn with_file_fills_only_empty_names() {
        let e = StoreError::Corrupt {
            file: String::new(),
            what: "w".into(),
        }
        .with_file("a.cmstore");
        assert!(e.to_string().contains("a.cmstore"));

        let e = StoreError::Corrupt {
            file: "orig".into(),
            what: "w".into(),
        }
        .with_file("other");
        assert!(e.to_string().contains("orig"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<StoreError>();
    }
}
