//! Typed load/save errors. Corrupt or truncated containers must fail
//! loudly with one of these — never panic, never load garbage.

use std::fmt;

/// Everything that can go wrong writing or (mostly) reading a `.rdfb`
/// container.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `RDFB` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The container's format version is newer than this build supports.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// The container holds a different content kind than requested
    /// (e.g. an archive passed to the graph loader).
    WrongContentKind {
        /// Kind byte found in the header.
        found: u8,
        /// Kind byte expected by the caller.
        expected: u8,
    },
    /// A section payload's CRC-32 does not match its header.
    ChecksumMismatch {
        /// Four-character tag of the failing section.
        section: [u8; 4],
        /// Checksum recorded in the section header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// The file ends in the middle of a structure.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A required section is absent.
    MissingSection {
        /// Tag of the missing section.
        section: [u8; 4],
    },
    /// The container holds a content kind that was retired: 3 or 4,
    /// the manifest and shard files of the removed sharded layout.
    RetiredKind {
        /// Kind byte found in the header.
        found: u8,
    },
    /// A graph store (kind 1) in a retired layout: container version 1,
    /// the varint `NODE`/`TRPL` bodies, or version 2, whose `DICT` is in
    /// first-use order. Graph stores are written and read as version 3
    /// only; archives keep version 1.
    RetiredLayout {
        /// Container version found in the header.
        version: u16,
    },
    /// Structurally invalid content (bad counts, out-of-range ids,
    /// inconsistent dictionaries, …).
    Corrupt(String),
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                (b as char).to_string()
            } else {
                format!("\\x{b:02x}")
            }
        })
        .collect()
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not an RDFB container (magic {:?})",
                tag_str(found)
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "container format version {found} is newer than supported \
                 version {supported}"
            ),
            StoreError::WrongContentKind { found, expected } => write!(
                f,
                "container holds content kind {found}, expected {expected}"
            ),
            StoreError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {:?} checksum mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}",
                tag_str(section)
            ),
            StoreError::Truncated { what } => {
                write!(f, "file truncated while reading {what}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {:?} missing", tag_str(section))
            }
            StoreError::RetiredKind { found } => write!(
                f,
                "container holds content kind {found}, part of the retired \
                 sharded store layout; re-import the N-Triples into a \
                 single .rdfb store"
            ),
            StoreError::RetiredLayout { version: 1 } => f.write_str(
                "the varint graph-store layout (container version 1) is \
                 retired; re-import the N-Triples with `rdf import`, which \
                 writes the fixed layout",
            ),
            StoreError::RetiredLayout { version } => write!(
                f,
                "graph-store container version {version} (a DICT in \
                 first-use order) is retired; re-import the N-Triples with \
                 `rdf import`, which writes version 3"
            ),
            StoreError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
