//! The generic `.rdfb` container: header + checksummed sections.
//!
//! A container is a 32-byte fixed header (magic `RDFB`, version,
//! content kind, section count, three kind-dependent u64 counts)
//! followed by sections framed as
//! `tag[4] · payload_len(u64) · crc32(u32) · payload`. The normative
//! byte-level specification — including the per-kind count meanings
//! and every validation rule — lives in `docs/FORMAT.md` (§1–§2) at
//! the repository root.
//!
//! Readers verify every checksum before any payload is interpreted, so a
//! flipped bit or a truncated download fails with a typed error instead
//! of materialising a wrong graph.
//!
//! The header version field doubles as the **layout flag**: graph
//! stores are version 3, whose `NODE`/`TRPL` bodies are the
//! fixed-width columns of `docs/FORMAT.md` §3 and whose `DICT` is in
//! hash order; version 1 is the archive container. Graph stores of
//! versions 1 (the varint layout) and 2 (a `DICT` in first-use order)
//! are retired, and [`Container::parse_header`] rejects them with
//! [`StoreError::RetiredLayout`]. Layout is always resolved from the
//! header, never from a file extension.

use crate::checksum::{crc32, crc32_combine, crc32_windows};
use crate::mmap::RELEASE_WINDOW;
use crate::error::StoreError;

/// The four magic bytes opening every container.
pub const MAGIC: [u8; 4] = *b"RDFB";

/// Container version 1: the version archives are written with. A
/// graph store (kind 1) with this version is in the retired varint
/// layout and is rejected with [`StoreError::RetiredLayout`].
pub const FORMAT_VERSION: u16 = 1;

/// Container version 3, the fixed-width layout every graph store is
/// written in: `NODE`/`TRPL` bodies are padded little-endian
/// fixed-width arrays, every section payload is zero-padded to a
/// multiple of 8 bytes, so readers can serve typed slices straight
/// from the file image, and the `DICT` entries ascend by label hash
/// (`docs/FORMAT.md` §3). Version 2 graph stores, the same layout with
/// a `DICT` in first-use order, are retired.
pub const FORMAT_VERSION_FIXED: u16 = 3;

/// Highest container version this build reads.
pub const MAX_FORMAT_VERSION: u16 = 3;

/// Section body layout of a container, as selected by the header
/// version field. Graph stores are always [`Layout::Fixed`];
/// [`Layout::Varint`] names the version-1 bodies archives still use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Version 1: varint section bodies (archives).
    Varint,
    /// Version 3: padded fixed-width little-endian section bodies
    /// (graph stores; zero-copy or widen-only loads).
    Fixed,
}

impl Layout {
    /// The container version this layout is stamped as.
    pub fn version(self) -> u16 {
        match self {
            Layout::Varint => FORMAT_VERSION,
            Layout::Fixed => FORMAT_VERSION_FIXED,
        }
    }

    /// Resolve the layout a header version selects, or `None` for a
    /// version this build does not know.
    pub fn from_version(version: u16) -> Option<Layout> {
        match version {
            FORMAT_VERSION => Some(Layout::Varint),
            FORMAT_VERSION_FIXED => Some(Layout::Fixed),
            _ => None,
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layout::Varint => "varint",
            Layout::Fixed => "fixed",
        })
    }
}

/// Content kind: a single dictionary-encoded triple graph.
pub const KIND_GRAPH: u8 = 1;

/// Content kind: a multi-version archive.
pub const KIND_ARCHIVE: u8 = 2;

/// Content kinds 3 and 4, retired with the sharded store layout (a
/// manifest and its shard files). [`Container::parse_header`] rejects
/// them with [`StoreError::RetiredKind`]; the numbers stay reserved.
pub const RETIRED_KINDS: [u8; 2] = [3, 4];

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// Per-section overhead in bytes (tag + length + checksum).
pub const SECTION_OVERHEAD: usize = 16;

/// Parsed fixed header of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version.
    pub version: u16,
    /// Content kind ([`KIND_GRAPH`] or [`KIND_ARCHIVE`]).
    pub kind: u8,
    /// Number of sections that follow.
    pub sections: u8,
    /// Kind-dependent summary counts (see module docs).
    pub counts: [u64; 3],
}

impl Header {
    /// The section body layout the version field selects. Parsed
    /// headers carry a known version ([`Container::parse_header`]
    /// rejects the rest); anything above 1 reads as fixed.
    pub fn layout(&self) -> Layout {
        Layout::from_version(self.version).unwrap_or(Layout::Fixed)
    }
}

/// The most bytes a section source hands on at once: the size of the
/// one window buffer [`ContainerWriter`] encodes every section into.
pub const SECTION_WINDOW: usize = 1 << 20;

/// Where a section source puts its payload, one window at a time
/// (see [`ContainerWriter::windowed`]). Bytes collect in a window of
/// at most [`SECTION_WINDOW`] bytes, which is handed on whenever the
/// next bytes do not fit; a run of a whole window or more is handed on
/// as it is, without a copy.
pub struct Windows<'a> {
    buf: &'a mut Vec<u8>,
    sink: &'a mut dyn FnMut(&[u8]) -> Result<(), StoreError>,
    /// Bytes handed on so far.
    flushed: u64,
}

impl Windows<'_> {
    /// Append `bytes` to the payload.
    pub fn put(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if bytes.len() > SECTION_WINDOW - self.buf.len() {
            self.flush()?;
            if bytes.len() >= SECTION_WINDOW {
                self.flushed += bytes.len() as u64;
                return (self.sink)(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// The window, with room for at least `n` more bytes (handed on
    /// first if it has less), for the caller to append to directly
    /// while keeping it within [`SECTION_WINDOW`] bytes; `n` must not
    /// exceed [`SECTION_WINDOW`].
    pub fn room(&mut self, n: usize) -> Result<&mut Vec<u8>, StoreError> {
        debug_assert!(n <= SECTION_WINDOW);
        if n > SECTION_WINDOW - self.buf.len() {
            self.flush()?;
        }
        Ok(self.buf)
    }

    /// Zero-pad the payload to a multiple of 8 bytes (the fixed
    /// layout's universal payload rule).
    pub fn pad8(&mut self) -> Result<(), StoreError> {
        let len = self.flushed + self.buf.len() as u64;
        let pad = (8 - len % 8) % 8;
        self.put(&[0u8; 8][..pad as usize])
    }

    /// Hand on the bytes collected so far.
    fn flush(&mut self) -> Result<(), StoreError> {
        if !self.buf.is_empty() {
            self.flushed += self.buf.len() as u64;
            (self.sink)(self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// A section payload, produced a window at a time.
type Source<'a> = Box<dyn Fn(&mut Windows<'_>) -> Result<(), StoreError> + 'a>;

/// Collects tagged sections, then writes the whole container, one
/// window of one section at a time.
///
/// A section's frame carries its length and CRC ahead of its payload,
/// and the sink is a plain [`std::io::Write`], so every section is
/// produced twice: the first pass folds each window into the CRC
/// (`crc32_combine`) and counts its bytes, the second writes the frame
/// and then the windows. Only one window of one section is in memory at
/// a time. A source must therefore put the same bytes on both passes.
#[derive(Default)]
pub struct ContainerWriter<'a> {
    sections: Vec<([u8; 4], Source<'a>)>,
}

impl std::fmt::Debug for ContainerWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags =
            self.sections.iter().map(|(t, _)| String::from_utf8_lossy(t));
        f.debug_list().entries(tags).finish()
    }
}

impl<'a> ContainerWriter<'a> {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section whose payload is already whole: one window.
    /// Order is preserved in the file.
    pub fn section(&mut self, tag: [u8; 4], payload: Vec<u8>) -> &mut Self {
        self.windowed(tag, move |w| w.put(&payload))
    }

    /// Append a section whose payload `source` puts into a [`Windows`];
    /// it runs once per pass and must put the same bytes each time.
    /// Order is preserved in the file.
    pub fn windowed(
        &mut self,
        tag: [u8; 4],
        source: impl Fn(&mut Windows<'_>) -> Result<(), StoreError> + 'a,
    ) -> &mut Self {
        self.sections.push((tag, Box::new(source)));
        self
    }

    /// Serialise header and sections into `out` stamped as container
    /// version 1, the archive version.
    pub fn finish(
        self,
        out: &mut impl std::io::Write,
        kind: u8,
        counts: [u64; 3],
    ) -> Result<(), StoreError> {
        self.finish_versioned(out, FORMAT_VERSION, kind, counts)
    }

    /// Serialise header and sections into `out`, stamping an explicit
    /// container version (the layout flag — see [`Layout::version`]).
    pub fn finish_versioned(
        self,
        out: &mut impl std::io::Write,
        version: u16,
        kind: u8,
        counts: [u64; 3],
    ) -> Result<(), StoreError> {
        let n = u8::try_from(self.sections.len()).map_err(|_| {
            StoreError::Corrupt("more than 255 sections".into())
        })?;
        out.write_all(&MAGIC)?;
        out.write_all(&version.to_le_bytes())?;
        out.write_all(&[kind, n])?;
        for c in counts {
            out.write_all(&c.to_le_bytes())?;
        }
        let mut buf = Vec::with_capacity(SECTION_WINDOW);
        for (tag, source) in &self.sections {
            let mut crc = 0;
            let len = run(source, &mut buf, &mut |w| {
                crc = crc32_combine(crc, crc32(w), w.len() as u64);
                Ok(())
            })?;
            out.write_all(tag)?;
            out.write_all(&len.to_le_bytes())?;
            out.write_all(&crc.to_le_bytes())?;
            let written =
                run(source, &mut buf, &mut |w| Ok(out.write_all(w)?))?;
            if written != len {
                return Err(StoreError::Corrupt(format!(
                    "section {} put {len} bytes, then {written}",
                    String::from_utf8_lossy(tag)
                )));
            }
        }
        Ok(())
    }
}

/// One pass of a section source into `sink` through the window `buf`;
/// returns the payload's length.
fn run(
    source: &Source<'_>,
    buf: &mut Vec<u8>,
    sink: &mut dyn FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<u64, StoreError> {
    buf.clear();
    let mut w = Windows {
        buf,
        sink,
        flushed: 0,
    };
    source(&mut w)?;
    w.flush()?;
    Ok(w.flushed)
}

/// A parsed container over an in-memory byte buffer; every section's
/// checksum has been verified by the time parsing returns.
#[derive(Debug)]
pub struct Container<'a> {
    header: Header,
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Parse and fully validate a container (header fields, section
    /// framing, and every payload checksum).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::parse_releasing(bytes, |_| {})
    }

    /// [`Container::parse`], handing each stretch of payload to `done`
    /// once its checksum pass is past it, at most
    /// [`RELEASE_WINDOW`] bytes at a time: the store reader releases
    /// those pages of its mapping ([`crate::StoreBuf::release`]). The
    /// checksums are the same values, and a section is still fully
    /// checksummed before this returns.
    pub fn parse_releasing(
        bytes: &'a [u8],
        mut done: impl FnMut(&[u8]),
    ) -> Result<Self, StoreError> {
        let header = Self::parse_header(bytes)?;
        let mut pos = HEADER_LEN;
        let mut sections = Vec::with_capacity(header.sections as usize);
        for _ in 0..header.sections {
            let frame =
                bytes.get(pos..pos + SECTION_OVERHEAD).ok_or(
                    StoreError::Truncated {
                        what: "section header",
                    },
                )?;
            let tag: [u8; 4] = frame[0..4].try_into().unwrap();
            let len = u64::from_le_bytes(frame[4..12].try_into().unwrap());
            let stored = u32::from_le_bytes(frame[12..16].try_into().unwrap());
            let len = usize::try_from(len).map_err(|_| {
                StoreError::Corrupt("section length exceeds usize".into())
            })?;
            pos += SECTION_OVERHEAD;
            // The length field is not itself checksummed; a flipped bit
            // can make it huge, so the slice arithmetic must not overflow.
            let end = pos.checked_add(len).ok_or(StoreError::Truncated {
                what: "section payload",
            })?;
            let payload =
                bytes.get(pos..end).ok_or(StoreError::Truncated {
                    what: "section payload",
                })?;
            pos = end;
            let computed = crc32_windows(payload, RELEASE_WINDOW, &mut done);
            if computed != stored {
                return Err(StoreError::ChecksumMismatch {
                    section: tag,
                    stored,
                    computed,
                });
            }
            sections.push((tag, payload));
        }
        if pos != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after final section",
                bytes.len() - pos
            )));
        }
        Ok(Container { header, sections })
    }

    /// Parse only the fixed header (no section walking) — enough for a
    /// cheap `info` on a large file. Rejects unknown versions, the
    /// retired kinds and graph stores of versions 1 and 2 (the retired
    /// layouts).
    pub fn parse_header(bytes: &[u8]) -> Result<Header, StoreError> {
        // Check the magic before the length, so a short non-container
        // file reports "not an RDFB container" rather than "truncated".
        if let Some(prefix) = bytes.get(..4) {
            let found: [u8; 4] = prefix.try_into().unwrap();
            if found != MAGIC {
                return Err(StoreError::BadMagic { found });
            }
        }
        let head = bytes.get(..HEADER_LEN).ok_or(StoreError::Truncated {
            what: "header",
        })?;
        let version = u16::from_le_bytes(head[4..6].try_into().unwrap());
        if version == 0 || version > MAX_FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: MAX_FORMAT_VERSION,
            });
        }
        let kind = head[6];
        if RETIRED_KINDS.contains(&kind) {
            return Err(StoreError::RetiredKind { found: kind });
        }
        if kind == KIND_GRAPH && version < FORMAT_VERSION_FIXED {
            return Err(StoreError::RetiredLayout { version });
        }
        let sections = head[7];
        let mut counts = [0u64; 3];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = u64::from_le_bytes(
                head[8 + 8 * i..16 + 8 * i].try_into().unwrap(),
            );
        }
        Ok(Header {
            version,
            kind,
            sections,
            counts,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[([u8; 4], &'a [u8])] {
        &self.sections
    }

    /// Payload of the first section with `tag`, or a typed error.
    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], StoreError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|&(_, p)| p)
            .ok_or(StoreError::MissingSection { section: tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.section(*b"AAAA", vec![1, 2, 3]);
        w.section(*b"BBBB", vec![]);
        let mut out = Vec::new();
        let counts = [10, 20, 30];
        w.finish_versioned(&mut out, FORMAT_VERSION_FIXED, KIND_GRAPH, counts)
            .unwrap();
        out
    }

    #[test]
    fn write_parse_round_trip() {
        let bytes = sample();
        let c = Container::parse(&bytes).unwrap();
        assert_eq!(c.header().version, FORMAT_VERSION_FIXED);
        assert_eq!(c.header().kind, KIND_GRAPH);
        assert_eq!(c.header().counts, [10, 20, 30]);
        assert_eq!(c.section(*b"AAAA").unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(*b"BBBB").unwrap(), &[] as &[u8]);
        assert!(matches!(
            c.section(*b"ZZZZ"),
            Err(StoreError::MissingSection { .. })
        ));
    }

    /// A windowed payload is framed with the length and CRC of all its
    /// windows: small puts that share a window, a put that does not fit
    /// the rest of one, and a run longer than a window handed on whole.
    #[test]
    fn windowed_sections_frame_every_window() {
        let big: Vec<u8> =
            (0..SECTION_WINDOW * 2 + 5).map(|i| i as u8).collect();
        let mut whole = b"head".to_vec();
        whole.extend_from_slice(&big[..SECTION_WINDOW - 2]);
        whole.extend_from_slice(&big);
        let mut w = ContainerWriter::new();
        w.windowed(*b"WIND", |w| {
            w.put(b"head")?;
            w.put(&big[..SECTION_WINDOW - 2])?;
            w.put(&big)
        });
        w.section(*b"WHOL", whole.clone());
        let mut out = Vec::new();
        w.finish_versioned(&mut out, FORMAT_VERSION_FIXED, KIND_GRAPH, [0; 3])
            .unwrap();
        let c = Container::parse(&out).unwrap();
        assert_eq!(c.section(*b"WIND").unwrap(), whole.as_slice());
        assert_eq!(c.section(*b"WHOL").unwrap(), whole.as_slice());
    }

    /// A source that puts other bytes on its second pass than on its
    /// first is refused rather than framed wrongly.
    #[test]
    fn unrepeatable_source_is_an_error() {
        let passes = std::cell::Cell::new(0);
        let mut w = ContainerWriter::new();
        w.windowed(*b"ONCE", |w| {
            passes.set(passes.get() + 1);
            w.put(&vec![7; passes.get()])
        });
        let err = w.finish(&mut Vec::new(), KIND_ARCHIVE, [0; 3]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(m) if m.contains("ONCE")));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::UnsupportedVersion {
                found: 0xffff,
                ..
            })
        ));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut bytes = sample();
        // AAAA's payload occupies the 3 bytes right after its frame.
        let a_payload = HEADER_LEN + SECTION_OVERHEAD;
        bytes[a_payload] ^= 0x40;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::ChecksumMismatch { section, .. }) if section == *b"AAAA"
        ));
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = Container::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn versioned_finish_round_trips_layout() {
        let mut w = ContainerWriter::new();
        let scratch = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        w.section(*b"AAAA", scratch.clone());
        let mut out = Vec::new();
        w.finish_versioned(&mut out, FORMAT_VERSION_FIXED, KIND_GRAPH, [8, 0, 0])
            .unwrap();
        let c = Container::parse(&out).unwrap();
        assert_eq!(c.header().version, FORMAT_VERSION_FIXED);
        assert_eq!(c.header().layout(), Layout::Fixed);
        assert_eq!(c.section(*b"AAAA").unwrap(), scratch.as_slice());
        // Plain finish stamps version 1, the archive layout.
        let mut w = ContainerWriter::new();
        w.section(*b"AAAA", vec![1]);
        let mut v1 = Vec::new();
        w.finish(&mut v1, KIND_ARCHIVE, [1, 0, 0]).unwrap();
        assert_eq!(
            Container::parse_header(&v1).unwrap().layout(),
            Layout::Varint
        );
    }

    /// The names `rdf info` prints for each layout, and the version
    /// each one is stamped as.
    #[test]
    fn layout_maps_versions_and_cli_names() {
        assert_eq!(Layout::Varint.version(), FORMAT_VERSION);
        assert_eq!(Layout::Fixed.version(), FORMAT_VERSION_FIXED);
        assert_eq!(Layout::from_version(1), Some(Layout::Varint));
        assert_eq!(Layout::from_version(2), None);
        assert_eq!(Layout::from_version(3), Some(Layout::Fixed));
        assert_eq!(Layout::from_version(4), None);
        assert_eq!(Layout::Varint.to_string(), "varint");
        assert_eq!(Layout::Fixed.to_string(), "fixed");
    }

    #[test]
    fn version_zero_rejected() {
        let mut bytes = sample();
        bytes[4] = 0;
        bytes[5] = 0;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn retired_kinds_rejected() {
        for kind in RETIRED_KINDS {
            let mut bytes = sample();
            bytes[6] = kind;
            assert!(matches!(
                Container::parse(&bytes),
                Err(StoreError::RetiredKind { found }) if found == kind
            ));
        }
    }

    /// Graph stores of versions 1 (the varint layout) and 2 (a `DICT`
    /// in first-use order) are retired, refused from their header; a
    /// version-1 archive still parses.
    #[test]
    fn retired_layout_rejected() {
        for version in [FORMAT_VERSION, 2] {
            let mut bytes = sample();
            bytes[4] = version as u8;
            assert!(matches!(
                Container::parse(&bytes),
                Err(StoreError::RetiredLayout { version: v }) if v == version
            ));
        }
        let mut bytes = sample();
        bytes[4] = FORMAT_VERSION as u8;
        bytes[6] = KIND_ARCHIVE;
        assert_eq!(Container::parse(&bytes).unwrap().header().version, 1);
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }
}
