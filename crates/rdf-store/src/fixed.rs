//! Fixed-width section bodies (container version 3, the one graph-store
//! layout).
//!
//! The layout trades a few bytes of padding for *decodability by
//! pointer cast*: `NODE` and `TRPL` bodies are little-endian
//! fixed-width id arrays behind a 16-byte preamble, and **every**
//! section payload (including the still-varint `DICT`/`BNAM`) is
//! zero-padded to a multiple of 8 bytes. Because the container
//! header is 32 bytes and each section frame 16, every payload then
//! starts 8-aligned within the file image — so a 4-byte-wide column in
//! a mapped or 8-aligned buffer can be served as `&[u32]` without a
//! copy. The normative spec is `docs/FORMAT.md` §3.
//!
//! Body shapes:
//!
//! * fixed `NODE`: `count(u64 LE) · width(u8) · 7 zero bytes`, then one
//!   label-id column (`count × width` bytes, zero-padded to 8);
//! * fixed `TRPL`: same preamble, then **three** columns — subject,
//!   predicate, object — each `count × width` bytes and each
//!   individually zero-padded to 8 (so every column starts 8-aligned).
//!
//! `width` is 1, 2 or 4, chosen by the writer as the *minimal* width
//! holding the largest id in the section ([`width_for`]) — a canonical
//! choice, so equal graphs produce equal bytes. Readers accept any of
//! the three widths. Pad bytes must be zero ([`check_pad8`]); anything
//! else is a typed corruption error.

use crate::container::{Windows, SECTION_WINDOW};
use crate::error::StoreError;

/// Valid fixed-column widths in bytes.
pub const FIXED_WIDTHS: [u8; 3] = [1, 2, 4];

/// Length of the fixed-section preamble (count + width + padding).
pub const FIXED_PREAMBLE: usize = 16;

/// Minimal fixed width (1, 2 or 4 bytes) holding `max_id`.
pub fn width_for(max_id: u32) -> u8 {
    if max_id <= 0xff {
        1
    } else if max_id <= 0xffff {
        2
    } else {
        4
    }
}

/// Zero-pad `buf` to a multiple of 8 bytes (the fixed layout's
/// universal payload rule).
pub fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

/// Verify the fixed layout's padding rule at the end of a payload: from
/// `pos` to `body.len()` there are at most 7 bytes and all are zero.
pub fn check_pad8(body: &[u8], pos: usize, what: &str) -> Result<(), StoreError> {
    let tail = body.get(pos..).ok_or(StoreError::Truncated {
        what: "section padding",
    })?;
    if tail.len() >= 8 {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} trailing bytes after body (max 7 pad bytes)",
            tail.len()
        )));
    }
    if tail.iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt(format!(
            "{what}: non-zero padding byte"
        )));
    }
    Ok(())
}

/// Put the 16-byte preamble of a fixed body of `count` records at
/// `width` bytes per id.
pub fn put_preamble(
    w: &mut Windows<'_>,
    count: usize,
    width: u8,
) -> Result<(), StoreError> {
    let mut head = [0u8; FIXED_PREAMBLE];
    head[..8].copy_from_slice(&(count as u64).to_le_bytes());
    head[8] = width;
    w.put(&head)
}

/// Put one column of ids at `width` bytes each (LE truncation is
/// lossless by the writer's width choice), then its zero padding to 8.
/// The ids are encoded straight into the window, as many as fit at a
/// time.
pub fn put_column(
    w: &mut Windows<'_>,
    mut ids: impl Iterator<Item = u32>,
    width: u8,
) -> Result<(), StoreError> {
    let bytes = usize::from(width);
    loop {
        let buf = w.room(bytes)?;
        let fit = (SECTION_WINDOW - buf.len()) / bytes;
        let before = buf.len();
        let run = ids.by_ref().take(fit);
        match width {
            1 => buf.extend(run.map(|id| id as u8)),
            2 => run.for_each(|id| {
                buf.extend_from_slice(&(id as u16).to_le_bytes())
            }),
            _ => run.for_each(|id| buf.extend_from_slice(&id.to_le_bytes())),
        }
        if buf.len() - before < fit * bytes {
            break;
        }
    }
    w.pad8()
}

/// Put a fixed `NODE` body: the `count` per-node dictionary ids of
/// `labels`, whose largest is `max`, as one column of the minimal
/// width.
pub fn put_node_fixed(
    w: &mut Windows<'_>,
    count: usize,
    max: u32,
    labels: impl Iterator<Item = u32>,
) -> Result<(), StoreError> {
    let width = width_for(max);
    put_preamble(w, count, width)?;
    put_column(w, labels, width)
}

/// Put a fixed `TRPL` body: `count` triples, strictly ascending by
/// `(s, p, o)` and with no node id above `max`, as their subject,
/// predicate and object columns at the minimal width.
pub fn put_trpl_fixed(
    w: &mut Windows<'_>,
    count: usize,
    max: u32,
    s: impl Iterator<Item = u32>,
    p: impl Iterator<Item = u32>,
    o: impl Iterator<Item = u32>,
) -> Result<(), StoreError> {
    let width = width_for(max);
    put_preamble(w, count, width)?;
    put_column(w, s, width)?;
    put_column(w, p, width)?;
    put_column(w, o, width)
}

/// A parsed fixed-section preamble plus the offsets of its columns.
#[derive(Debug, Clone, Copy)]
pub struct FixedBody {
    /// Number of records (nodes or triples).
    pub count: usize,
    /// Column width in bytes (1, 2 or 4).
    pub width: u8,
    /// Byte length of one column *without* its padding.
    pub col_len: usize,
    /// Byte length of one column *with* its padding to 8.
    pub col_stride: usize,
}

/// Parse and validate the preamble of a fixed `NODE`/`TRPL` body:
/// count fits usize, width ∈ {1, 2, 4}, and the payload holds exactly
/// `columns` padded columns (plus nothing else).
pub fn parse_fixed_body(
    body: &[u8],
    columns: usize,
    expected: Option<u64>,
    what: &str,
) -> Result<FixedBody, StoreError> {
    let head = body.get(..FIXED_PREAMBLE).ok_or(StoreError::Truncated {
        what: "fixed section preamble",
    })?;
    let count = u64::from_le_bytes(head[0..8].try_into().unwrap());
    if let Some(exp) = expected {
        if count != exp {
            return Err(StoreError::Corrupt(format!(
                "{what}: body claims {count} records, header says {exp}"
            )));
        }
    }
    let width = head[8];
    if !FIXED_WIDTHS.contains(&width) {
        return Err(StoreError::Corrupt(format!(
            "{what}: invalid fixed width {width} (must be 1, 2 or 4)"
        )));
    }
    if head[9..].iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt(format!(
            "{what}: non-zero preamble padding"
        )));
    }
    let count = usize::try_from(count).map_err(|_| {
        StoreError::Corrupt(format!("{what}: record count exceeds usize"))
    })?;
    let col_len = count.checked_mul(width as usize).ok_or_else(|| {
        StoreError::Corrupt(format!("{what}: column length overflows"))
    })?;
    let col_stride = col_len.div_ceil(8) * 8;
    let total = FIXED_PREAMBLE
        .checked_add(col_stride.checked_mul(columns).ok_or_else(|| {
            StoreError::Corrupt(format!("{what}: body length overflows"))
        })?)
        .ok_or_else(|| {
            StoreError::Corrupt(format!("{what}: body length overflows"))
        })?;
    if body.len() < total {
        return Err(StoreError::Truncated {
            what: "fixed section column",
        });
    }
    if body.len() != total {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} trailing bytes after fixed columns",
            body.len() - total
        )));
    }
    // Column pad bytes must be zero, column by column.
    for c in 0..columns {
        let start = FIXED_PREAMBLE + c * col_stride;
        let pad = &body[start + col_len..start + col_stride];
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt(format!(
                "{what}: non-zero column padding"
            )));
        }
    }
    Ok(FixedBody {
        count,
        width,
        col_len,
        col_stride,
    })
}

/// The raw (unpadded) bytes of column `c` of a parsed fixed body.
#[inline]
pub fn fixed_column<'a>(body: &'a [u8], fb: &FixedBody, c: usize) -> &'a [u8] {
    let start = FIXED_PREAMBLE + c * fb.col_stride;
    &body[start..start + fb.col_len]
}

/// Widen one fixed column into owned `u32`s — the no-varint fallback
/// when a zero-copy borrow is unavailable (width 1/2, misalignment, or
/// a big-endian host).
pub fn widen_column(col: &[u8], width: u8) -> Vec<u32> {
    match width {
        1 => col.iter().map(|&b| b as u32).collect(),
        2 => col
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]) as u32)
            .collect(),
        _ => col
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Container, ContainerWriter, KIND_GRAPH};
    use rdf_model::{LabelId, NodeId, Triple};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    /// The payload `source` puts, written through the container writer
    /// (both passes, CRC checked) and read back.
    fn body(
        source: impl Fn(&mut Windows<'_>) -> Result<(), StoreError>,
    ) -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.windowed(*b"BODY", source);
        let mut out = Vec::new();
        w.finish_versioned(&mut out, 3, KIND_GRAPH, [0; 3]).unwrap();
        Container::parse(&out).unwrap().section(*b"BODY").unwrap().to_vec()
    }

    fn node_body(labels: &[LabelId]) -> Vec<u8> {
        let max = labels.iter().map(|l| l.0).max().unwrap_or(0);
        let ids = labels.iter().map(|l| l.0);
        body(|w| put_node_fixed(w, labels.len(), max, ids.clone()))
    }

    /// A fixed `TRPL` body of sorted, duplicate-free triples.
    fn trpl_body(sorted: &[Triple]) -> Vec<u8> {
        let max = sorted.iter().map(|t| t.s.0.max(t.p.0).max(t.o.0)).max();
        body(|w| {
            put_trpl_fixed(
                w,
                sorted.len(),
                max.unwrap_or(0),
                sorted.iter().map(|t| t.s.0),
                sorted.iter().map(|t| t.p.0),
                sorted.iter().map(|t| t.o.0),
            )
        })
    }

    /// Read a fixed `NODE` body back through the reader's helpers.
    fn decode_node(
        body: &[u8],
        expected: Option<u64>,
    ) -> Result<Vec<LabelId>, StoreError> {
        let fb = parse_fixed_body(body, 1, expected, "fixed NODE section")?;
        Ok(widen_column(fixed_column(body, &fb, 0), fb.width)
            .into_iter()
            .map(LabelId)
            .collect())
    }

    /// Read a fixed `TRPL` body back through the reader's helpers.
    fn decode_trpl(
        body: &[u8],
        expected: Option<u64>,
    ) -> Result<Vec<Triple>, StoreError> {
        let fb = parse_fixed_body(body, 3, expected, "fixed TRPL section")?;
        let [s, p, o] = [0, 1, 2]
            .map(|c| widen_column(fixed_column(body, &fb, c), fb.width));
        Ok((0..fb.count).map(|j| t(s[j], p[j], o[j])).collect())
    }

    #[test]
    fn width_is_minimal() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(0xff), 1);
        assert_eq!(width_for(0x100), 2);
        assert_eq!(width_for(0xffff), 2);
        assert_eq!(width_for(0x10000), 4);
        assert_eq!(width_for(u32::MAX), 4);
    }

    #[test]
    fn node_round_trip_all_widths() {
        for max in [5u32, 300, 70_000] {
            let labels: Vec<LabelId> =
                (0..9u32).map(|i| LabelId(i * max / 9)).collect();
            let body = node_body(&labels);
            assert_eq!(body.len() % 8, 0);
            let back = decode_node(&body, Some(9)).unwrap();
            assert_eq!(back, labels);
        }
        let empty = node_body(&[]);
        assert_eq!(empty.len(), FIXED_PREAMBLE);
        assert_eq!(decode_node(&empty, Some(0)).unwrap(), vec![]);
    }

    #[test]
    fn trpl_round_trip_all_widths() {
        for max in [9u32, 2_000, 100_000] {
            let mut sorted: Vec<Triple> = (0..7u32)
                .map(|i| t(i * max / 7, (i + 1) % 5, max - i * (max / 7)))
                .collect();
            sorted.sort_unstable();
            sorted.dedup();
            let body = trpl_body(&sorted);
            assert_eq!(body.len() % 8, 0);
            let back =
                decode_trpl(&body, Some(sorted.len() as u64)).unwrap();
            assert_eq!(back, sorted);
        }
        assert_eq!(decode_trpl(&trpl_body(&[]), Some(0)).unwrap(), vec![]);
    }

    /// The writer's one window buffer is reused from section to section
    /// and from pass to pass: a body written after another, and one long
    /// enough to span several windows, read back exactly.
    #[test]
    fn scratch_reuse_clears_between_sections() {
        let labels: Vec<u32> = (0..(SECTION_WINDOW as u32 / 2 + 3)).collect();
        let max = *labels.last().unwrap();
        let mut w = ContainerWriter::new();
        w.windowed(*b"AAAA", |w| put_node_fixed(w, 2, 2, [1, 2].into_iter()));
        w.windowed(*b"BBBB", |w| {
            put_node_fixed(w, labels.len(), max, labels.iter().copied())
        });
        w.windowed(*b"CCCC", |w| put_node_fixed(w, 2, 2, [1, 2].into_iter()));
        let mut out = Vec::new();
        w.finish_versioned(&mut out, 3, KIND_GRAPH, [0; 3]).unwrap();
        let c = Container::parse(&out).unwrap();
        let small = node_body(&[LabelId(1), LabelId(2)]);
        assert_eq!(c.section(*b"AAAA").unwrap(), small.as_slice());
        assert_eq!(c.section(*b"CCCC").unwrap(), small.as_slice());
        let long = c.section(*b"BBBB").unwrap();
        assert!(long.len() > 2 * SECTION_WINDOW, "spans three windows");
        let back = decode_node(long, Some(labels.len() as u64)).unwrap();
        assert!(back.iter().map(|l| l.0).eq(labels.iter().copied()));
    }

    #[test]
    fn corruption_is_typed() {
        let body = trpl_body(&[t(0, 1, 2), t(1, 0, 300)]);

        // Bad width byte.
        let mut bad = body.clone();
        bad[8] = 3;
        assert!(matches!(
            decode_trpl(&bad, None),
            Err(StoreError::Corrupt(m)) if m.contains("invalid fixed width")
        ));

        // Truncation mid-record.
        assert!(matches!(
            decode_trpl(&body[..body.len() - 3], Some(2)),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Corrupt(_))
        ));

        // Count mismatch vs header.
        assert!(matches!(
            decode_trpl(&body, Some(5)),
            Err(StoreError::Corrupt(m)) if m.contains("header says 5")
        ));

        // Non-zero preamble padding.
        let mut bad = body.clone();
        bad[12] = 1;
        assert!(matches!(
            decode_trpl(&bad, None),
            Err(StoreError::Corrupt(m)) if m.contains("preamble padding")
        ));

        // Non-zero column padding (width 2, 2 records -> 4 pad bytes).
        let mut bad = body.clone();
        *bad.last_mut().unwrap() = 7;
        assert!(matches!(
            decode_trpl(&bad, None),
            Err(StoreError::Corrupt(m)) if m.contains("column padding")
        ));

        // Trailing garbage after the columns.
        let mut long = body.clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_trpl(&long, None),
            Err(StoreError::Corrupt(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn pad8_and_check_pad8() {
        let mut v = vec![1u8, 2, 3];
        pad8(&mut v);
        assert_eq!(v.len(), 8);
        assert!(check_pad8(&v, 3, "test").is_ok());
        assert!(check_pad8(&v, 0, "test").is_err()); // 8 tail bytes
        v[5] = 9;
        assert!(matches!(
            check_pad8(&v, 3, "test"),
            Err(StoreError::Corrupt(m)) if m.contains("non-zero padding")
        ));
        assert!(check_pad8(&v, 99, "test").is_err());
    }
}
