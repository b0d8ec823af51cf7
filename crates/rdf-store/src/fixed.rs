//! Fixed-width section bodies (container version 2, the one graph-store
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

use crate::error::StoreError;
use rdf_model::{LabelId, Triple};

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

/// Append one id at the given width (LE truncation is lossless by the
/// writer's width choice).
#[inline]
fn push_id(out: &mut Vec<u8>, id: u32, width: u8) {
    match width {
        1 => out.push(id as u8),
        2 => out.extend_from_slice(&(id as u16).to_le_bytes()),
        _ => out.extend_from_slice(&id.to_le_bytes()),
    }
}

/// Reserve the exact size of a fixed body of `columns` padded columns
/// of `count` ids each, then write its 16-byte preamble. The exact
/// reservation keeps the `Vec` from doubling past the body size.
fn push_preamble(out: &mut Vec<u8>, count: usize, width: u8, columns: usize) {
    let col_stride = (count * width as usize).div_ceil(8) * 8;
    out.reserve_exact(FIXED_PREAMBLE + columns * col_stride);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out.push(width);
    out.extend_from_slice(&[0u8; 7]);
}

/// Encode a fixed `NODE` body (per-node label ids) into `out`
/// (cleared first — callers reuse one scratch buffer across sections).
pub fn encode_node_fixed_into(out: &mut Vec<u8>, labels: &[LabelId]) {
    out.clear();
    let max = labels.iter().map(|l| l.0).max().unwrap_or(0);
    let width = width_for(max);
    push_preamble(out, labels.len(), width, 1);
    for l in labels {
        push_id(out, l.0, width);
    }
    pad8(out);
}

/// Encode a fixed `TRPL` body (three padded columns) into `out`
/// (cleared first). Triples must already be strictly ascending — the
/// in-memory invariant of every graph this crate persists.
pub fn encode_trpl_fixed_into(out: &mut Vec<u8>, triples: &[Triple]) {
    out.clear();
    let max = triples
        .iter()
        .map(|t| t.s.0.max(t.p.0).max(t.o.0))
        .max()
        .unwrap_or(0);
    let width = width_for(max);
    push_preamble(out, triples.len(), width, 3);
    for pick in [
        |t: &Triple| t.s.0,
        |t: &Triple| t.p.0,
        |t: &Triple| t.o.0,
    ] {
        for t in triples {
            push_id(out, pick(t), width);
        }
        pad8(out);
    }
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
    use rdf_model::NodeId;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
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
            let mut body = Vec::new();
            encode_node_fixed_into(&mut body, &labels);
            assert_eq!(body.len() % 8, 0);
            assert_eq!(body.capacity(), body.len(), "exact reservation");
            let back = decode_node(&body, Some(9)).unwrap();
            assert_eq!(back, labels);
        }
        let mut empty = Vec::new();
        encode_node_fixed_into(&mut empty, &[]);
        assert_eq!(empty.len(), FIXED_PREAMBLE);
        assert_eq!(decode_node(&empty, Some(0)).unwrap(), vec![]);
    }

    #[test]
    fn trpl_round_trip_all_widths() {
        for max in [9u32, 2_000, 100_000] {
            let triples: Vec<Triple> = (0..7u32)
                .map(|i| t(i * max / 7, (i + 1) % 5, max - i * (max / 7)))
                .collect::<Vec<_>>()
                .into_iter()
                .collect();
            let mut sorted = triples.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let mut body = Vec::new();
            encode_trpl_fixed_into(&mut body, &sorted);
            assert_eq!(body.len() % 8, 0);
            assert_eq!(body.capacity(), body.len(), "exact reservation");
            let back =
                decode_trpl(&body, Some(sorted.len() as u64)).unwrap();
            assert_eq!(back, sorted);
        }
        let mut empty = Vec::new();
        encode_trpl_fixed_into(&mut empty, &[]);
        assert_eq!(decode_trpl(&empty, Some(0)).unwrap(), vec![]);
    }

    #[test]
    fn scratch_reuse_clears_between_sections() {
        let mut scratch = vec![0xAA; 64];
        encode_node_fixed_into(&mut scratch, &[LabelId(1), LabelId(2)]);
        let first = scratch.clone();
        encode_node_fixed_into(&mut scratch, &[LabelId(1), LabelId(2)]);
        assert_eq!(scratch, first);
    }

    #[test]
    fn corruption_is_typed() {
        let sorted = vec![t(0, 1, 2), t(1, 0, 300)];
        let mut body = Vec::new();
        encode_trpl_fixed_into(&mut body, &sorted);

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
