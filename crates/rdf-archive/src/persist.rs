//! Archive persistence through the `.rdfb` container (content kind
//! [`KIND_ARCHIVE`]).
//!
//! The archive's state references a [`Vocab`] by label id, so the full
//! dictionary travels with it — ids must stay stable across a round
//! trip because label *histories* store raw `LabelId`s. Sections:
//!
//! | tag    | content |
//! |--------|---------|
//! | `DICT` | the complete vocabulary (ids preserved, blank at 0) |
//! | `META` | `num_versions`, `next_canon` |
//! | `LIFE` | entity lifespans: delta canon id + interval ranges |
//! | `LABL` | label histories: delta canon id + `(version, label)` list |
//! | `TRPL` | canonical triples (delta-encoded) + interval ranges |
//! | `LMAP` | node → canon mapping of the last pushed version |

use crate::archive::{Archive, CanonId};
use crate::interval::IntervalSet;
use rdf_model::{FxHashMap, LabelId, Vocab};
use rdf_store::container::{Container, ContainerWriter, KIND_ARCHIVE};
use rdf_store::dict::{read_dict, write_dict};
use rdf_store::varint::{read_varint_u32, read_varint_usize, write_varint};
use rdf_store::StoreError;
use std::io::Write;
use std::path::Path;

const TAG_DICT: [u8; 4] = *b"DICT";
const TAG_META: [u8; 4] = *b"META";
const TAG_LIFE: [u8; 4] = *b"LIFE";
const TAG_LABL: [u8; 4] = *b"LABL";
const TAG_TRPL: [u8; 4] = *b"TRPL";
const TAG_LMAP: [u8; 4] = *b"LMAP";

fn write_intervals(out: &mut Vec<u8>, iv: &IntervalSet) {
    write_varint(out, iv.range_count() as u64);
    let mut prev = 0u32;
    for &(s, e) in iv.ranges() {
        write_varint(out, u64::from(s - prev));
        write_varint(out, u64::from(e - s));
        prev = e;
    }
}

fn read_intervals(
    buf: &[u8],
    pos: &mut usize,
) -> Result<IntervalSet, StoreError> {
    let n = read_varint_usize(buf, pos)?;
    // The count is untrusted; each range needs >= 2 payload bytes.
    let mut ranges = Vec::with_capacity(n.min((buf.len() - *pos) / 2 + 1));
    let mut prev = 0u32;
    for _ in 0..n {
        let ds = read_varint_u32(buf, pos)?;
        let len = read_varint_u32(buf, pos)?;
        let s = prev
            .checked_add(ds)
            .ok_or_else(|| StoreError::Corrupt("interval overflow".into()))?;
        let e = s
            .checked_add(len)
            .ok_or_else(|| StoreError::Corrupt("interval overflow".into()))?;
        ranges.push((s, e));
        prev = e;
    }
    IntervalSet::from_ranges(ranges)
        .map_err(|e| StoreError::Corrupt(e.into()))
}

/// Serialise an archive (with the vocabulary its labels reference) to a
/// container byte stream.
pub fn save_archive<W: Write>(
    mut out: W,
    vocab: &Vocab,
    archive: &Archive,
) -> Result<(), StoreError> {
    let mut meta = Vec::new();
    write_varint(&mut meta, u64::from(archive.num_versions));
    write_varint(&mut meta, u64::from(archive.next_canon));

    // LIFE — sorted by canon id, delta-encoded.
    let mut life_entries: Vec<(&CanonId, &IntervalSet)> =
        archive.lifespans.iter().collect();
    life_entries.sort_unstable_by_key(|&(c, _)| c);
    let mut life = Vec::new();
    write_varint(&mut life, life_entries.len() as u64);
    let mut prev = 0u32;
    for (c, iv) in life_entries {
        write_varint(&mut life, u64::from(c.0 - prev));
        prev = c.0;
        write_intervals(&mut life, iv);
    }

    // LABL — label histories, sorted by canon id.
    let mut labl_entries: Vec<(&CanonId, &Vec<(u32, LabelId)>)> =
        archive.labels.iter().collect();
    labl_entries.sort_unstable_by_key(|&(c, _)| c);
    let mut labl = Vec::new();
    write_varint(&mut labl, labl_entries.len() as u64);
    let mut prev = 0u32;
    for (c, history) in labl_entries {
        write_varint(&mut labl, u64::from(c.0 - prev));
        prev = c.0;
        write_varint(&mut labl, history.len() as u64);
        for &(v, l) in history {
            write_varint(&mut labl, u64::from(v));
            write_varint(&mut labl, u64::from(l.0));
        }
    }

    // TRPL — canonical triples sorted by (s, p, o), delta on s.
    let mut triples: Vec<(&(CanonId, CanonId, CanonId), &IntervalSet)> =
        archive.triples.iter().collect();
    triples.sort_unstable_by_key(|&(t, _)| t);
    let mut trpl = Vec::new();
    write_varint(&mut trpl, triples.len() as u64);
    let mut prev_s = 0u32;
    for (&(s, p, o), iv) in triples {
        write_varint(&mut trpl, u64::from(s.0 - prev_s));
        prev_s = s.0;
        write_varint(&mut trpl, u64::from(p.0));
        write_varint(&mut trpl, u64::from(o.0));
        write_intervals(&mut trpl, iv);
    }

    let mut lmap = Vec::new();
    write_varint(&mut lmap, archive.last_mapping.len() as u64);
    for c in &archive.last_mapping {
        write_varint(&mut lmap, u64::from(c.0));
    }

    let counts = [
        u64::from(archive.num_versions),
        archive.lifespans.len() as u64,
        archive.triples.len() as u64,
    ];
    let mut w = ContainerWriter::new();
    // DICT — the whole vocabulary, ids preserved verbatim.
    w.windowed(TAG_DICT, |w| {
        write_dict(w, vocab, (1..vocab.len()).map(|i| LabelId(i as u32)))
    })
    .section(TAG_META, meta)
    .section(TAG_LIFE, life)
    .section(TAG_LABL, labl)
    .section(TAG_TRPL, trpl)
    .section(TAG_LMAP, lmap);
    w.finish(&mut out, KIND_ARCHIVE, counts)?;
    out.flush()?;
    Ok(())
}

/// Reconstruct an archive (and the vocabulary it references) from
/// container bytes.
pub fn load_archive(bytes: &[u8]) -> Result<(Vocab, Archive), StoreError> {
    let c = Container::parse(bytes)?;
    let header = *c.header();
    if header.kind != KIND_ARCHIVE {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_ARCHIVE,
        });
    }

    // DICT.
    let dict = c.section(TAG_DICT)?;
    let mut pos = 0usize;
    let vocab = read_dict(dict, &mut pos)?;

    // META.
    let meta = c.section(TAG_META)?;
    let mut pos = 0usize;
    let num_versions = read_varint_u32(meta, &mut pos)?;
    let next_canon = read_varint_u32(meta, &mut pos)?;

    // LIFE.
    let life = c.section(TAG_LIFE)?;
    let mut pos = 0usize;
    let n = read_varint_usize(life, &mut pos)?;
    let mut lifespans: FxHashMap<CanonId, IntervalSet> = FxHashMap::default();
    let mut prev = 0u32;
    for i in 0..n {
        let delta = read_varint_u32(life, &mut pos)?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Corrupt("duplicate lifespan entity".into()));
        }
        prev = prev.checked_add(delta).ok_or_else(|| {
            StoreError::Corrupt("canon id overflow".into())
        })?;
        lifespans.insert(CanonId(prev), read_intervals(life, &mut pos)?);
    }

    // LABL.
    let labl = c.section(TAG_LABL)?;
    let mut pos = 0usize;
    let n = read_varint_usize(labl, &mut pos)?;
    let mut labels: FxHashMap<CanonId, Vec<(u32, LabelId)>> =
        FxHashMap::default();
    let mut prev = 0u32;
    for i in 0..n {
        let delta = read_varint_u32(labl, &mut pos)?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Corrupt(
                "duplicate label-history entity".into(),
            ));
        }
        prev = prev.checked_add(delta).ok_or_else(|| {
            StoreError::Corrupt("canon id overflow".into())
        })?;
        let len = read_varint_usize(labl, &mut pos)?;
        let mut history =
            Vec::with_capacity(len.min((labl.len() - pos) / 2 + 1));
        for _ in 0..len {
            let v = read_varint_u32(labl, &mut pos)?;
            let l = read_varint_u32(labl, &mut pos)?;
            if l as usize >= vocab.len() {
                return Err(StoreError::Corrupt(format!(
                    "label id {l} beyond dictionary of {}",
                    vocab.len()
                )));
            }
            history.push((v, LabelId(l)));
        }
        labels.insert(CanonId(prev), history);
    }

    // TRPL.
    let trpl = c.section(TAG_TRPL)?;
    let mut pos = 0usize;
    let n = read_varint_usize(trpl, &mut pos)?;
    let mut triples: FxHashMap<(CanonId, CanonId, CanonId), IntervalSet> =
        FxHashMap::default();
    let mut prev_s = 0u32;
    for _ in 0..n {
        let ds = read_varint_u32(trpl, &mut pos)?;
        prev_s = prev_s.checked_add(ds).ok_or_else(|| {
            StoreError::Corrupt("canon id overflow".into())
        })?;
        let p = read_varint_u32(trpl, &mut pos)?;
        let o = read_varint_u32(trpl, &mut pos)?;
        let key = (CanonId(prev_s), CanonId(p), CanonId(o));
        let iv = read_intervals(trpl, &mut pos)?;
        if triples.insert(key, iv).is_some() {
            return Err(StoreError::Corrupt("duplicate archive triple".into()));
        }
    }

    // LMAP.
    let lmap = c.section(TAG_LMAP)?;
    let mut pos = 0usize;
    let n = read_varint_usize(lmap, &mut pos)?;
    let mut last_mapping = Vec::with_capacity(n.min(lmap.len() - pos));
    for _ in 0..n {
        last_mapping.push(CanonId(read_varint_u32(lmap, &mut pos)?));
    }

    let archive = Archive {
        num_versions,
        next_canon,
        triples,
        lifespans,
        labels,
        last_mapping,
    };
    if archive.num_versions() as u64 != header.counts[0]
        || archive.entity_count() as u64 != header.counts[1]
        || archive.triples.len() as u64 != header.counts[2]
    {
        return Err(StoreError::Corrupt(
            "archive counts disagree with header".into(),
        ));
    }
    Ok((vocab, archive))
}

/// Save an archive to a container file.
pub fn save_archive_file(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    archive: &Archive,
) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    save_archive(std::io::BufWriter::new(file), vocab, archive)
}

/// Load an archive from a container file.
pub fn load_archive_file(
    path: impl AsRef<Path>,
) -> Result<(Vocab, Archive), StoreError> {
    load_archive(&std::fs::read(path)?)
}
