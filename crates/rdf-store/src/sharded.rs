//! Sharded graph stores: one manifest (`.rdfm`) + N subject-hash
//! partitioned shard files (`.rdfb`).
//!
//! The I/O-efficient bisimulation literature (Luo et al., Hellings et
//! al.) scales past RAM by partitioning the store itself. This module
//! splits one graph across N shard files so import and load
//! parallelise over the `rdf-par` gang:
//!
//! * the **manifest** is an `RDFB` container of kind [`KIND_MANIFEST`]
//!   carrying the *global* sections once — `SHRD` (hash seed + shard
//!   directory), then the exact `DICT` / `NODE` / `BNAM` bodies the
//!   single-file writer produces. Node and label ids are therefore
//!   global and stable across shards: no cross-shard remap exists to
//!   get wrong;
//! * each **shard** is an `RDFB` container of kind [`KIND_SHARD`]
//!   holding one `TRPL` section — the sorted run of triples whose
//!   subject hashes to it (see [`shard_of`] for the exact mix);
//! * loading reads shards concurrently ([`rdf_par::scoped_try_map`])
//!   and stitches the runs with [`TripleGraph::from_sorted_runs`],
//!   yielding a graph **bit-identical to the single-file load** for
//!   every shard count and thread count.
//!
//! The manifest records each shard's file name, triple count and a CRC
//! over the *whole shard file*, so a missing, swapped or damaged shard
//! fails with a typed [`StoreError`] before any triple is believed.
//! The byte-level layout of manifests, shard files and the `shard_of`
//! hash is specified normatively in `docs/FORMAT.md` §5.

use crate::checksum::crc32;
use crate::container::{
    Container, ContainerWriter, Layout, KIND_MANIFEST, KIND_SHARD,
};
use crate::error::StoreError;
use crate::fixed::{check_pad8, pad8};
use crate::graph_store::{
    decode_bnam, decode_dict_checked, decode_node, decode_trpl,
    encode_global_sections, encode_trpl_into, section_span, StoreReader,
    TAG_BNAM, TAG_DICT, TAG_NODE, TAG_TRPL,
};
use crate::varint::{read_varint, read_varint_u32, write_varint};
use rdf_model::{NodeId, RdfGraph, Triple, TripleGraph, Vocab};
use rdf_obs::Recorder;
use rdf_par::{chunk_ranges, scoped_try_map, Threads};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tag of the manifest's shard-directory section.
pub const TAG_SHRD: [u8; 4] = *b"SHRD";

/// Default subject-hash seed written into new manifests ("RDFBSHRD").
pub const DEFAULT_SHARD_SEED: u64 = 0x5244_4642_5348_5244;

/// The shard a subject node id belongs to:
/// `splitmix64_mix(seed ^ subject · 0x9E3779B97F4A7C15) % shards`
/// (the multiply spreads dense node ids before the splitmix64
/// finalizer). Pure and stable — the same `(seed, subject, shards)`
/// triplet maps identically on every build, which is what makes
/// manifests portable.
pub fn shard_of(seed: u64, subject: NodeId, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut z =
        seed ^ u64::from(subject.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// One entry of the manifest's shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard file name, resolved relative to the manifest's directory.
    pub name: String,
    /// Triples stored in the shard.
    pub triples: u64,
    /// CRC-32 of the complete shard file.
    pub crc: u32,
}

/// A parsed, validated manifest (shard directory + global counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Subject-hash seed used to partition triples.
    pub seed: u64,
    /// Shard directory, in shard-index order.
    pub shards: Vec<ShardEntry>,
    /// Total node count of the stored graph.
    pub nodes: u64,
    /// Total triple count across all shards.
    pub triples: u64,
}

/// Writes a graph as a manifest plus N shard files.
#[derive(Debug, Clone, Copy)]
pub struct ShardedWriter {
    shards: usize,
    seed: u64,
    layout: Layout,
}

impl ShardedWriter {
    /// A writer splitting into `shards` files with the default seed and
    /// the default (varint) section layout.
    pub fn new(shards: usize) -> Self {
        ShardedWriter {
            shards,
            seed: DEFAULT_SHARD_SEED,
            layout: Layout::Varint,
        }
    }

    /// Override the subject-hash seed (recorded in the manifest).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Choose the section layout for the manifest and every shard file
    /// (readers resolve layout per file from each header, so the
    /// writer's uniform choice is a convention, not a format rule).
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Write `<manifest>` plus `<stem>-shard-<k>.rdfb` next to it and
    /// return every path written (manifest first). Shard files land on
    /// disk before the manifest, so an interrupted write never leaves a
    /// manifest pointing at absent shards.
    pub fn write(
        &self,
        manifest: impl AsRef<Path>,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<Vec<PathBuf>, StoreError> {
        let manifest = manifest.as_ref();
        if self.shards == 0 {
            return Err(StoreError::Corrupt(
                "shard count must be at least 1".into(),
            ));
        }
        let stem = manifest
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_owned());
        let dir = manifest.parent().unwrap_or(Path::new(""));

        let g = graph.graph();
        let mut buckets: Vec<Vec<Triple>> = vec![Vec::new(); self.shards];
        for &t in g.triples() {
            // Triples arrive sorted; pushing preserves order per bucket,
            // so every shard's run is sorted by construction.
            buckets[shard_of(self.seed, t.s, self.shards)].push(t);
        }

        let mut entries = Vec::with_capacity(self.shards);
        let mut paths = Vec::with_capacity(self.shards + 1);
        // One scratch buffer for every shard's TRPL body and one for
        // the framed file image: the per-shard loop allocates nothing
        // proportional to the shard count.
        let mut scratch = Vec::new();
        let mut bytes = Vec::new();
        for (k, bucket) in buckets.iter().enumerate() {
            let name = format!("{stem}-shard-{k}.rdfb");
            encode_trpl_into(&mut scratch, bucket, self.layout);
            bytes.clear();
            let mut w = ContainerWriter::new();
            w.section(TAG_TRPL, scratch.as_slice());
            w.finish_versioned(
                &mut bytes,
                self.layout.version(),
                KIND_SHARD,
                [k as u64, 0, bucket.len() as u64],
            )?;
            let crc = crc32(&bytes);
            let path = dir.join(&name);
            std::fs::write(&path, &bytes)?;
            paths.push(path);
            entries.push(ShardEntry {
                name,
                triples: bucket.len() as u64,
                crc,
            });
        }

        let global = encode_global_sections(vocab, graph, self.layout)?;
        let mut shrd = Vec::new();
        write_varint(&mut shrd, self.seed);
        write_varint(&mut shrd, entries.len() as u64);
        for e in &entries {
            write_varint(&mut shrd, e.name.len() as u64);
            shrd.extend_from_slice(e.name.as_bytes());
            write_varint(&mut shrd, e.triples);
            write_varint(&mut shrd, u64::from(e.crc));
        }
        if self.layout == Layout::Fixed {
            pad8(&mut shrd);
        }

        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new();
        w.section(TAG_SHRD, shrd)
            .section(TAG_DICT, global.dict)
            .section(TAG_NODE, global.node)
            .section(TAG_BNAM, global.bnam);
        w.finish_versioned(
            &mut bytes,
            self.layout.version(),
            KIND_MANIFEST,
            [
                self.shards as u64,
                g.node_count() as u64,
                g.triple_count() as u64,
            ],
        )?;
        std::fs::write(manifest, &bytes)?;
        paths.insert(0, manifest.to_path_buf());
        Ok(paths)
    }
}

/// Save a graph as `<path>` (manifest) + `shards` shard files in the
/// default varint layout.
pub fn save_sharded(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
    shards: usize,
) -> Result<Vec<PathBuf>, StoreError> {
    ShardedWriter::new(shards).write(path, vocab, graph)
}

/// Save a graph as `<path>` (manifest) + `shards` shard files in an
/// explicit section layout.
pub fn save_sharded_layout(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
    shards: usize,
    layout: Layout,
) -> Result<Vec<PathBuf>, StoreError> {
    ShardedWriter::new(shards)
        .with_layout(layout)
        .write(path, vocab, graph)
}

/// Summary of a sharded store, as shown by `rdf info`: the manifest
/// plus per-shard file sizes. Present only after full validation —
/// every shard file passed its manifest CRC and its own section
/// checksums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedInfo {
    /// Manifest container format version.
    pub version: u16,
    /// The parsed shard directory.
    pub manifest: Manifest,
    /// Size of the manifest file in bytes.
    pub manifest_bytes: usize,
    /// Size of each shard file in bytes, in shard-index order.
    pub shard_bytes: Vec<u64>,
}

impl ShardedInfo {
    /// Total on-disk footprint (manifest + all shards).
    pub fn total_bytes(&self) -> u64 {
        self.manifest_bytes as u64 + self.shard_bytes.iter().sum::<u64>()
    }
}

/// Reads a sharded store: the manifest image plus the directory shard
/// paths resolve against.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_par::Threads;
/// use rdf_store::{save_sharded, ShardedReader};
///
/// let dir = std::env::temp_dir().join(format!(
///     "rdfb-doc-sharded-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let manifest = dir.join("g.rdfm");
/// save_sharded(&manifest, &vocab, &g, 3).unwrap();
///
/// let reader = ShardedReader::open(&manifest).unwrap();
/// assert_eq!(reader.manifest().unwrap().shards.len(), 3);
/// // The stitched load is bit-identical to a single-file load, at
/// // every thread count.
/// let (_, g2) = reader.read_graph(Threads::Fixed(2)).unwrap();
/// assert_eq!(g2.graph().triples(), g.graph().triples());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct ShardedReader {
    dir: PathBuf,
    bytes: Vec<u8>,
}

impl ShardedReader {
    /// Read a manifest file fully into memory; shard paths resolve
    /// relative to its parent directory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        Ok(ShardedReader {
            dir: path.parent().unwrap_or(Path::new("")).to_path_buf(),
            bytes: std::fs::read(path)?,
        })
    }

    /// Wrap an already-loaded manifest image; shard paths resolve
    /// relative to `dir`.
    pub fn from_bytes(dir: impl Into<PathBuf>, bytes: Vec<u8>) -> Self {
        ShardedReader {
            dir: dir.into(),
            bytes,
        }
    }

    /// Parse and fully validate the manifest (container checksums, the
    /// shard directory's internal consistency, and agreement with the
    /// header counts). Does not touch the shard files.
    pub fn manifest(&self) -> Result<Manifest, StoreError> {
        let c = Container::parse(&self.bytes)?;
        parse_manifest(&c)
    }

    /// Validate the manifest *and* every shard file (manifest-recorded
    /// whole-file CRCs plus each shard's own section checksums), and
    /// summarise the store.
    pub fn info(&self) -> Result<ShardedInfo, StoreError> {
        let c = Container::parse(&self.bytes)?;
        let version = c.header().version;
        let manifest = parse_manifest(&c)?;
        let mut shard_bytes = Vec::with_capacity(manifest.shards.len());
        for (k, entry) in manifest.shards.iter().enumerate() {
            let bytes = self.read_shard_bytes(entry)?;
            parse_shard(&bytes, k, entry)?;
            shard_bytes.push(bytes.len() as u64);
        }
        Ok(ShardedInfo {
            version,
            manifest,
            manifest_bytes: self.bytes.len(),
            shard_bytes,
        })
    }

    /// Decode the full graph: global dictionary and node table from the
    /// manifest, shard `TRPL` runs loaded concurrently on up to
    /// `threads` scoped workers, stitched with
    /// [`TripleGraph::from_sorted_runs`].
    ///
    /// The result is bit-identical to [`StoreReader::read_graph`] on
    /// the equivalent single-file store, for every shard count and
    /// every thread count; `threads` is purely a wall-clock knob. On
    /// failure the error is the lowest-indexed failing shard's,
    /// regardless of scheduling.
    pub fn read_graph(
        &self,
        threads: Threads,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        self.read_graph_with_info(threads).map(|(_, v, g)| (v, g))
    }

    /// [`ShardedReader::read_graph`] that also returns the
    /// [`ShardedInfo`] summary gathered during the same pass — every
    /// shard file is read, CRC-checked and decoded exactly once
    /// (callers wanting both, like `rdf info --bisim`, must not pay a
    /// second full read).
    pub fn read_graph_with_info(
        &self,
        threads: Threads,
    ) -> Result<(ShardedInfo, Vocab, RdfGraph), StoreError> {
        self.read_graph_with_info_traced(threads, &Recorder::disabled())
    }

    /// [`ShardedReader::read_graph_with_info`] with instrumentation:
    /// emits a `store.open` span for the manifest parse, `store.section`
    /// spans for the global sections, and one `shard.load` span per
    /// shard file (index, worker, file bytes, CRC-check time). The
    /// decoded graph is byte-identical to the untraced load and span
    /// *counts* depend only on the shard count, never on `threads`.
    pub fn read_graph_with_info_traced(
        &self,
        threads: Threads,
        rec: &Recorder,
    ) -> Result<(ShardedInfo, Vocab, RdfGraph), StoreError> {
        let mut open = rec.span("store.open");
        open.field("bytes", self.bytes.len());
        let c = Container::parse(&self.bytes)?;
        let layout = c.header().layout();
        open.field("layout", layout.to_string());
        drop(open);
        let version = c.header().version;
        let manifest = parse_manifest(&c)?;

        let dict_body = c.section(TAG_DICT)?;
        let vocab = {
            let _sp = section_span(rec, "DICT", dict_body.len(), layout);
            decode_dict_checked(dict_body, None, layout)?
        };
        let node_body = c.section(TAG_NODE)?;
        let (labels, kinds) = {
            let _sp = section_span(rec, "NODE", node_body.len(), layout);
            decode_node(node_body, &vocab, Some(manifest.nodes), layout)?
        };
        let node_count = labels.len();

        // One task per worker, each draining a contiguous range of the
        // shard directory in order; flattening the per-task results in
        // task order recovers exact shard order, independent of thread
        // count.
        let workers = threads.resolve().min(manifest.shards.len()).max(1);
        let ranges = chunk_ranges(manifest.shards.len(), workers);
        let entries = &manifest.shards;
        let per_task: Vec<Vec<(u64, Vec<Triple>)>> =
            scoped_try_map(ranges, |ti, range| {
                range
                    .map(|k| -> Result<_, StoreError> {
                        load_shard_traced(
                            &self.dir,
                            k,
                            &entries[k],
                            rec,
                            Some(ti),
                        )
                    })
                    .collect()
            })?;
        let (shard_bytes, runs): (Vec<u64>, Vec<Vec<Triple>>) =
            per_task.into_iter().flatten().unzip();

        let graph = TripleGraph::from_sorted_runs(labels, kinds, runs)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        if graph.triple_count() as u64 != manifest.triples {
            return Err(StoreError::Corrupt(format!(
                "stitched {} distinct triples but manifest records {} \
                 (duplicate or overlapping shards)",
                graph.triple_count(),
                manifest.triples
            )));
        }
        let bnam_body = c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len(), layout);
            decode_bnam(bnam_body, node_count, layout)?
        };
        let info = ShardedInfo {
            version,
            manifest,
            manifest_bytes: self.bytes.len(),
            shard_bytes,
        };
        Ok((info, vocab, RdfGraph::from_raw_parts(graph, blank_names)))
    }

    fn read_shard_bytes(
        &self,
        entry: &ShardEntry,
    ) -> Result<Vec<u8>, StoreError> {
        read_shard_file(&self.dir, entry)
    }
}

/// Read, CRC-check and decode one shard file, emitting a `shard.load`
/// span (shard index, optional worker, file bytes, CRC-check time).
/// With a disabled recorder this is exactly the untraced load.
fn load_shard_traced(
    dir: &Path,
    k: usize,
    entry: &ShardEntry,
    rec: &Recorder,
    worker: Option<usize>,
) -> Result<(u64, Vec<Triple>), StoreError> {
    let mut sp = rec.span("shard.load");
    sp.field("shard", k);
    if let Some(w) = worker {
        sp.field("worker", w);
    }
    let bytes = read_shard_file(dir, entry)?;
    sp.field("bytes", bytes.len());
    let crc_start = sp.enabled().then(Instant::now);
    check_shard_crc(&bytes, entry)?;
    if let Some(start) = crc_start {
        sp.field("crc_us", start.elapsed().as_micros() as u64);
    }
    let run = decode_shard(&bytes, k, entry)?;
    Ok((bytes.len() as u64, run))
}

/// Read one shard file, mapping absence to the typed
/// [`StoreError::MissingShard`].
fn read_shard_file(
    dir: &Path,
    entry: &ShardEntry,
) -> Result<Vec<u8>, StoreError> {
    let path = dir.join(&entry.name);
    match std::fs::read(&path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::MissingShard {
                path: path.display().to_string(),
            })
        }
        Err(e) => Err(e.into()),
    }
}

/// Parse the `SHRD` directory out of a validated manifest container and
/// cross-check it against the header counts.
fn parse_manifest(c: &Container<'_>) -> Result<Manifest, StoreError> {
    let header = *c.header();
    if header.kind != KIND_MANIFEST {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_MANIFEST,
        });
    }
    let shrd = c.section(TAG_SHRD)?;
    let mut pos = 0usize;
    let seed = read_varint(shrd, &mut pos)?;
    let count = read_varint(shrd, &mut pos)?;
    if count == 0 {
        return Err(StoreError::Corrupt(
            "manifest lists zero shards".into(),
        ));
    }
    if count != header.counts[0] {
        return Err(StoreError::Corrupt(format!(
            "shard directory lists {count} shards but header records {}",
            header.counts[0]
        )));
    }
    // >= 3 bytes per entry; never trust the count for allocation.
    let cap = (count as usize).min((shrd.len() - pos) / 3 + 1);
    let mut shards: Vec<ShardEntry> = Vec::with_capacity(cap);
    let mut total: u64 = 0;
    for _ in 0..count {
        let name = crate::dict::read_string(shrd, &mut pos, "shard name")?;
        let triples = read_varint(shrd, &mut pos)?;
        let crc = read_varint_u32(shrd, &mut pos)?;
        // Manifests are untrusted input: a shard name must be a plain
        // file name, never a path — otherwise a crafted manifest could
        // direct reads outside the store directory (or at devices).
        if name.is_empty()
            || name == "."
            || name == ".."
            || name.contains('/')
            || name.contains('\\')
        {
            return Err(StoreError::Corrupt(format!(
                "shard name {name:?} is not a plain file name"
            )));
        }
        if shards.iter().any(|e| e.name == name) {
            return Err(StoreError::Corrupt(format!(
                "duplicate shard entry {name:?} in manifest"
            )));
        }
        total = total.checked_add(triples).ok_or_else(|| {
            StoreError::Corrupt("shard triple counts overflow u64".into())
        })?;
        shards.push(ShardEntry { name, triples, crc });
    }
    match header.layout() {
        // Layout v2 pads every payload to 8; the tail must be zeros.
        Layout::Fixed => check_pad8(shrd, pos, "SHRD section")?,
        Layout::Varint => {
            if pos != shrd.len() {
                return Err(StoreError::Corrupt(format!(
                    "{} trailing bytes after shard directory",
                    shrd.len() - pos
                )));
            }
        }
    }
    if total != header.counts[2] {
        return Err(StoreError::Corrupt(format!(
            "shard directory totals {total} triples but header records {}",
            header.counts[2]
        )));
    }
    Ok(Manifest {
        seed,
        shards,
        nodes: header.counts[1],
        triples: header.counts[2],
    })
}

/// Validate one shard file against its manifest entry and decode its
/// triple run.
fn parse_shard(
    bytes: &[u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<Vec<Triple>, StoreError> {
    check_shard_crc(bytes, entry)?;
    decode_shard(bytes, index, entry)
}

/// Check a shard file's bytes against the whole-file CRC recorded in
/// its manifest entry. Split from [`decode_shard`] so traced loads can
/// time the checksum pass separately from the decode.
fn check_shard_crc(
    bytes: &[u8],
    entry: &ShardEntry,
) -> Result<(), StoreError> {
    let computed = crc32(bytes);
    if computed != entry.crc {
        return Err(StoreError::ShardChecksumMismatch {
            shard: entry.name.clone(),
            stored: entry.crc,
            computed,
        });
    }
    Ok(())
}

/// Parse a CRC-validated shard container and decode its triple run.
/// Any error from inside the container is wrapped in
/// [`StoreError::InShard`] so it names the failing file — a bare
/// section [`StoreError::ChecksumMismatch`] from one of N shards would
/// otherwise leave the operator guessing which file is damaged.
fn decode_shard(
    bytes: &[u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<Vec<Triple>, StoreError> {
    decode_shard_inner(bytes, index, entry)
        .map_err(|e| wrap_in_shard(entry, e))
}

/// Name the failing shard file in an error bubbling out of its
/// container — unless the error already does.
fn wrap_in_shard(entry: &ShardEntry, e: StoreError) -> StoreError {
    match e {
        // These already name the shard file; don't double-wrap.
        e @ (StoreError::InShard { .. }
        | StoreError::ShardChecksumMismatch { .. }
        | StoreError::MissingShard { .. }) => e,
        e => StoreError::InShard {
            shard: entry.name.clone(),
            source: Box::new(e),
        },
    }
}

fn decode_shard_inner(
    bytes: &[u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<Vec<Triple>, StoreError> {
    let (body, layout) = shard_trpl_body(bytes, index, entry)?;
    decode_trpl(body, Some(entry.triples), layout)
}

/// Validate a shard container's framing, kind and index, and return
/// its `TRPL` body plus the layout *this shard file* declares (each
/// shard self-describes; a store may in principle mix layouts).
fn shard_trpl_body<'a>(
    bytes: &'a [u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<(&'a [u8], Layout), StoreError> {
    let c = Container::parse(bytes)?;
    let header = *c.header();
    if header.kind != KIND_SHARD {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_SHARD,
        });
    }
    if header.counts[0] != index as u64 {
        return Err(StoreError::Corrupt(format!(
            "shard {:?} records index {} but the manifest lists it at {index}",
            entry.name, header.counts[0]
        )));
    }
    Ok((c.section(TAG_TRPL)?, header.layout()))
}

/// Either kind of on-disk graph store, resolved by content kind — the
/// one entry point CLI-level code needs (`.rdfb` single files and
/// `.rdfm` manifests are both `RDFB` containers; the kind byte, never
/// the extension, decides).
#[derive(Debug)]
pub enum AnyReader {
    /// A single-file graph store (or archive — kind-checked on decode).
    Single(StoreReader),
    /// A sharded store manifest.
    Sharded(ShardedReader),
}

impl AnyReader {
    /// Decode the graph, whichever layout holds it. `threads` drives
    /// the parallel shard load and is ignored for single files.
    pub fn read_graph(
        &self,
        threads: Threads,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        match self {
            AnyReader::Single(r) => r.read_graph(),
            AnyReader::Sharded(r) => r.read_graph(threads),
        }
    }

    /// [`AnyReader::read_graph`] with instrumentation — dispatches to
    /// the layout's traced load, so the trace carries `store.open`,
    /// `store.section` and (for sharded stores) `shard.load` spans.
    pub fn read_graph_traced(
        &self,
        threads: Threads,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        match self {
            AnyReader::Single(r) => r.read_graph_traced(rec),
            AnyReader::Sharded(r) => r
                .read_graph_with_info_traced(threads, rec)
                .map(|(_, v, g)| (v, g)),
        }
    }
}

/// Open a store path of either layout: the file's container header is
/// sniffed, and a [`KIND_MANIFEST`] kind yields a sharded reader (shard
/// paths resolving next to the manifest) while anything else yields a
/// single-file reader. A nonexistent path is a typed I/O error; a
/// non-container file is [`StoreError::BadMagic`].
pub fn open_any(path: impl AsRef<Path>) -> Result<AnyReader, StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let header = Container::parse_header(&bytes)?;
    if header.kind == KIND_MANIFEST {
        let dir = path.parent().unwrap_or(Path::new("")).to_path_buf();
        Ok(AnyReader::Sharded(ShardedReader::from_bytes(dir, bytes)))
    } else {
        Ok(AnyReader::Single(StoreReader::from_bytes(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::RdfGraphBuilder;

    fn sample() -> (Vocab, RdfGraph) {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8 9AB");
            b.bul("b1", "city", "Edinburgh");
            b.uul("ss", "name", "Sławek");
            b.uuu("ss", "employer", "ed-uni");
            b.finish()
        };
        (vocab, g)
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rdf-sharded-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 255] {
            for s in 0u32..200 {
                let k = shard_of(DEFAULT_SHARD_SEED, NodeId(s), shards);
                assert!(k < shards);
                assert_eq!(
                    k,
                    shard_of(DEFAULT_SHARD_SEED, NodeId(s), shards)
                );
            }
        }
        // Different seeds really do move subjects around (not a
        // constant function).
        let spread: Vec<usize> = (0..64)
            .map(|s| shard_of(1, NodeId(s), 8))
            .collect();
        assert!(spread.iter().any(|&k| k != spread[0]));
    }

    #[test]
    fn write_produces_manifest_plus_named_shards() {
        let dir = tmp("layout");
        let (vocab, g) = sample();
        let manifest = dir.join("v1.rdfm");
        let paths = save_sharded(&manifest, &vocab, &g, 3).unwrap();
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0], manifest);
        for (k, p) in paths[1..].iter().enumerate() {
            assert_eq!(
                p.file_name().unwrap().to_str().unwrap(),
                format!("v1-shard-{k}.rdfb")
            );
            assert!(p.exists());
        }
        let m = ShardedReader::open(&manifest).unwrap().manifest().unwrap();
        assert_eq!(m.seed, DEFAULT_SHARD_SEED);
        assert_eq!(m.shards.len(), 3);
        assert_eq!(m.nodes, g.node_count() as u64);
        assert_eq!(m.triples, g.triple_count() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let dir = tmp("zero");
        let (vocab, g) = sample();
        assert!(matches!(
            save_sharded(dir.join("z.rdfm"), &vocab, &g, 0),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_any_resolves_each_layout_and_errors_on_absence() {
        let dir = tmp("openany");
        let (vocab, g) = sample();
        let single = dir.join("g.rdfb");
        crate::save_graph(&single, &vocab, &g).unwrap();
        let manifest = dir.join("g.rdfm");
        save_sharded(&manifest, &vocab, &g, 2).unwrap();

        let a = open_any(&single).unwrap();
        assert!(matches!(a, AnyReader::Single(_)));
        let (_, g1) = a.read_graph(Threads::Fixed(1)).unwrap();
        let b = open_any(&manifest).unwrap();
        assert!(matches!(b, AnyReader::Sharded(_)));
        let (_, g2) = b.read_graph(Threads::Fixed(2)).unwrap();
        assert_eq!(g1.graph().triples(), g2.graph().triples());

        match open_any(dir.join("absent.rdfm")) {
            Err(StoreError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
            }
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
        // Not a container at all.
        let nt = dir.join("x.nt");
        std::fs::write(&nt, "<u:s> <u:p> <u:o> .\n").unwrap();
        assert!(matches!(
            open_any(&nt),
            Err(StoreError::BadMagic { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_decode_errors_name_the_failing_file() {
        let (vocab, g) = sample();
        // A valid container of the wrong kind, with a matching
        // whole-file CRC: the failure happens *inside* the shard parse,
        // which must wrap it with the file name.
        let bytes = crate::graph_to_bytes(&vocab, &g).unwrap();
        let entry = ShardEntry {
            name: "v-shard-0.rdfb".into(),
            triples: g.triple_count() as u64,
            crc: crc32(&bytes),
        };
        match parse_shard(&bytes, 0, &entry) {
            Err(StoreError::InShard { shard, source }) => {
                assert_eq!(shard, "v-shard-0.rdfb");
                assert!(matches!(
                    *source,
                    StoreError::WrongContentKind { .. }
                ));
            }
            other => {
                panic!("expected InShard(WrongContentKind), got {other:?}")
            }
        }
        // A whole-file CRC mismatch already names the shard — it must
        // stay the dedicated variant, not get double-wrapped.
        let bad = ShardEntry {
            crc: entry.crc ^ 1,
            ..entry
        };
        assert!(matches!(
            parse_shard(&bytes, 0, &bad),
            Err(StoreError::ShardChecksumMismatch { .. })
        ));
    }

    #[test]
    fn traced_sharded_load_is_identical_and_counts_spans() {
        let dir = tmp("traced");
        let (vocab, g) = sample();
        let manifest = dir.join("t.rdfm");
        save_sharded(&manifest, &vocab, &g, 3).unwrap();
        let reader = ShardedReader::open(&manifest).unwrap();
        let (_, g1) = reader.read_graph(Threads::Fixed(2)).unwrap();

        let rec =
            Recorder::jsonl_writer(Box::new(std::io::sink()));
        let (_, _, g2) = reader
            .read_graph_with_info_traced(Threads::Fixed(2), &rec)
            .unwrap();
        assert_eq!(g1.graph().triples(), g2.graph().triples());
        let report = rec.finish().unwrap().unwrap();
        assert_eq!(report.span("shard.load").unwrap().count, 3);
        assert_eq!(report.span("store.open").unwrap().count, 1);
        assert_eq!(report.span("store.section").unwrap().count, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn info_reports_shard_sizes() {
        let dir = tmp("info");
        let (vocab, g) = sample();
        let manifest = dir.join("v.rdfm");
        save_sharded(&manifest, &vocab, &g, 2).unwrap();
        let info = ShardedReader::open(&manifest).unwrap().info().unwrap();
        assert_eq!(info.manifest.shards.len(), 2);
        assert_eq!(info.shard_bytes.len(), 2);
        assert!(info.total_bytes() > info.manifest_bytes as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
