//! The trace catalog: named, validated traces jobs run against.
//!
//! Registration validates the trace eagerly and records its dimensions
//! *and kind*: a static `.adjb` adjacency-list trace (model conformance
//! via [`ItemTrace::from_bytes`]) or a dynamic `.adjbu` update trace (semantic
//! validation via [`read_updates`](adjstream_stream::read_updates)'s sniffing decoder). Jobs then refer
//! to traces by name, so a submission against a missing, since-deleted,
//! or wrong-kind trace is a typed rejection rather than a worker-side
//! I/O surprise.
//!
//! Registration also records the file's [`checksum64`]; admission
//! re-verifies it so a trace that was swapped or corrupted on disk since
//! registration is a typed `trace_changed` rejection, never a silently
//! different answer.
//!
//! The catalog persists to `catalog.json` in the state directory and is
//! reloaded on startup — entries whose backing file vanished or whose
//! manifest line is malformed are dropped with a warning (and counted,
//! for the `metrics` op) rather than poisoning recovery.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use adjstream_stream::hashing::checksum64;
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::update::UpdateStream;
use adjstream_stream::update_trace::{is_adjbu, parse_update_bytes};

use crate::json::{obj, parse, Json};

/// What kind of stream a registered trace holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A static adjacency-list item trace (`.adjb` or item text).
    Static,
    /// A timestamped insert/delete update trace (`.adjbu` or update text).
    Update,
}

impl TraceKind {
    /// Wire/manifest slug.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Static => "static",
            TraceKind::Update => "update",
        }
    }

    /// Parse the slug produced by [`TraceKind::name`].
    pub fn parse(s: &str) -> Option<TraceKind> {
        match s {
            "static" => Some(TraceKind::Static),
            "update" => Some(TraceKind::Update),
            _ => None,
        }
    }
}

/// One registered trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Catalog name clients refer to.
    pub name: String,
    /// Filesystem path of the trace file.
    pub path: PathBuf,
    /// Static adjacency-list trace or dynamic update trace.
    pub kind: TraceKind,
    /// Static: distinct edges (each appears twice as items). Update:
    /// edges live after the final event.
    pub edges: usize,
    /// Static: total stream items. Update: total events.
    pub items: usize,
    /// [`checksum64`] of the file's bytes at registration; re-verified
    /// at job admission.
    pub checksum64: u64,
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The file could not be read or failed validation as either kind.
    InvalidTrace(String),
    /// The name is already registered to a different path.
    NameTaken(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::InvalidTrace(m) => write!(f, "invalid trace: {m}"),
            CatalogError::NameTaken(n) => write!(f, "name already registered: {n}"),
        }
    }
}

/// The in-memory catalog with on-disk persistence.
pub struct Catalog {
    state_dir: PathBuf,
    entries: Mutex<HashMap<String, CatalogEntry>>,
    /// Entries dropped by the last [`Catalog::open`]: malformed manifest
    /// lines plus entries whose backing file vanished or became
    /// unreadable while the daemon was down.
    dropped: u64,
}

/// Sniff + validate the bytes of a trace file, returning its kind and
/// dimensions. Binary magics are authoritative; text falls back from
/// static items to update events, so both text dialects register.
fn classify(bytes: &[u8]) -> Result<(TraceKind, usize, usize), CatalogError> {
    if is_adjbu(bytes) {
        let stream =
            parse_update_bytes(bytes).map_err(|e| CatalogError::InvalidTrace(e.to_string()))?;
        return Ok((TraceKind::Update, stream.final_edges().len(), stream.len()));
    }
    match ItemTrace::from_bytes(bytes) {
        Ok(trace) => Ok((TraceKind::Static, trace.edges(), trace.len())),
        Err(static_err) => match UpdateStream::parse_text(&String::from_utf8_lossy(bytes)) {
            Ok(stream) => Ok((TraceKind::Update, stream.final_edges().len(), stream.len())),
            // Neither kind: report the static-side error, it names the
            // first offending line for the common case.
            Err(_) => Err(CatalogError::InvalidTrace(static_err.to_string())),
        },
    }
}

impl Catalog {
    /// Open (or create) the catalog persisted under `state_dir`. Entries
    /// that no longer round-trip — malformed manifest lines, vanished or
    /// unreadable backing files — are dropped with a warning; the count
    /// is exposed via [`Catalog::dropped_entries`] and the daemon's
    /// `metrics` op.
    pub fn open(state_dir: &Path) -> Catalog {
        let mut entries = HashMap::new();
        let mut dropped = 0u64;
        let file = state_dir.join("catalog.json");
        if let Ok(text) = std::fs::read_to_string(&file) {
            if let Ok(Json::Arr(items)) = parse(&text) {
                for item in &items {
                    let (Some(name), Some(path), Some(edges), Some(count)) = (
                        item.str_field("name"),
                        item.str_field("path"),
                        item.u64_field("edges"),
                        item.u64_field("items"),
                    ) else {
                        dropped += 1;
                        eprintln!("adjstreamd: dropping malformed catalog entry");
                        continue;
                    };
                    let path = PathBuf::from(path);
                    let kind = item
                        .str_field("kind")
                        .and_then(TraceKind::parse)
                        .unwrap_or(TraceKind::Static);
                    // A trace deleted while the daemon was down is dropped;
                    // jobs referencing it will fail typed, not crash.
                    let checksum = match item
                        .str_field("checksum64")
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                    {
                        Some(sum) => sum,
                        // Pre-checksum manifest line: recompute from the
                        // file so admission-time verification still works.
                        None => match std::fs::read(&path) {
                            Ok(bytes) => checksum64(&bytes),
                            Err(_) => {
                                dropped += 1;
                                eprintln!(
                                    "adjstreamd: dropping catalog entry {name:?}: {} unreadable",
                                    path.display()
                                );
                                continue;
                            }
                        },
                    };
                    if !path.exists() {
                        dropped += 1;
                        eprintln!(
                            "adjstreamd: dropping catalog entry {name:?}: {} vanished",
                            path.display()
                        );
                        continue;
                    }
                    entries.insert(
                        name.to_string(),
                        CatalogEntry {
                            name: name.to_string(),
                            path,
                            kind,
                            edges: edges as usize,
                            items: count as usize,
                            checksum64: checksum,
                        },
                    );
                }
            }
        }
        Catalog {
            state_dir: state_dir.to_path_buf(),
            entries: Mutex::new(entries),
            dropped,
        }
    }

    /// Entries the last [`Catalog::open`] dropped as malformed/vanished.
    pub fn dropped_entries(&self) -> u64 {
        self.dropped
    }

    /// Register `path` under `name`, sniffing the kind and validating the
    /// trace eagerly. Re-registering the same name with the same path is
    /// idempotent (and refreshes the recorded checksum).
    pub fn register(&self, name: &str, path: &Path) -> Result<CatalogEntry, CatalogError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CatalogError::InvalidTrace(format!("{}: {e}", path.display())))?;
        let (kind, edges, items) = classify(&bytes)?;
        let entry = CatalogEntry {
            name: name.to_string(),
            path: path.to_path_buf(),
            kind,
            edges,
            items,
            checksum64: checksum64(&bytes),
        };
        {
            let mut entries = self.entries.lock().expect("catalog lock");
            if let Some(existing) = entries.get(name) {
                if existing.path != entry.path {
                    return Err(CatalogError::NameTaken(name.to_string()));
                }
            }
            entries.insert(name.to_string(), entry.clone());
        }
        self.persist();
        Ok(entry)
    }

    /// Look up a trace by name.
    pub fn get(&self, name: &str) -> Option<CatalogEntry> {
        self.entries
            .lock()
            .expect("catalog lock")
            .get(name)
            .cloned()
    }

    /// Re-read the backing file and compare its [`checksum64`] against
    /// the one recorded at registration. `Ok` carries the verified sum;
    /// `Err` names what changed (content, or the file vanishing).
    pub fn verify_checksum(&self, name: &str) -> Result<u64, String> {
        let entry = self
            .get(name)
            .ok_or_else(|| format!("unknown trace {name:?}"))?;
        let bytes =
            std::fs::read(&entry.path).map_err(|e| format!("{}: {e}", entry.path.display()))?;
        let actual = checksum64(&bytes);
        if actual != entry.checksum64 {
            return Err(format!(
                "trace {name:?} changed on disk: checksum {:016x}, registered {:016x}",
                actual, entry.checksum64
            ));
        }
        Ok(actual)
    }

    /// Load the items of a registered *static* trace from disk. The trace
    /// was validated at registration; this re-validates on read so
    /// on-disk corruption since then surfaces as a typed error.
    pub fn load_items(&self, name: &str) -> Result<ItemTrace, String> {
        let entry = self
            .get(name)
            .ok_or_else(|| format!("unknown trace {name:?}"))?;
        if entry.kind != TraceKind::Static {
            return Err(format!(
                "trace {name:?} is an update trace, not a static item trace"
            ));
        }
        let bytes =
            std::fs::read(&entry.path).map_err(|e| format!("{}: {e}", entry.path.display()))?;
        ItemTrace::from_bytes(&bytes).map_err(|e| e.to_string())
    }

    /// Load the events of a registered *update* trace from disk,
    /// re-validating the `.adjbu` checksum (or text semantics) on read.
    pub fn load_updates(&self, name: &str) -> Result<UpdateStream, String> {
        let entry = self
            .get(name)
            .ok_or_else(|| format!("unknown trace {name:?}"))?;
        if entry.kind != TraceKind::Update {
            return Err(format!(
                "trace {name:?} is a static item trace, not an update trace"
            ));
        }
        let bytes =
            std::fs::read(&entry.path).map_err(|e| format!("{}: {e}", entry.path.display()))?;
        parse_update_bytes(&bytes).map_err(|e| e.to_string())
    }

    /// All entries, sorted by name.
    pub fn list(&self) -> Vec<CatalogEntry> {
        let mut v: Vec<CatalogEntry> = self
            .entries
            .lock()
            .expect("catalog lock")
            .values()
            .cloned()
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    fn persist(&self) {
        let items: Vec<Json> = self
            .list()
            .into_iter()
            .map(|e| {
                obj(vec![
                    ("name", Json::Str(e.name)),
                    ("path", Json::Str(e.path.display().to_string())),
                    ("kind", Json::Str(e.kind.name().to_string())),
                    ("edges", Json::Num(e.edges as f64)),
                    ("items", Json::Num(e.items as f64)),
                    // Hex: Json numbers are f64 and u64 checksums exceed
                    // the 2^53 integer range.
                    ("checksum64", Json::Str(format!("{:016x}", e.checksum64))),
                ])
            })
            .collect();
        let path = self.state_dir.join("catalog.json");
        let tmp = path.with_extension("json.tmp");
        if std::fs::write(&tmp, format!("{}\n", Json::Arr(items))).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::gen;
    use adjstream_stream::update_trace::write_adjbu;
    use adjstream_stream::{AdjListStream, StreamOrder, UpdateEvent};

    fn write_trace(dir: &Path, name: &str) -> PathBuf {
        let g = gen::disjoint_cliques(3, 5);
        let items = AdjListStream::new(&g, StreamOrder::natural(g.vertex_count())).collect_items();
        let trace = ItemTrace::new(items).unwrap();
        let path = dir.join(name);
        let mut buf = Vec::new();
        trace.write_adjb(&mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    fn update_events() -> Vec<UpdateEvent> {
        vec![
            UpdateEvent::insert(0, 1, 0),
            UpdateEvent::insert(1, 2, 1),
            UpdateEvent::insert(0, 2, 2),
            UpdateEvent::delete(0, 1, 3),
        ]
    }

    fn write_update_trace(dir: &Path, name: &str) -> PathBuf {
        let stream = UpdateStream::new(update_events());
        let path = dir.join(name);
        let mut buf = Vec::new();
        write_adjbu(&stream, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adjsvc-cat-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn register_validates_and_persists() {
        let dir = tmp_dir("reg");
        let path = write_trace(&dir, "g.adjb");
        let cat = Catalog::open(&dir);
        let entry = cat.register("g", &path).unwrap();
        assert!(entry.edges > 0);
        assert_eq!(entry.items, 2 * entry.edges);
        assert_eq!(entry.kind, TraceKind::Static);
        assert_ne!(entry.checksum64, 0);
        // Reload from disk sees the same entry, checksum included.
        let cat2 = Catalog::open(&dir);
        assert_eq!(cat2.get("g"), Some(entry));
        assert_eq!(cat2.dropped_entries(), 0);
        // Unknown names miss.
        assert_eq!(cat2.get("nope"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn register_sniffs_update_traces() {
        let dir = tmp_dir("upd");
        let binary = write_update_trace(&dir, "u.adjbu");
        let cat = Catalog::open(&dir);
        let entry = cat.register("u", &binary).unwrap();
        assert_eq!(entry.kind, TraceKind::Update);
        assert_eq!(entry.items, 4, "events, not items");
        assert_eq!(entry.edges, 2, "live edges after the final delete");
        // The text dialect registers as an update trace too.
        let text = dir.join("u.txt");
        let stream = UpdateStream::new(update_events());
        let mut buf = Vec::new();
        stream.write_text(&mut buf).unwrap();
        std::fs::write(&text, buf).unwrap();
        let entry = cat.register("ut", &text).unwrap();
        assert_eq!(entry.kind, TraceKind::Update);
        assert_eq!(entry.items, 4);
        // Kinds round-trip through the persisted catalog.
        let cat2 = Catalog::open(&dir);
        assert_eq!(cat2.get("u").unwrap().kind, TraceKind::Update);
        // load_updates works, load_items is a typed kind error.
        assert_eq!(cat2.load_updates("u").unwrap().len(), 4);
        assert!(cat2.load_items("u").unwrap_err().contains("update trace"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn register_rejects_garbage_and_name_conflicts() {
        let dir = tmp_dir("rej");
        let good = write_trace(&dir, "g.adjb");
        let bad = dir.join("bad.adjb");
        std::fs::write(&bad, b"not a trace").unwrap();
        let cat = Catalog::open(&dir);
        assert!(matches!(
            cat.register("bad", &bad),
            Err(CatalogError::InvalidTrace(_))
        ));
        cat.register("g", &good).unwrap();
        // Same name, same path: idempotent. Same name, new path: conflict.
        cat.register("g", &good).unwrap();
        let other = write_trace(&dir, "other.adjb");
        assert!(matches!(
            cat.register("g", &other),
            Err(CatalogError::NameTaken(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_drops_and_counts_vanished_traces() {
        let dir = tmp_dir("gone");
        let path = write_trace(&dir, "g.adjb");
        let keep = write_trace(&dir, "keep.adjb");
        {
            let cat = Catalog::open(&dir);
            cat.register("g", &path).unwrap();
            cat.register("keep", &keep).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
        let cat = Catalog::open(&dir);
        assert_eq!(cat.get("g"), None);
        assert!(cat.get("keep").is_some());
        assert_eq!(cat.dropped_entries(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_verification_catches_swapped_traces() {
        let dir = tmp_dir("sum");
        let path = write_trace(&dir, "g.adjb");
        let cat = Catalog::open(&dir);
        cat.register("g", &path).unwrap();
        assert!(cat.verify_checksum("g").is_ok());
        // Swap the file for a different (still valid) trace: the catalog
        // dimensions no longer describe the bytes on disk.
        let g = gen::disjoint_cliques(2, 4);
        let items = AdjListStream::new(&g, StreamOrder::natural(g.vertex_count())).collect_items();
        let trace = ItemTrace::new(items).unwrap();
        let mut buf = Vec::new();
        trace.write_adjb(&mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        let err = cat.verify_checksum("g").unwrap_err();
        assert!(err.contains("changed on disk"), "{err}");
        // Re-registering refreshes the checksum.
        cat.register("g", &path).unwrap();
        assert!(cat.verify_checksum("g").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
