//! The in-memory archive store: parse once at `LOAD`, serve many.
//!
//! The store is a thin, named registry over the facade's archive sessions
//! ([`huffdec_codec::ArchiveHandle`]): loading an archive file opens it through the
//! facade exactly once — header, section table, and decode structures all parsed and
//! validated up front — and every field is a [`FieldHandle`] that lazily builds and
//! caches its range-decode index on first use, so a ranged `GET` launches only the
//! overlapping blocks. The store itself only adds what serving needs on top: stable
//! names, replacement generations, and thread-safe lookup.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use huffdec_codec::{ArchiveHandle, FieldHandle, HfzError};
use huffdec_container::SnapshotManifest;

/// One loaded archive file: a name, its source path, and the opened facade session.
#[derive(Debug)]
pub struct LoadedArchive {
    /// Name requests address the archive by.
    pub name: String,
    /// Filesystem path the archive was loaded from.
    pub path: String,
    /// Monotonic load generation, unique per `load` call. Cache keys carry it so a
    /// decode of a *replaced* archive that races its re-load can never be served to
    /// requests addressing the new one.
    pub generation: u64,
    /// The opened archive session: every field parsed once, decode indexes cached
    /// per field.
    handle: ArchiveHandle,
}

impl LoadedArchive {
    /// The opened archive session.
    pub fn handle(&self) -> &ArchiveHandle {
        &self.handle
    }

    /// The fields, in file order.
    pub fn fields(&self) -> &[FieldHandle] {
        self.handle.fields()
    }

    /// The snapshot manifest, when the file carries one.
    pub fn manifest(&self) -> Option<&SnapshotManifest> {
        self.handle.manifest()
    }
}

/// The daemon's set of loaded archives, shared across client threads.
#[derive(Debug, Default)]
pub struct ArchiveStore {
    archives: RwLock<HashMap<String, Arc<LoadedArchive>>>,
    next_generation: std::sync::atomic::AtomicU64,
}

impl ArchiveStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ArchiveStore::default()
    }

    /// Loads (or replaces) the archive file at `path` under `name`, parsing it exactly
    /// once through the facade. Returns the loaded handle; the caller is responsible
    /// for invalidating any cache entries of a replaced archive.
    pub fn load(&self, name: &str, path: &str) -> Result<Arc<LoadedArchive>, HfzError> {
        let handle = ArchiveHandle::open(path)?;
        let loaded = Arc::new(LoadedArchive {
            name: name.to_string(),
            path: path.to_string(),
            generation: self
                .next_generation
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            handle,
        });
        self.archives
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), Arc::clone(&loaded));
        Ok(loaded)
    }

    /// Looks up a loaded archive by name.
    pub fn get(&self, name: &str) -> Option<Arc<LoadedArchive>> {
        self.archives
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
    }

    /// All loaded archives, sorted by name (stable `LIST` output).
    pub fn list(&self) -> Vec<Arc<LoadedArchive>> {
        let mut all: Vec<_> = self
            .archives
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of loaded archives.
    pub fn len(&self) -> usize {
        self.archives
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Whether no archive has been loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use datasets::{dataset_by_name, generate};
    use gpu_sim::GpuConfig;
    use huffdec_codec::Codec;
    use huffdec_container::ArchiveWriter;
    use huffdec_core::DecoderKind;

    fn codec() -> Codec {
        Codec::builder()
            .gpu_config(GpuConfig::test_tiny())
            .host_threads(2)
            .decoder(DecoderKind::OptimizedGapArray)
            .build()
            .unwrap()
    }

    pub(crate) fn write_archive_file(path: &std::path::Path, seeds: &[u64]) {
        let c = codec();
        let file = std::fs::File::create(path).unwrap();
        let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
        for &seed in seeds {
            let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, seed);
            let compressed = c.compress_archive(&field).unwrap();
            writer.write_compressed(&compressed).unwrap();
        }
        writer.into_inner().unwrap();
    }

    #[test]
    fn load_parses_once_and_serves_from_memory() {
        let dir = std::env::temp_dir().join("hfzd-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multi.hfz");
        write_archive_file(&path, &[1, 2, 3]);

        let store = ArchiveStore::new();
        let loaded = store.load("multi", path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.fields().len(), 3);
        assert_eq!(store.len(), 1);

        // Metadata queries come from the cached section table.
        for field in loaded.fields() {
            assert_eq!(field.code_elements(), 20_000);
            assert_eq!(field.data_elements(), Some(20_000));
            assert!(!field.prepared_ready());
        }

        // Deleting the file does not affect an already-loaded archive: everything is
        // in memory.
        std::fs::remove_file(&path).unwrap();
        let c = codec();
        let backend = c.backend();
        assert!(backend.config().num_sms >= 1);
        let prepared = c.prepare_field(&loaded.fields()[0]).unwrap();
        assert!(prepared.timings.total_seconds() >= 0.0);
        assert!(loaded.fields()[0].prepared_ready());

        // The prepared index is built once: the same allocation comes back.
        let again = c.prepare_field(&loaded.fields()[0]).unwrap();
        assert!(std::ptr::eq(prepared, again));
    }

    #[test]
    fn snapshot_files_load_with_manifest_names() {
        let dir = std::env::temp_dir().join("hfzd-store-test-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hfz");
        let c = codec();
        let fields: Vec<(String, sz::Compressed)> = [("xx", 5u64), ("yy", 6), ("zz", 7)]
            .iter()
            .map(|&(name, seed)| {
                let field = generate(&dataset_by_name("HACC").unwrap(), 15_000, seed);
                (name.to_string(), c.compress_archive(&field).unwrap())
            })
            .collect();
        let refs: Vec<(&str, &sz::Compressed)> =
            fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
        std::fs::write(&path, huffdec_container::snapshot_to_bytes(&refs).unwrap()).unwrap();

        let store = ArchiveStore::new();
        let loaded = store.load("snap", path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.fields().len(), 3);
        assert!(loaded.manifest().is_some());
        for (field, (name, _)) in loaded.fields().iter().zip(&fields) {
            assert_eq!(field.name(), Some(name.as_str()));
        }
    }

    #[test]
    fn reloads_get_fresh_generations() {
        let dir = std::env::temp_dir().join("hfzd-store-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.hfz");
        write_archive_file(&path, &[9]);
        let store = ArchiveStore::new();
        let first = store.load("gen", path.to_str().unwrap()).unwrap();
        let second = store.load("gen", path.to_str().unwrap()).unwrap();
        assert_ne!(
            first.generation, second.generation,
            "every load is a distinct generation"
        );
        assert_eq!(store.len(), 1, "same name replaces, not duplicates");
        assert_eq!(
            store.get("gen").unwrap().generation,
            second.generation,
            "the store serves the latest load"
        );
    }

    #[test]
    fn load_errors_are_typed() {
        let store = ArchiveStore::new();
        assert!(matches!(
            store.load("nope", "/definitely/not/here.hfz"),
            Err(HfzError::Io { .. })
        ));
        let dir = std::env::temp_dir().join("hfzd-store-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.hfz");
        std::fs::write(&empty, b"").unwrap();
        assert!(matches!(
            store.load("empty", empty.to_str().unwrap()),
            Err(HfzError::Container(
                huffdec_container::ContainerError::Invalid { .. }
            ))
        ));
        let garbage = dir.join("garbage.hfz");
        std::fs::write(&garbage, b"not an archive at all").unwrap();
        assert!(matches!(
            store.load("garbage", garbage.to_str().unwrap()),
            Err(HfzError::Container(_))
        ));
        assert!(store.is_empty(), "failed loads must not register anything");
    }
}
