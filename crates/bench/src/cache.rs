//! Persistent on-disk layer of the result cache.
//!
//! Each completed simulation is stored as one small text file under the
//! cache directory, named by the FNV-1a hash of the job's physical
//! [`cache key`](netcrafter_multigpu::Experiment::cache_key):
//!
//! ```text
//! <cache-dir>/<fnv64 hex>.run
//! ```
//!
//! The file embeds the full cache key, so a (vanishingly unlikely) hash
//! collision or a stale file from an older simulator revision is detected
//! by string comparison and treated as a miss. The body is the
//! line-oriented `key = value` rendering of
//! [`RunResult`] — no serde, greppable,
//! and stable across platforms. The last line, `end = <fnv64 hex>`, is
//! the FNV-1a hash of everything before it: a truncated or damaged file
//! fails that check and is a miss, never a wrong result.
//!
//! Writes go through [`write_atomic`] — a uniquely named temp file
//! followed by an atomic rename — so concurrent sweep workers (or two
//! processes sharing a cache directory) never expose a torn file to
//! readers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use netcrafter_multigpu::RunResult;
use netcrafter_proto::fnv1a64;

/// Magic first line of every cache file; bump the version to invalidate
/// all prior entries after a format change.
const HEADER: &str = "netcrafter-run-cache v2";

/// Monotonic suffix so concurrent writers in one process get distinct
/// temp files.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` through a uniquely named temp file beside it
/// and an atomic rename: a reader sees the old file or the new one,
/// never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_file_name(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// The closing line of a cache file whose preceding text is `body`.
fn end_line(body: &str) -> String {
    format!("end = {:016x}\n", fnv1a64(body.as_bytes()))
}

/// A directory of cached [`RunResult`]s keyed by physical job identity.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, cache_key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.run", fnv1a64(cache_key.as_bytes())))
    }

    /// Cheap existence probe used by the sweep planner: `true` when a
    /// cache file for `cache_key` is present. A `true` here can still
    /// turn into a [`DiskCache::load`] miss (collision, corruption) —
    /// the planner only uses it to decide which jobs are worth grouping
    /// under a shared simulation prefix, where a rare false positive
    /// merely costs one cold run.
    pub fn contains(&self, cache_key: &str) -> bool {
        self.path_for(cache_key).exists()
    }

    /// Looks `cache_key` up; `None` on miss, hash collision, version
    /// mismatch or any corruption (all of which just mean re-simulate).
    pub fn load(&self, cache_key: &str) -> Option<RunResult> {
        let text = fs::read_to_string(self.path_for(cache_key)).ok()?;
        let (body, end) = text.split_at(text.strip_suffix('\n')?.rfind('\n')? + 1);
        if end != end_line(body) {
            return None;
        }
        let mut lines = body.splitn(3, '\n');
        if lines.next()? != HEADER {
            return None;
        }
        if lines.next()?.strip_prefix("key = ")? != cache_key {
            return None;
        }
        RunResult::from_kv(lines.next()?)
    }

    /// Persists `result` under `cache_key` (atomically, via rename).
    pub fn store(&self, cache_key: &str, result: &RunResult) -> io::Result<()> {
        let body = format!("{HEADER}\nkey = {cache_key}\n{}", result.to_kv());
        let end = end_line(&body);
        write_atomic(&self.path_for(cache_key), (body + &end).as_bytes())
    }

    /// Number of cached results on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir).map_or(0, |it| {
            it.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
                .count()
        })
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::Metrics;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "netcrafter-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> RunResult {
        let mut metrics = Metrics::new();
        metrics.add("net.inter.flits", 42);
        metrics.latency_mut("net.read").record(17);
        RunResult {
            exec_cycles: 12345,
            metrics,
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tempdir("round-trip");
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert!(cache.load("some-key").is_none());

        assert!(!cache.contains("some-key"));
        cache.store("some-key", &sample()).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.contains("some-key"));
        assert!(!cache.contains("other-key"));
        let back = cache.load("some-key").expect("hit");
        assert_eq!(back.exec_cycles, 12345);
        assert_eq!(back.metrics.counter("net.inter.flits"), 42);

        // A different key misses even though a file exists.
        assert!(cache.load("other-key").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_in_file_is_a_miss() {
        let dir = tempdir("mismatch");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store("key-a", &sample()).unwrap();
        // Forge a collision: copy key-a's file onto key-b's expected path.
        let a = cache.path_for("key-a");
        let b = cache.path_for("key-b");
        fs::copy(&a, &b).unwrap();
        assert!(cache.load("key-b").is_none(), "embedded key must match");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_misses() {
        let dir = tempdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        fs::write(cache.path_for("k"), "not a cache file").unwrap();
        assert!(cache.load("k").is_none());
        fs::write(
            cache.path_for("k2"),
            format!("{HEADER}\nkey = k2\ncounter bad\n"),
        )
        .unwrap();
        assert!(cache.load("k2").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
