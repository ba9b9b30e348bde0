//! A damaged disk-cache file is a miss, never a wrong number: every
//! truncation and every single-byte change of a stored result loads as
//! `None` or as exactly the result that was stored, and never panics.
//!
//! The replacement bytes are seeded (SplitMix64), so a failure
//! reproduces. The stored result is a real quick-scale run, so the file
//! has every kind of line a figure's cache entry has.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

use netcrafter_bench::DiskCache;
use netcrafter_core::SplitMix64;
use netcrafter_multigpu::{Experiment, SystemVariant};
use netcrafter_workloads::Workload;

#[test]
fn damaged_cache_files_load_as_misses() {
    let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    let (key, result) = (exp.cache_key(), exp.run());
    let stored = result.to_kv();
    let dir = std::env::temp_dir().join(format!(
        "netcrafter-cache-corruption-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).unwrap();
    cache.store(&key, &result).unwrap();
    let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let good = fs::read(&path).unwrap();
    assert_eq!(cache.load(&key).map(|r| r.to_kv()), Some(stored.clone()));

    let mut cases = 0;
    let mut bad: Vec<String> = Vec::new();
    let mut check = |what: String, bytes: &[u8]| {
        cases += 1;
        fs::write(&path, bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| cache.load(&key))) {
            Err(_) => bad.push(format!("{what}: panicked")),
            Ok(Some(r)) if r.to_kv() != stored => bad.push(format!("{what}: a wrong hit")),
            Ok(_) => {}
        }
    };

    for cut in 0..good.len() {
        check(format!("truncated to {cut} bytes"), &good[..cut]);
    }
    let mut rng = SplitMix64::new(0x5EED_CAC4E);
    for at in 0..good.len() {
        let mut bytes = good.clone();
        bytes[at] ^= rng.range(1, 255) as u8;
        check(format!("byte {at} changed to {:#04x}", bytes[at]), &bytes);
    }

    let _ = fs::remove_dir_all(&dir);
    assert_eq!(cases, 2 * good.len());
    assert!(
        bad.is_empty(),
        "{} of {cases} damaged files:\n  {}",
        bad.len(),
        bad.join("\n  ")
    );
}
