//! On-disk cache for generated benchmark graphs.
//!
//! Generator suites burn most of their wall-clock re-synthesizing the same
//! deterministic inputs. [`cached_graph`] memoizes a generated [`CsrGraph`]
//! as a `.grb` binary file (see `grappolo_graph::io`), so repeat
//! bench runs load the CSR arrays in O(read) instead of re-generating,
//! re-sorting, and re-merging.
//!
//! The cache directory defaults to `grappolo-graph-cache` under the system
//! temp dir and can be pinned with `GRAPPOLO_GRAPH_CACHE` (CI points this at
//! a persisted path). A stale or corrupt cache entry is never trusted: any
//! load error falls back to regeneration and rewrites the entry.

use grappolo_graph::{io, CsrGraph};
use std::path::PathBuf;

/// Directory holding cached `.grb` graphs.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("GRAPPOLO_GRAPH_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("grappolo-graph-cache"))
}

/// Returns the graph cached under `key`, generating (and caching) it on a
/// miss. `key` must encode every generator parameter that shapes the graph
/// (family, size, seed), because the cache trusts it blindly.
pub fn cached_graph(key: &str, generate: impl FnOnce() -> CsrGraph) -> CsrGraph {
    let dir = cache_dir();
    let path = dir.join(format!("{key}.grb"));
    if let Ok(g) = io::load_path(&path) {
        return g;
    }
    let g = generate();
    if std::fs::create_dir_all(&dir).is_ok() {
        // Best-effort: a failed write just means the next run regenerates.
        let _ = io::save_path(&g, &path);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::gen::{planted_partition, PlantedConfig};

    #[test]
    fn cache_round_trip_is_bitwise_stable() {
        let key = format!("cache-selftest-{}", std::process::id());
        let make = || {
            planted_partition(&PlantedConfig {
                num_vertices: 2_000,
                num_communities: 20,
                ..Default::default()
            })
            .0
        };
        let first = cached_graph(&key, make);
        // Second call must hit the .grb file and reproduce the arrays.
        let second = cached_graph(&key, || panic!("cache miss on second call"));
        assert!(first.bitwise_eq(&second));
        let _ = std::fs::remove_file(cache_dir().join(format!("{key}.grb")));
    }
}
