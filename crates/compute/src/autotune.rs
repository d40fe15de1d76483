//! One-shot cached kernel autotuner.
//!
//! The matmul kernels in `cit-tensor` are parameterised by a runtime
//! [`TilingScheme`]; which scheme is fastest depends on the host CPU (cache
//! sizes, SIMD width the compiler targeted, core count). This module
//! installs a process-global scheme provider that, at **first use per
//! `(layout, M, K, N)` size class**, benchmarks a small candidate-scheme
//! grid and caches the winner — in-process and in
//! `results/autotune_cache.json` (keyed by host + size class) so later
//! processes on the same machine skip the bench entirely.
//!
//! Resolution order, as seen by a kernel call (highest priority first):
//!
//! 1. forced scheme — `cit_tensor::kernels::force_scheme` or `CIT_TILING`
//! 2. cache file entry for this host + layout + size class
//! 3. one-shot candidate bench (first call only; ~ms per size class)
//! 4. per-layout static defaults (`TilingScheme::default_for`)
//!
//! Steps 2 and 3 publish their winner into a fixed table with one slot per
//! `(layout, size class)`: this host's cache entries when the tuner is
//! installed, a benched winner when it is found. A kernel call reads its
//! slot with one atomic load; the tuner's mutex is taken only on a miss, to
//! bench and persist. There is deliberately no thread-local memo — serve
//! batches run on freshly spawned scoped threads, where it would start
//! cold on every batch.
//!
//! Setting `CIT_AUTOTUNE=off` (or `0`/`false`) disables the tuner
//! entirely: no provider is installed, no benching runs, no file is read
//! or written, and every kernel call uses the static defaults (or a forced
//! scheme). Because every scheme produces bit-identical results (the
//! kernels' determinism contract), autotuning can never change model
//! outputs — only wall-clock.

use cit_tensor::kernels::{self, MatmulLayout, TilingScheme};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// The compiled copy of the matmul kernels this process runs (`"avx2"` or
/// `"portable"`), re-exported so run manifests can record it next to
/// [`host_key`] without depending on `cit-tensor`.
pub use cit_tensor::kernels::simd_level;

/// A power-of-two bucketing of a matmul problem size: every dimension is
/// rounded up to the next power of two (clamped to `[8, 4096]`), so nearby
/// shapes share one tuned scheme instead of re-benching per exact shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeClass {
    /// Rounded output-rows dimension.
    pub m: usize,
    /// Rounded reduction dimension.
    pub k: usize,
    /// Rounded output-cols dimension.
    pub n: usize,
}

impl SizeClass {
    /// The size class of an `(m, k, n)` problem.
    pub fn of(m: usize, k: usize, n: usize) -> Self {
        fn bucket(d: usize) -> usize {
            d.next_power_of_two().clamp(8, 4096)
        }
        SizeClass {
            m: bucket(m),
            k: bucket(k),
            n: bucket(n),
        }
    }

    fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }
}

/// `true` when `CIT_AUTOTUNE` disables the tuner (`off`, `0` or `false`).
pub fn autotune_disabled() -> bool {
    matches!(
        std::env::var("CIT_AUTOTUNE").ok().as_deref().map(str::trim),
        Some("off" | "0" | "false")
    )
}

/// The persistent cache location: `CIT_AUTOTUNE_CACHE` when set, otherwise
/// `results/autotune_cache.json` at the repository root. The file is
/// host-specific (entries are keyed by hostname) and always safe to
/// delete — the only cost is a one-shot re-bench per size class.
pub fn cache_path() -> PathBuf {
    if let Ok(p) = std::env::var("CIT_AUTOTUNE_CACHE") {
        if !p.trim().is_empty() {
            return PathBuf::from(p);
        }
    }
    // CARGO_MANIFEST_DIR of cit-compute is <repo>/crates/compute.
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/autotune_cache.json"
    ))
}

/// A stable identifier for this machine, used to key cache entries so a
/// checked-in or copied cache file can never poison a different host.
pub fn host_key() -> String {
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return h.to_string();
        }
    }
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .unwrap_or_else(|| "unknown-host".to_string())
}

/// Installs the autotuning scheme provider into `cit-tensor` (idempotent;
/// the first call wins process-wide). Honors `CIT_AUTOTUNE=off` by
/// installing nothing. Called by the trainer, the serving decision model
/// and the bench harness on construction, so any entry point gets tuned
/// kernels without extra wiring.
pub fn ensure_installed() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        if autotune_disabled() {
            return;
        }
        let tuner = Tuner::new(cache_path(), host_key(), bench_candidates);
        let _ = kernels::install_scheme_provider(Box::new(move |layout, m, k, n| {
            tuner.resolve(layout, m, k, n)
        }));
    });
}

/// Size classes per dimension: the powers of two `8 ..= 4096`.
const CLASS_STEPS: usize = 10;

/// Slots in the winner table: one per layout and size class.
const TABLE_LEN: usize = 3 * CLASS_STEPS * CLASS_STEPS * CLASS_STEPS;

/// The winner-table slot of `(layout, class)`. `class` must be canonical,
/// i.e. produced by [`SizeClass::of`].
fn table_index(layout: MatmulLayout, class: SizeClass) -> usize {
    let step = |d: usize| d.trailing_zeros() as usize - 3;
    let layout = match layout {
        MatmulLayout::Nn => 0,
        MatmulLayout::Nt => 1,
        MatmulLayout::Tn => 2,
    };
    ((layout * CLASS_STEPS + step(class.m)) * CLASS_STEPS + step(class.k)) * CLASS_STEPS
        + step(class.n)
}

/// Parses a cache-file key `host|layout|MxKxN` into its parts, or `None`
/// when the layout is unknown or the class is not canonical.
fn parse_file_key(key: &str) -> Option<(&str, MatmulLayout, SizeClass)> {
    let mut parts = key.split('|');
    let host = parts.next()?;
    let layout = match parts.next()? {
        "nn" => MatmulLayout::Nn,
        "nt" => MatmulLayout::Nt,
        "tn" => MatmulLayout::Tn,
        _ => return None,
    };
    let mut dims = parts.next()?.split('x').map(|d| d.parse::<usize>().ok());
    let (m, k, n) = (dims.next()??, dims.next()??, dims.next()??);
    let class = SizeClass { m, k, n };
    let canonical =
        dims.next().is_none() && parts.next().is_none() && SizeClass::of(m, k, n) == class;
    canonical.then_some((host, layout, class))
}

/// Picks the winning scheme for one layout and size class.
type BenchFn = fn(MatmulLayout, SizeClass) -> TilingScheme;

struct Tuner {
    host: String,
    path: PathBuf,
    bench: BenchFn,
    /// Published winners, one slot per `(layout, size class)`. A hit is
    /// one atomic load; a slot is set once, under `file`'s lock.
    table: Box<[OnceLock<TilingScheme>]>,
    /// Merged persisted view (`host|layout|class` → encoded scheme),
    /// including entries loaded from disk for other hosts, which are
    /// preserved on rewrite. Locked only on a miss.
    file: Mutex<BTreeMap<String, String>>,
}

impl Tuner {
    /// A tuner over the cache file at `path`, with this host's entries
    /// already published, so a warm cache never takes the lock.
    fn new(path: PathBuf, host: String, bench: BenchFn) -> Self {
        let file = load_cache(&path);
        let table: Box<[OnceLock<TilingScheme>]> =
            (0..TABLE_LEN).map(|_| OnceLock::new()).collect();
        for (key, encoded) in &file {
            if let (Some((h, layout, class)), Some(s)) =
                (parse_file_key(key), TilingScheme::parse(encoded))
            {
                if h == host {
                    let _ = table[table_index(layout, class)].set(s.validated());
                }
            }
        }
        Tuner {
            host,
            path,
            bench,
            table,
            file: Mutex::new(file),
        }
    }

    fn file_key(&self, layout: MatmulLayout, class: SizeClass) -> String {
        format!("{}|{}|{}", self.host, layout.label(), class.label())
    }

    fn resolve(&self, layout: MatmulLayout, m: usize, k: usize, n: usize) -> TilingScheme {
        let class = SizeClass::of(m, k, n);
        let slot = &self.table[table_index(layout, class)];
        match slot.get() {
            Some(s) => *s,
            None => self.tune(layout, class, slot),
        }
    }

    /// The miss path: benches the class once, persists the winner, then
    /// publishes it. Runs under the lock so concurrent first callers of a
    /// class wait for one tuning pass instead of racing their own.
    #[cold]
    fn tune(
        &self,
        layout: MatmulLayout,
        class: SizeClass,
        slot: &OnceLock<TilingScheme>,
    ) -> TilingScheme {
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(s) = slot.get() {
            return *s; // published while this caller waited
        }
        let winner = (self.bench)(layout, class);
        file.insert(self.file_key(layout, class), winner.encode());
        persist_cache(&self.path, &file);
        let _ = slot.set(winner);
        winner
    }
}

/// Deterministic pseudo-random bench operands (values are irrelevant for
/// timing; kept in [-0.5, 0.5) to avoid subnormals).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Benchmarks every candidate on a representative problem of this size
/// class (dimensions capped at 256 to bound tuning cost) and returns the
/// fastest. Falls back to the static default when the class is degenerate.
fn bench_candidates(layout: MatmulLayout, class: SizeClass) -> TilingScheme {
    let (m, k, n) = (class.m.min(256), class.k.min(256), class.n.min(256));
    let a = fill(m * k, 11);
    let b = fill(k * n, 23);
    let mut out = vec![0.0f32; m * n];
    let mut run = |scheme: TilingScheme| match layout {
        MatmulLayout::Nn => kernels::matmul_nn_acc_with(scheme, m, k, n, &a, &b, &mut out),
        MatmulLayout::Nt => kernels::matmul_nt_acc_with(scheme, m, k, n, &a, &b, &mut out),
        MatmulLayout::Tn => kernels::matmul_tn_acc_with(scheme, m, k, n, &a, &b, &mut out),
    };

    let mut best = TilingScheme::default_for(layout);
    let mut best_ns = u128::MAX;
    for cand in kernels::candidate_schemes(layout) {
        // Warm-up run: page in the pack buffer and estimate cost.
        let t0 = Instant::now();
        run(cand);
        let warm_ns = t0.elapsed().as_nanos().max(1);
        // Enough reps to fill ~200µs, capped so huge classes stay cheap.
        let reps = (200_000 / warm_ns).clamp(1, 64) as usize;
        let mut cand_ns = u128::MAX;
        for _ in 0..2 {
            let t0 = Instant::now();
            for _ in 0..reps {
                run(cand);
            }
            cand_ns = cand_ns.min(t0.elapsed().as_nanos() / reps as u128);
        }
        if cand_ns < best_ns {
            best_ns = cand_ns;
            best = cand;
        }
    }
    best
}

/// Loads the cache file into a key → encoded-scheme map. The format is the
/// flat JSON object written by [`persist_cache`]; anything unparseable is
/// skipped, so a corrupt or foreign file degrades to an empty cache.
fn load_cache(path: &PathBuf) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in text.lines() {
        let mut parts = line.split('"');
        // `  "key": "value",` splits as [_, key, colon, value, _].
        let (Some(_), Some(key), Some(sep), Some(value)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if sep.trim() == ":" && key.contains('|') {
            map.insert(key.to_string(), value.to_string());
        }
    }
    map
}

/// Atomically rewrites the cache file (temp + rename). Failures are
/// swallowed: persistence is an optimisation, never a correctness concern.
fn persist_cache(path: &PathBuf, entries: &BTreeMap<String, String>) {
    let mut text = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        text.push_str(&format!("  \"{key}\": \"{value}\"{comma}\n"));
    }
    text.push_str("}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let tmp = path.with_extension("json.tmp");
    if std::fs::write(&tmp, &text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn size_class_buckets_to_powers_of_two() {
        assert_eq!(SizeClass::of(10, 17, 100), SizeClass::of(9, 32, 65));
        assert_eq!(SizeClass::of(1, 1, 1), SizeClass { m: 8, k: 8, n: 8 });
        let c = SizeClass::of(5000, 128, 3000);
        assert_eq!((c.m, c.k, c.n), (4096, 128, 4096));
        assert_eq!(c.label(), "4096x128x4096");
    }

    #[test]
    fn cache_round_trips_through_file_format() {
        let dir = std::env::temp_dir().join(format!("cit_autotune_test_{}", std::process::id()));
        let path = dir.join("cache.json");
        let mut entries = BTreeMap::new();
        entries.insert(
            "hostA|nt|128x128x128".to_string(),
            TilingScheme::new(8, 8, 64, 256, 256).encode(),
        );
        entries.insert(
            "hostB|nn|32x32x32".to_string(),
            TilingScheme::new(4, 16, 64, 256, 256).encode(),
        );
        persist_cache(&path, &entries);
        let loaded = load_cache(&path);
        assert_eq!(loaded, entries);
        let scheme = TilingScheme::parse(&loaded["hostA|nt|128x128x128"]).expect("parse");
        assert_eq!((scheme.mr, scheme.nr), (8, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_tolerates_garbage() {
        let dir = std::env::temp_dir().join(format!("cit_autotune_garbage_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.json");
        std::fs::write(
            &path,
            "this is { not json \"at\" all\n\"no-pipe\": \"4x4\"\n",
        )
        .unwrap();
        assert!(load_cache(&path).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidate_grids_are_nonempty_and_validated() {
        for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
            let cands = kernels::candidate_schemes(layout);
            assert!(!cands.is_empty());
            for c in cands {
                assert_eq!(c, c.validated(), "{layout:?} candidate not validated");
            }
        }
    }

    fn temp_cache(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cit_autotune_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.join("cache.json"), dir)
    }

    /// A deterministic stand-in for the timing bench: a fixed candidate per
    /// class, so two tuners agree without timing noise.
    fn pick(layout: MatmulLayout, class: SizeClass) -> TilingScheme {
        let cands = kernels::candidate_schemes(layout);
        cands[(class.m + 3 * class.k + 7 * class.n) % cands.len()]
    }

    #[test]
    fn file_keys_round_trip_and_reject_foreign_classes() {
        let class = SizeClass::of(8, 24, 32);
        let tuner = Tuner::new(PathBuf::from("/nonexistent/cache.json"), "h".into(), pick);
        let key = tuner.file_key(MatmulLayout::Nt, class);
        assert_eq!(parse_file_key(&key), Some(("h", MatmulLayout::Nt, class)));
        for bad in [
            "h|nn|10x8x8",
            "h|nn|8x8",
            "h|nn|8x8x8x8",
            "h|xx|8x8x8",
            "h|nn|4x8x8",
            "h",
        ] {
            assert_eq!(parse_file_key(bad), None, "{bad:?}");
        }
        // Every canonical class has its own slot inside the table.
        let mut seen = std::collections::HashSet::new();
        for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
            for d in (3..=12).map(|e| 1usize << e) {
                for class in [
                    SizeClass::of(d, 8, 8),
                    SizeClass::of(8, d, 8),
                    SizeClass::of(8, 8, d),
                ] {
                    let i = table_index(layout, class);
                    assert!(i < TABLE_LEN);
                    seen.insert((i, layout, class));
                }
            }
        }
        let slots: std::collections::HashSet<usize> = seen.iter().map(|s| s.0).collect();
        assert_eq!(slots.len(), seen.len());
    }

    #[test]
    fn miss_benches_and_persists_exactly_once() {
        static BENCHES: AtomicUsize = AtomicUsize::new(0);
        fn counting(layout: MatmulLayout, class: SizeClass) -> TilingScheme {
            BENCHES.fetch_add(1, Ordering::SeqCst);
            pick(layout, class)
        }
        let (path, dir) = temp_cache("once");
        let first = Tuner::new(path.clone(), "hostT".into(), counting);
        let winner = first.resolve(MatmulLayout::Nn, 8, 24, 32);
        assert_eq!(BENCHES.load(Ordering::SeqCst), 1);
        let persisted = load_cache(&path);
        assert_eq!(persisted.len(), 1);
        assert_eq!(persisted["hostT|nn|8x32x32"], winner.encode());

        // Hits, from this size class's other shapes too, neither bench nor
        // rewrite the file.
        std::fs::remove_file(&path).unwrap();
        for (m, k, n) in [(8, 24, 32), (5, 17, 20), (8, 32, 32)] {
            assert_eq!(first.resolve(MatmulLayout::Nn, m, k, n), winner);
        }
        assert_eq!(BENCHES.load(Ordering::SeqCst), 1);
        assert!(!path.exists(), "a hit rewrote the cache file");

        // A new process finds the winner in the file: no bench at all.
        persist_cache(&path, &persisted);
        let second = Tuner::new(path.clone(), "hostT".into(), counting);
        assert_eq!(second.resolve(MatmulLayout::Nn, 7, 30, 25), winner);
        assert_eq!(BENCHES.load(Ordering::SeqCst), 1);
        // Another host's entries are kept but never used here.
        let other = Tuner::new(path, "hostU".into(), counting);
        other.resolve(MatmulLayout::Nn, 8, 24, 32);
        assert_eq!(BENCHES.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_threads_resolve_the_same_schemes_as_one() {
        static BENCHES: AtomicUsize = AtomicUsize::new(0);
        fn counting(layout: MatmulLayout, class: SizeClass) -> TilingScheme {
            BENCHES.fetch_add(1, Ordering::SeqCst);
            pick(layout, class)
        }
        let mut calls = Vec::new();
        for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
            for (m, k, n) in [
                (8, 24, 32),
                (8, 15, 32),
                (11, 11, 256),
                (24, 8, 32),
                (128, 128, 128),
            ] {
                calls.push((layout, m, k, n));
            }
        }
        let (path_one, dir_one) = temp_cache("one_thread");
        let one = Tuner::new(path_one, "hostT".into(), pick);
        let expected: Vec<TilingScheme> = calls
            .iter()
            .map(|&(l, m, k, n)| one.resolve(l, m, k, n))
            .collect();

        let (path_two, dir_two) = temp_cache("two_threads");
        let two = Tuner::new(path_two.clone(), "hostT".into(), counting);
        let results: Vec<Vec<TilingScheme>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (two, calls) = (&two, &calls);
                    s.spawn(move || {
                        calls
                            .iter()
                            .map(|&(l, m, k, n)| two.resolve(l, m, k, n))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in results {
            assert_eq!(got, expected);
        }
        // One bench per distinct class, however the threads interleaved.
        assert_eq!(BENCHES.load(Ordering::SeqCst), calls.len());
        assert_eq!(load_cache(&path_two).len(), calls.len());
        let _ = std::fs::remove_dir_all(&dir_one);
        let _ = std::fs::remove_dir_all(&dir_two);
    }

    #[test]
    fn bench_picks_some_supported_candidate() {
        let winner = bench_candidates(MatmulLayout::Nt, SizeClass::of(32, 32, 32));
        assert!(kernels::SUPPORTED_REGISTER_TILES.contains(&(winner.mr, winner.nr)));
    }
}
