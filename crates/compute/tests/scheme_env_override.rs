//! `CIT_TILING` beats the warm scheme table, and a forced scheme beats
//! `CIT_TILING`. Kept in its own test binary because the override is read
//! once per process.

use cit_compute::autotune;
use cit_tensor::kernels::{force_scheme, resolve_scheme, MatmulLayout, TilingScheme};

#[test]
fn env_override_beats_the_warm_table_and_force_beats_the_env() {
    std::env::remove_var("CIT_AUTOTUNE");
    let dir = std::env::temp_dir().join(format!("cit_env_override_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache.json");
    std::fs::write(
        &cache,
        format!(
            "{{\n  \"{}|nn|8x32x32\": \"{}\"\n}}\n",
            autotune::host_key(),
            TilingScheme::new(2, 8, 64, 256, 256).encode()
        ),
    )
    .unwrap();
    std::env::set_var("CIT_AUTOTUNE_CACHE", &cache);
    std::env::set_var("CIT_TILING", "8x8:32x64x64");
    // The table is warm from the cache file as soon as the tuner installs.
    autotune::ensure_installed();

    let env = TilingScheme::new(8, 8, 32, 64, 64);
    for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
        assert_eq!(resolve_scheme(layout, 8, 24, 32), env);
    }
    let forced = TilingScheme::new(4, 4, 16, 32, 32);
    force_scheme(Some(forced));
    assert_eq!(resolve_scheme(MatmulLayout::Nn, 8, 24, 32), forced);
    force_scheme(None);
    assert_eq!(resolve_scheme(MatmulLayout::Nn, 8, 24, 32), env);
    // The override short-circuits the tuner: nothing was benched or written.
    assert_eq!(
        std::fs::read_to_string(&cache).unwrap().lines().count(),
        3,
        "the tuner rewrote its cache under CIT_TILING"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
