//! `CIT_AUTOTUNE=off` installs no provider: every layout resolves to its
//! static default and no cache file is touched. Kept in its own test
//! binary because the provider is process-global.

use cit_compute::autotune;
use cit_tensor::kernels::{resolve_scheme, MatmulLayout, TilingScheme};

#[test]
fn autotune_off_yields_the_static_defaults() {
    std::env::remove_var("CIT_TILING");
    std::env::set_var("CIT_AUTOTUNE", "off");
    let dir = std::env::temp_dir().join(format!("cit_autotune_off_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache.json");
    std::env::set_var("CIT_AUTOTUNE_CACHE", &cache);
    autotune::ensure_installed();

    for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
        for (m, k, n) in [(8, 24, 32), (11, 11, 256), (128, 128, 128)] {
            assert_eq!(
                resolve_scheme(layout, m, k, n),
                TilingScheme::default_for(layout)
            );
        }
    }
    assert!(!cache.exists(), "a disabled tuner wrote its cache");
}
