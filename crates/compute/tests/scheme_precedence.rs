//! Resolution order over a warm scheme table: a forced scheme beats the
//! tuner's published winners, and clearing it restores them. Kept in its
//! own test binary because the force and the provider are process-global.

use cit_compute::autotune;
use cit_tensor::kernels::{force_scheme, resolve_scheme, MatmulLayout, TilingScheme};

#[test]
fn forced_scheme_beats_the_warm_table_and_clearing_restores_it() {
    std::env::remove_var("CIT_TILING");
    std::env::remove_var("CIT_AUTOTUNE");
    let dir = std::env::temp_dir().join(format!("cit_precedence_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache.json");
    // A cached winner that is not the default, so the table visibly wins.
    let cached = TilingScheme::new(2, 8, 64, 256, 256);
    std::fs::write(
        &cache,
        format!(
            "{{\n  \"{}|nn|8x32x32\": \"{}\"\n}}\n",
            autotune::host_key(),
            cached.encode()
        ),
    )
    .unwrap();
    std::env::set_var("CIT_AUTOTUNE_CACHE", &cache);
    autotune::ensure_installed();

    // Warm: the cached class from the file, a benched class from a miss.
    assert_eq!(resolve_scheme(MatmulLayout::Nn, 8, 24, 32), cached);
    let benched = resolve_scheme(MatmulLayout::Nt, 8, 32, 24);
    assert_eq!(resolve_scheme(MatmulLayout::Nt, 8, 32, 24), benched);

    let forced = TilingScheme::new(8, 4, 16, 32, 32);
    force_scheme(Some(forced));
    assert_eq!(resolve_scheme(MatmulLayout::Nn, 8, 24, 32), forced);
    assert_eq!(resolve_scheme(MatmulLayout::Nt, 8, 32, 24), forced);
    assert_eq!(resolve_scheme(MatmulLayout::Tn, 24, 8, 32), forced);

    force_scheme(None);
    assert_eq!(resolve_scheme(MatmulLayout::Nn, 8, 24, 32), cached);
    assert_eq!(resolve_scheme(MatmulLayout::Nt, 8, 32, 24), benched);
    let _ = std::fs::remove_dir_all(&dir);
}
