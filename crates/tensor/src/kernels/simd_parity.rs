//! Bitwise parity of the dispatched matmul kernels against the portable
//! copy. On an AVX2 host the dispatched path is the AVX2 copy, so this is
//! the proof that enabling wider vectors changed no bits; elsewhere both
//! sides are the portable copy and the test is trivially green.

use super::*;

/// ±0, subnormals (including the smallest), a value that overflows to
/// infinity when summed, ±inf and NaN, mixed into the operands so the
/// parity covers every IEEE special case the kernels can meet —
/// signed-zero sums, gradual underflow, overflow, `inf · 0`, `inf − inf`
/// and NaN propagation. NaN comes last so a prefix excludes it.
const SPECIALS: [f32; 9] = [
    0.0,
    -0.0,
    f32::from_bits(1),
    -f32::MIN_POSITIVE / 3.0,
    f32::MIN_POSITIVE / 7.0,
    3.0e38,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

/// Deterministic operands: mostly values in `[-2, 2)`, with roughly one
/// element in `1 / special_every` drawn from [`SPECIALS`] (the first
/// `specials` entries of it).
fn operand(len: usize, seed: u64, specials: usize, special_every: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(special_every) {
                SPECIALS[(state >> 32) as usize % specials]
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            }
        })
        .collect()
}

/// Edge shapes (m, n off the register-tile grid, k = 1) plus the products
/// one paper-scale actor issues: the TCN convs `8 × (Cin·K) × 32` forward
/// (nn) with their weight and input gradients (nt, tn), and the spatial
/// attention mix `11 × 11 × 256` with its gradients.
const SHAPES: [(usize, usize, usize); 16] = [
    (1, 1, 1),
    (3, 1, 5),
    (7, 1, 33),
    (5, 7, 3),
    (9, 13, 17),
    (13, 29, 37),
    (4, 16, 16),
    (17, 33, 15),
    (8, 15, 32),
    (8, 24, 32),
    (8, 32, 24),
    (24, 8, 32),
    (15, 8, 32),
    (11, 11, 256),
    (11, 256, 11),
    (70, 3, 300),
];

/// Whether two outputs count as the same result. Everything is compared
/// with `to_bits`, with one hardware-defined exception: when an add meets
/// two NaNs with different bits, x86 returns the first source operand's
/// NaN, and which operand comes first is the code generator's choice (AVX
/// can fold the accumulator's load into the add where SSE cannot, and
/// register allocation differs between copies and optimisation levels).
/// Such a clash needs an input NaN whose bits differ from the default NaN
/// that `inf · 0` produces, so without input NaNs every bit must match;
/// with them, NaN outputs must still be NaN on both sides.
fn same_result(nan_inputs: bool, d: f32, p: f32) -> bool {
    d.to_bits() == p.to_bits() || (nan_inputs && d.is_nan() && p.is_nan())
}

fn assert_bitwise(layout: MatmulLayout, scheme: TilingScheme, shape: (usize, usize, usize)) {
    let (m, k, n) = shape;
    // Every special but NaN, then every special: without input NaNs every
    // NaN an output holds is the default NaN that `inf · 0` or `inf − inf`
    // produced, so the first pass compares every output bit for bit.
    for (specials, every) in [(SPECIALS.len() - 1, 11), (SPECIALS.len(), 7)] {
        let nan_inputs = specials == SPECIALS.len();
        let seed = (m * 7919 + k * 104_729 + n * 31) as u64 + specials as u64;
        let a = operand(m * k, seed, specials, every);
        let b = operand(k * n, seed + 1, specials, every);
        let init = operand(m * n, seed + 2, specials, every);

        let mut dispatched = init.clone();
        match layout {
            MatmulLayout::Nn => matmul_nn_acc_with(scheme, m, k, n, &a, &b, &mut dispatched),
            MatmulLayout::Nt => matmul_nt_acc_with(scheme, m, k, n, &a, &b, &mut dispatched),
            MatmulLayout::Tn => matmul_tn_acc_with(scheme, m, k, n, &a, &b, &mut dispatched),
        }
        let mut portable = init;
        execute_portable(MatmulCall {
            layout,
            scheme,
            m,
            k,
            n,
            a: &a,
            b: &b,
            out: &mut portable,
        });

        for (i, (&d, &p)) in dispatched.iter().zip(&portable).enumerate() {
            assert!(
                same_result(nan_inputs, d, p),
                "{} {m}x{k}x{n} scheme {} element {i}: {} {d} ({:#010x}) vs portable {p} ({:#010x})",
                layout.label(),
                scheme.encode(),
                simd_level(),
                d.to_bits(),
                p.to_bits(),
            );
        }
    }
}

#[test]
fn dispatched_kernels_are_bitwise_identical_to_portable() {
    for layout in [MatmulLayout::Nn, MatmulLayout::Nt, MatmulLayout::Tn] {
        let mut schemes = candidate_schemes(layout);
        schemes.push(TilingScheme::default_for(layout));
        for scheme in schemes {
            for shape in SHAPES {
                assert_bitwise(layout, scheme, shape);
            }
        }
    }
}

#[test]
fn simd_level_matches_cpu_detection() {
    #[cfg(target_arch = "x86_64")]
    let expected = if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "portable"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let expected = "portable";
    assert_eq!(simd_level(), expected);
}
