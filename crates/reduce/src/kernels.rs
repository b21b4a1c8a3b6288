//! CPU reduction kernels (§IV-D1: "Intra-Node Reduction: CPU utilizes SIMD
//! instructions and supports FP32 / FP16 / BF16 / FP8 datatypes").
//!
//! Kernels are generic over [`Element`] and accumulate in `f32` — the
//! narrow types are widened once per input, summed in single precision,
//! and narrowed once on the store, matching what the AVX implementation
//! does with hardware convert instructions. Loops are written over fixed
//! blocks so LLVM auto-vectorizes them.

use ff_dtypes::Element;

/// Block size for the unrolled inner loops.
const BLOCK: usize = 64;

/// `dst[i] += src[i]` with f32 accumulation. Slices must be equal length.
pub fn reduce_add_into<E: Element>(dst: &mut [E], src: &[E]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    let mut d = dst.chunks_exact_mut(BLOCK);
    let mut s = src.chunks_exact(BLOCK);
    for (db, sb) in d.by_ref().zip(s.by_ref()) {
        for i in 0..BLOCK {
            db[i] = E::from_f32(db[i].to_f32() + sb[i].to_f32());
        }
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = E::from_f32(x.to_f32() + y.to_f32());
    }
}

/// Reduce `srcs` element-wise into `dst` (overwriting it), accumulating the
/// whole fan-in in `f32` before a single narrowing store — the multi-input
/// form HFReduce uses for the 8-GPU intra-node reduce. All slices must have
/// `dst`'s length; an empty `srcs` zeroes `dst`.
///
/// Source-major over blocks: each block's `f32` accumulator takes every
/// source in turn (one contiguous, vectorizable pass per source), then
/// narrows once. Every element still sees `0.0 + s0 + s1 + …` in source
/// order, so the result is bit-identical to [`reference_sum`].
pub fn reduce_n_into<E: Element>(dst: &mut [E], srcs: &[&[E]]) {
    for s in srcs {
        assert_eq!(s.len(), dst.len(), "length mismatch");
    }
    let mut acc = [0.0f32; BLOCK];
    for (b, out) in dst.chunks_mut(BLOCK).enumerate() {
        let at = b * BLOCK;
        let acc = &mut acc[..out.len()];
        acc.fill(0.0);
        for s in srcs {
            for (a, x) in acc.iter_mut().zip(&s[at..at + out.len()]) {
                *a += x.to_f32();
            }
        }
        for (o, a) in out.iter_mut().zip(acc.iter()) {
            *o = E::from_f32(*a);
        }
    }
}

/// Split `len` elements into `chunks` contiguous ranges as evenly as
/// possible (the pipelining split of Algorithm 1). Every element is covered
/// exactly once; empty ranges occur only when `chunks > len`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunks >= 1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut at = 0;
    for c in 0..chunks {
        let sz = base + usize::from(c < extra);
        out.push(at..at + sz);
        at += sz;
    }
    debug_assert_eq!(at, len);
    out
}

/// Serial reference: the exact element-wise f32 sum of all inputs,
/// narrowed once (what any correct allreduce must produce, up to the
/// summation order of its internal tree). A plain element-major scalar
/// loop, independent of the kernels it is used to check.
pub fn reference_sum<E: Element>(inputs: &[Vec<E>]) -> Vec<E> {
    assert!(!inputs.is_empty());
    let len = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == len), "length mismatch");
    (0..len)
        .map(|i| {
            let mut acc = 0.0f32;
            for v in inputs {
                acc += v[i].to_f32();
            }
            E::from_f32(acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_dtypes::{Bf16, DType, F16, F8E4M3};

    #[test]
    fn add_into_f32_exact() {
        let mut a: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..1000).map(|i| (2 * i) as f32).collect();
        reduce_add_into(&mut a, &b);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v, (3 * i) as f32);
        }
    }

    #[test]
    fn add_into_handles_non_block_multiple_lengths() {
        for len in [0usize, 1, 63, 64, 65, 127, 129] {
            let mut a = vec![1.0f32; len];
            let b = vec![2.0f32; len];
            reduce_add_into(&mut a, &b);
            assert!(a.iter().all(|&x| x == 3.0), "len {len}");
        }
    }

    #[test]
    fn add_into_f16() {
        let mut a: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let b: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        reduce_add_into(&mut a, &b);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v.to_f32(), (2 * i) as f32, "index {i}");
        }
    }

    #[test]
    fn n_way_single_rounding_beats_chained_rounding() {
        // 8 values of 0.1 in F8: chained adds round at every step; the
        // single-accumulation kernel rounds once. In f32 the sum is 0.8
        // whose nearest F8 neighbour must be returned.
        let srcs: Vec<Vec<F8E4M3>> = (0..8).map(|_| vec![F8E4M3::from_f32(0.1)]).collect();
        let refs: Vec<&[F8E4M3]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![F8E4M3::ZERO; 1];
        reduce_n_into(&mut out, &refs);
        let exact = 8.0 * F8E4M3::from_f32(0.1).to_f32();
        assert_eq!(out[0], F8E4M3::from_f32(exact));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn n_way_bf16_eight_sources() {
        let srcs: Vec<Vec<Bf16>> = (0..8)
            .map(|g| (0..50).map(|i| Bf16::from_f32((g + i) as f32)).collect())
            .collect();
        let refs: Vec<&[Bf16]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![Bf16::ZERO; 50];
        reduce_n_into(&mut out, &refs);
        for i in 0..50 {
            let want: f32 = (0..8)
                .map(|g| Bf16::from_f32((g + i) as f32).to_f32())
                .sum();
            assert_eq!(out[i], Bf16::from_f32(want), "index {i}");
        }
    }

    #[test]
    fn n_way_empty_sources_zeroes() {
        let mut out = vec![1.5f32; 4];
        reduce_n_into::<f32>(&mut out, &[]);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 13] {
                let rs = chunk_ranges(len, chunks);
                assert_eq!(rs.len(), chunks);
                assert_eq!(rs.first().unwrap().start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Sizes differ by at most 1.
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let mut a = vec![0.0f32; 3];
        reduce_add_into(&mut a, &[1.0, 2.0]);
    }

    /// Seeded inputs drawn from a palette that makes sums hit ±0, ±inf
    /// and NaN (and F8's saturation) next to ordinary values.
    fn edge_inputs<E: Element>(fan_in: usize, len: usize, seed: u64) -> Vec<Vec<E>> {
        const PALETTE: [f32; 12] = [
            0.0,
            -0.0,
            -1e-45,
            1e-45,
            1.0,
            -1.0,
            0.1,
            3.0e38,
            -3.0e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = ff_util::rng::ChaCha8Rng::seed_from_u64(seed);
        (0..fan_in)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        let x = if rng.gen_bool(0.5) {
                            *rng.choose(&PALETTE).expect("palette")
                        } else {
                            rng.gen_range(-4.0f64..4.0) as f32
                        };
                        E::from_f32(x)
                    })
                    .collect()
            })
            .collect()
    }

    fn kernel_matches_oracle<E: Element>() {
        let mut seen = [false; 5]; // +0, -0, +inf, -inf, NaN
        for len in [0usize, 1, 63, 64, 65, 1000, 65_539] {
            for fan_in in 0..=9 {
                let inputs = edge_inputs::<E>(fan_in, len, (len * 16 + fan_in) as u64);
                let refs: Vec<&[E]> = inputs.iter().map(|v| v.as_slice()).collect();
                let mut got = vec![E::from_f32(7.0); len];
                reduce_n_into(&mut got, &refs);
                let want = if fan_in == 0 {
                    vec![E::ZERO; len]
                } else {
                    reference_sum(&inputs)
                };
                let bits = |v: &[E]| v.iter().map(|x| x.wire_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{:?} len {len} fan-in {fan_in}",
                    E::DTYPE
                );
                for x in got.iter().map(|x| x.to_f32()) {
                    let class = match x {
                        _ if x.is_nan() => 4,
                        f32::INFINITY => 2,
                        f32::NEG_INFINITY => 3,
                        _ if x == 0.0 => usize::from(x.is_sign_negative()),
                        _ => continue,
                    };
                    seen[class] = true;
                }
            }
        }
        // -0 goes in but never comes out: a sum that starts at +0.0 is +0
        // whenever it is zero. FP8 E4M3 saturates instead of overflowing.
        let inf = E::DTYPE != DType::F8E4M3;
        let want = [true, false, inf, inf, true];
        assert_eq!(seen, want, "{:?}: +0, -0, +inf, -inf, NaN", E::DTYPE);
    }

    #[test]
    fn reduce_n_into_equals_reference_sum_bit_for_bit() {
        kernel_matches_oracle::<f32>();
        kernel_matches_oracle::<F16>();
        kernel_matches_oracle::<Bf16>();
        kernel_matches_oracle::<F8E4M3>();
    }

    #[test]
    fn reference_sum_matches_manual() {
        let inputs = vec![vec![1.0f32, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        assert_eq!(reference_sum(&inputs), vec![111.0, 222.0]);
    }
}
