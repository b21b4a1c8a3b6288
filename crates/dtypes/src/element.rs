//! The [`Element`] trait: what reduction kernels need from a dtype.

use crate::{Bf16, F16, F8E4M3};
use std::fmt::Debug;

/// Identifies a wire dtype; used for sizing transfers and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// 16-bit IEEE float.
    F16,
    /// bfloat16.
    Bf16,
    /// FP8 E4M3.
    F8E4M3,
}

impl DType {
    /// Bytes per element, the same in buffers and on the wire: elements
    /// travel at native width as their own little-endian bits (see
    /// [`Element::wire_bits`]).
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::Bf16 => 2,
            DType::F8E4M3 => 1,
        }
    }

    /// Human-readable name, matching the paper's terminology.
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "FP32",
            DType::F16 => "FP16",
            DType::Bf16 => "BF16",
            DType::F8E4M3 => "FP8",
        }
    }
}

/// An element type usable in reduction kernels: plain-old-data, convertible
/// to/from `f32` (the accumulate width), with a zero identity.
///
/// Implementations accumulate in `f32` to match HFReduce's CPU reduction,
/// which widens to single precision in vector registers before adding.
pub trait Element: Copy + Send + Sync + Debug + PartialEq + 'static {
    /// The dtype tag for this element type.
    const DTYPE: DType;
    /// Additive identity.
    const ZERO: Self;

    /// Widen to f32 (exact for every type here).
    fn to_f32(self) -> f32;
    /// Narrow from f32 with round-to-nearest-even.
    fn from_f32(x: f32) -> Self;

    /// The raw bit pattern in the low `DTYPE.size_bytes()` bytes (upper
    /// bytes zero); little-endian, those bytes are the element on the wire.
    fn wire_bits(self) -> u32;
    /// Rebuild an element from the low `DTYPE.size_bytes()` bytes of
    /// `bits`, exactly: every pattern, NaN payloads included, comes back.
    fn from_wire_bits(bits: u32) -> Self;
}

impl Element for f32 {
    const DTYPE: DType = DType::F32;
    const ZERO: Self = 0.0;
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }
    #[inline]
    fn wire_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_wire_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Element for F16 {
    const DTYPE: DType = DType::F16;
    const ZERO: Self = F16::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    #[inline]
    fn wire_bits(self) -> u32 {
        self.to_bits().into()
    }
    #[inline]
    fn from_wire_bits(bits: u32) -> Self {
        F16::from_bits(bits as u16)
    }
}

impl Element for Bf16 {
    const DTYPE: DType = DType::Bf16;
    const ZERO: Self = Bf16::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        Bf16::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        Bf16::from_f32(x)
    }
    #[inline]
    fn wire_bits(self) -> u32 {
        self.to_bits().into()
    }
    #[inline]
    fn from_wire_bits(bits: u32) -> Self {
        Bf16::from_bits(bits as u16)
    }
}

impl Element for F8E4M3 {
    const DTYPE: DType = DType::F8E4M3;
    const ZERO: Self = F8E4M3::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        F8E4M3::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        F8E4M3::from_f32(x)
    }
    #[inline]
    fn wire_bits(self) -> u32 {
        self.to_bits().into()
    }
    #[inline]
    fn from_wire_bits(bits: u32) -> Self {
        F8E4M3::from_bits(bits as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_wire_format() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::F8E4M3.size_bytes(), 1);
    }

    #[test]
    fn names_follow_paper() {
        assert_eq!(DType::F32.name(), "FP32");
        assert_eq!(DType::F8E4M3.name(), "FP8");
    }

    fn roundtrip_one<E: Element>(x: f32) {
        let e = E::from_f32(x);
        let back = E::from_f32(e.to_f32());
        assert_eq!(e, back);
    }

    #[test]
    fn narrowing_is_idempotent() {
        for x in [0.0f32, 1.0, -1.5, std::f32::consts::PI, 1e-3, 100.0] {
            roundtrip_one::<f32>(x);
            roundtrip_one::<F16>(x);
            roundtrip_one::<Bf16>(x);
            roundtrip_one::<F8E4M3>(x);
        }
    }

    #[test]
    fn zero_is_identity() {
        assert_eq!(f32::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(F8E4M3::ZERO.to_f32(), 0.0);
    }
}
