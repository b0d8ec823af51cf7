//! LEB128 variable-length integers, little-endian base-128.
//!
//! Every multi-byte quantity in the `.rdfb` container body is a varint;
//! deltas between sorted ids shrink to one byte almost everywhere, which
//! is where the dictionary-encoded store gets its compactness.

use crate::error::StoreError;

/// The most bytes one varint takes.
pub const VARINT_MAX: usize = 10;

/// Append `value` to `out` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(StoreError::Truncated {
            what: "varint",
        })?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(StoreError::Corrupt("varint overflows 64 bits".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Read a varint and narrow it to `u32`.
pub fn read_varint_u32(buf: &[u8], pos: &mut usize) -> Result<u32, StoreError> {
    let v = read_varint(buf, pos)?;
    u32::try_from(v)
        .map_err(|_| StoreError::Corrupt(format!("value {v} exceeds u32")))
}

/// Read a varint and narrow it to `usize`.
pub fn read_varint_usize(
    buf: &[u8],
    pos: &mut usize,
) -> Result<usize, StoreError> {
    let v = read_varint(buf, pos)?;
    usize::try_from(v)
        .map_err(|_| StoreError::Corrupt(format!("value {v} exceeds usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn single_byte_for_small_values() {
        for v in 0u64..128 {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 20);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_encoding_is_an_error() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn u32_narrowing_rejects_wide_values() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX) + 1);
        let mut pos = 0;
        assert!(read_varint_u32(&buf, &mut pos).is_err());
    }
}
