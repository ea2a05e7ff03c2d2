//! LEB128 varint encoding for timestamp counters.
//!
//! Experiments report metadata overhead in bytes, so timestamps encode their
//! counters compactly the way a production wire format would. Index sets are
//! static configuration shared by both endpoints and are not transmitted.

/// Number of bytes the LEB128 encoding of `v` occupies.
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `buf`, returning the value and
/// the number of bytes consumed.
///
/// Returns `None` on truncated or over-long (> 10 byte) input.
#[inline]
pub fn read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (n, &byte) in buf.iter().enumerate().take(10) {
        v |= u64::from(byte & 0x7f) << (7 * n);
        if byte & 0x80 == 0 {
            return Some((v, n + 1));
        }
    }
    None
}

/// Reads a LEB128 varint at `buf[*at..]`, advancing `at` — the cursor
/// shape every hand-rolled codec in the workspace uses (wire frames, WAL
/// records, snapshots), with truncation mapped to
/// [`std::io::ErrorKind::InvalidData`].
///
/// # Errors
///
/// `InvalidData` when `at` is out of range or the varint is truncated or
/// over-long.
#[inline]
pub fn read_varint_at(buf: &[u8], at: &mut usize) -> std::io::Result<u64> {
    let invalid =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let rest = buf.get(*at..).ok_or_else(|| invalid("truncated payload"))?;
    let (v, used) = read_varint(rest).ok_or_else(|| invalid("truncated varint"))?;
    *at += used;
    Ok(v)
}

/// Encodes a counter slice: varint count followed by varint counters.
pub fn encode_counters(counters: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(counters.len() + 1);
    write_varint(&mut out, counters.len() as u64);
    for &c in counters {
        write_varint(&mut out, c);
    }
    out
}

/// Decodes a counter vector produced by [`encode_counters`].
pub fn decode_counters(buf: &[u8]) -> Option<Vec<u64>> {
    let (n, mut off) = read_varint(buf)?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (v, used) = read_varint(&buf[off..])?;
        out.push(v);
        off += used;
    }
    if off == buf.len() {
        Some(out)
    } else {
        None
    }
}

/// Total encoded size of a counter slice, without allocating.
pub fn counters_len(counters: &[u64]) -> usize {
    varint_len(counters.len() as u64) + counters.iter().map(|&c| varint_len(c)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn round_trip_single() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let (got, used) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn round_trip_counters() {
        let counters = vec![0, 5, 1_000_000, 3, u64::MAX];
        let buf = encode_counters(&counters);
        assert_eq!(buf.len(), counters_len(&counters));
        assert_eq!(decode_counters(&buf).unwrap(), counters);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let buf = encode_counters(&[1, 2, 3]);
        assert!(decode_counters(&buf[..buf.len() - 1]).is_none());
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_counters(&long).is_none());
    }

    #[test]
    fn read_rejects_overlong() {
        let buf = vec![0x80u8; 11];
        assert!(read_varint(&buf).is_none());
    }
}
