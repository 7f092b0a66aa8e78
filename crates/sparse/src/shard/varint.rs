//! LEB128 varints and gap-delta adjacency row encoding.
//!
//! Column indices within a CSR row are sorted and strictly increasing, so a
//! row compresses as the first column raw followed by `gap − 1` per
//! subsequent column (gaps are ≥ 1, so the subtraction buys one more value
//! in the single-byte range). Each value is a little-endian base-128 varint:
//! 7 payload bits per byte, high bit = continuation. Social-network
//! neighborhoods cluster, so most gaps fit in one byte and the encoded
//! structure lands near `nnz` bytes instead of the 4·`nnz` of raw `u32`
//! indices.
//!
//! Decoding is fallible, never panicking: truncated input and non-canonical
//! over-long encodings are typed errors so a corrupted shard surfaces as
//! [`crate::shard::ShardError`] rather than UB or garbage columns.

/// Decode failure; the caller maps this onto its own error space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended mid-value.
    Truncated,
    /// More than 10 bytes of continuation, or payload bits beyond 64.
    Overflow,
    /// The stored row already contains the diagonal column being injected
    /// ([`decode_row_with_diag`]); stored structure must be diagonal-free.
    DiagonalCollision,
}

/// Appends `v` as a LEB128 varint.
pub(crate) fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint at `*pos`, advancing it past the value.
///
/// The one- and two-byte cases (column gaps in graphs up to ~2M nodes)
/// exit before the loop and the whole reader inlines into
/// [`decode_row`]'s per-edge loop — this sits on the shard-streaming
/// critical path, where an out-of-line call per value doubles decode time.
#[inline(always)]
pub(crate) fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let &first = buf.get(*pos).ok_or(VarintError::Truncated)?;
    *pos += 1;
    if first < 0x80 {
        return Ok(first as u64);
    }
    let &second = buf.get(*pos).ok_or(VarintError::Truncated)?;
    *pos += 1;
    if second < 0x80 {
        return Ok(((first & 0x7f) as u64) | ((second as u64) << 7));
    }
    let mut v = ((first & 0x7f) as u64) | (((second & 0x7f) as u64) << 7);
    let mut shift = 14u32;
    loop {
        if shift > 63 {
            return Err(VarintError::Overflow);
        }
        let &byte = buf.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return Err(VarintError::Overflow);
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes one adjacency row: `cols` must be strictly increasing (sorted,
/// no duplicates). Panics otherwise — the writer owns its inputs.
pub fn encode_row(buf: &mut Vec<u8>, cols: &[u32]) {
    let Some((&first, rest)) = cols.split_first() else {
        return;
    };
    write_u64(buf, first as u64);
    let mut prev = first;
    for &c in rest {
        assert!(c > prev, "row columns must be strictly increasing");
        write_u64(buf, (c - prev - 1) as u64);
        prev = c;
    }
}

/// Decodes one row of `deg` columns into `out` (appended), validating every
/// column against the matrix width `n`. The inverse of [`encode_row`].
pub fn decode_row(
    buf: &[u8],
    pos: &mut usize,
    deg: usize,
    n: u32,
    out: &mut Vec<u32>,
) -> Result<(), VarintError> {
    if deg == 0 {
        return Ok(());
    }
    out.reserve(deg);
    let nn = n as u64;
    let mut p = *pos;
    let mut prev = read_u64(buf, &mut p)?;
    if prev >= nn {
        return Err(VarintError::Overflow);
    }
    out.push(prev as u32);
    for _ in 1..deg {
        let gap = read_u64(buf, &mut p)?;
        prev = prev
            .checked_add(gap + 1)
            .filter(|&c| c < nn)
            .ok_or(VarintError::Overflow)?;
        out.push(prev as u32);
    }
    *pos = p;
    Ok(())
}

/// Decodes one row like [`decode_row`] but splices column `diag` into its
/// sorted position as it streams — the self-loop injection of the decode
/// ring, done inline so no post-hoc `Vec::insert` memmove lands on the
/// streaming critical path. `diag` must be `< n`; a stored `diag` column
/// is [`VarintError::DiagonalCollision`].
pub fn decode_row_with_diag(
    buf: &[u8],
    pos: &mut usize,
    deg: usize,
    n: u32,
    diag: u32,
    out: &mut Vec<u32>,
) -> Result<(), VarintError> {
    debug_assert!(diag < n);
    out.reserve(deg + 1);
    if deg == 0 {
        out.push(diag);
        return Ok(());
    }
    let nn = n as u64;
    let dd = diag as u64;
    let mut p = *pos;
    let mut injected = false;
    let mut prev = read_u64(buf, &mut p)?;
    if prev >= nn {
        return Err(VarintError::Overflow);
    }
    if prev >= dd {
        if prev == dd {
            return Err(VarintError::DiagonalCollision);
        }
        out.push(diag);
        injected = true;
    }
    out.push(prev as u32);
    for _ in 1..deg {
        let gap = read_u64(buf, &mut p)?;
        prev = prev
            .checked_add(gap + 1)
            .filter(|&c| c < nn)
            .ok_or(VarintError::Overflow)?;
        if !injected && prev >= dd {
            if prev == dd {
                return Err(VarintError::DiagonalCollision);
            }
            out.push(diag);
            injected = true;
        }
        out.push(prev as u32);
    }
    if !injected {
        out.push(diag);
    }
    *pos = p;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn truncated_varint_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300_000);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), Err(VarintError::Truncated));
        }
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 11 continuation bytes: more payload than u64 holds.
        let buf = [0x80u8; 10]
            .iter()
            .chain([0x01u8].iter())
            .copied()
            .collect::<Vec<_>>();
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Err(VarintError::Overflow));
    }

    #[test]
    fn row_round_trips_and_validates_bounds() {
        let cols = [0u32, 1, 7, 8, 1000, 65536];
        let mut buf = Vec::new();
        encode_row(&mut buf, &cols);
        let mut out = Vec::new();
        let mut pos = 0;
        decode_row(&buf, &mut pos, cols.len(), 100_000, &mut out).unwrap();
        assert_eq!(out, cols);
        assert_eq!(pos, buf.len());
        // Same bytes against a smaller matrix: out-of-bounds column.
        let mut pos = 0;
        assert_eq!(
            decode_row(&buf, &mut pos, cols.len(), 1000, &mut Vec::new()),
            Err(VarintError::Overflow)
        );
    }

    #[test]
    fn empty_row_is_zero_bytes() {
        let mut buf = Vec::new();
        encode_row(&mut buf, &[]);
        assert!(buf.is_empty());
        let mut pos = 0;
        decode_row(&buf, &mut pos, 0, 10, &mut Vec::new()).unwrap();
        assert_eq!(pos, 0);
    }
}
