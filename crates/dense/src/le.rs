//! Little-endian runs of 4-byte words, the bulk step of every codec.
//!
//! `SGNNCKPT`, `SGNNTERM` and the wire frames all store `u32` ids and `f32`
//! matrices as packed little-endian words. Converting a run through one
//! `chunks_exact` loop over a pre-sized buffer — instead of one `Vec` push
//! per element — lets the compiler turn it into wide copies on
//! little-endian targets while staying safe and portable code.

fn put<T: Copy>(out: &mut Vec<u8>, vals: &[T], to_le: impl Fn(T) -> [u8; 4]) {
    let start = out.len();
    out.resize(start + vals.len() * 4, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&to_le(v));
    }
}

fn get<T>(out: &mut Vec<T>, bytes: &[u8], from_le: impl Fn([u8; 4]) -> T) {
    debug_assert_eq!(bytes.len() % 4, 0, "word run must be whole words");
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|q| from_le([q[0], q[1], q[2], q[3]])),
    );
}

/// Appends `vals` to `out` as little-endian words.
pub fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    put(out, vals, u32::to_le_bytes);
}

/// Appends `vals` to `out` as little-endian IEEE-754 bit patterns.
pub fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    put(out, vals, f32::to_le_bytes);
}

/// Appends the little-endian words in `bytes` (a whole number of them) to
/// `out`.
pub fn get_u32s(out: &mut Vec<u32>, bytes: &[u8]) {
    get(out, bytes, u32::from_le_bytes);
}

/// Appends the little-endian `f32` bit patterns in `bytes` to `out`,
/// bit-exactly (NaN payloads and signed zeros survive).
pub fn get_f32s(out: &mut Vec<f32>, bytes: &[u8]) {
    get(out, bytes, f32::from_le_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_round_trip_and_match_per_element_encoding() {
        let ids = [0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let vals = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY, -1e30];
        let mut buf = vec![0xAA]; // appended after existing content
        put_u32s(&mut buf, &ids);
        put_f32s(&mut buf, &vals);
        let mut want = vec![0xAA];
        for id in ids {
            want.extend_from_slice(&id.to_le_bytes());
        }
        for v in vals {
            want.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(buf, want);

        let (mut ids_back, mut vals_back) = (vec![7u32], Vec::new());
        get_u32s(&mut ids_back, &buf[1..1 + ids.len() * 4]);
        get_f32s(&mut vals_back, &buf[1 + ids.len() * 4..]);
        assert_eq!(ids_back[0], 7);
        assert_eq!(&ids_back[1..], ids);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals_back), bits(&vals));
    }
}
