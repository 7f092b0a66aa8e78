//! The four properties every sealed codec owes, written once over
//! `(bytes, decode)`: a value round-trips, and a truncation at any offset, a
//! flip of any bit and any trailing byte are refused. Each format's test
//! binary pulls this file in by `#[path]` and feeds it from its own
//! strategies; `decode` is whatever reads the format — a function over a
//! slice, or a closure that writes the bytes to a scratch file and opens it.
//! The refusing functions return the errors so a caller can also pin kinds.
#![allow(dead_code)]

use std::fmt::Debug;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `load` on a scratch file holding `bytes` — the adapter for decoders
/// that read a path.
pub(crate) fn via_file<T>(bytes: &[u8], load: impl FnOnce(&Path) -> T) -> T {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("sgnn-codec-props-{}-{id}", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    let out = load(&path);
    std::fs::remove_file(&path).unwrap();
    out
}

/// `decode(encode(v)) == v`, and re-encoding gives the same bytes (which is
/// what compares floats bit for bit). Returns the encoding.
pub(crate) fn round_trips<V: PartialEq + Debug, E: Debug>(
    value: &V,
    encode: impl Fn(&V) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<V, E>,
) -> Vec<u8> {
    let bytes = encode(value);
    let back = decode(&bytes).expect("a well-formed encoding must decode");
    assert_eq!(&back, value);
    assert_eq!(encode(&back), bytes, "re-encoding changed the bytes");
    bytes
}

/// Every strict prefix — what a torn write leaves behind — is refused.
pub(crate) fn rejects_every_truncation<T, E>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Vec<E> {
    (0..bytes.len())
        .map(|cut| match decode(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => panic!("prefix of {cut}/{} bytes decoded", bytes.len()),
        })
        .collect()
}

/// Flipping bit `pick` (taken modulo the bits at or after byte `from`) is
/// refused.
pub(crate) fn rejects_bit_flip<T, E>(
    bytes: &[u8],
    from: usize,
    pick: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> E {
    let bit = from * 8 + pick % ((bytes.len() - from) * 8);
    let mut bad = bytes.to_vec();
    bad[bit / 8] ^= 1 << (bit % 8);
    match decode(&bad) {
        Err(e) => e,
        Ok(_) => panic!("flip of bit {bit} of {} bytes decoded", bytes.len()),
    }
}

/// [`rejects_bit_flip`] for every bit at or after byte `from`.
pub(crate) fn rejects_every_bit_flip<T, E>(
    bytes: &[u8],
    from: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Vec<E> {
    (0..(bytes.len() - from) * 8)
        .map(|pick| rejects_bit_flip(bytes, from, pick, &decode))
        .collect()
}

/// `extra` bytes appended are refused: a decoder consumes its input exactly.
pub(crate) fn rejects_trailing_bytes<T, E>(
    bytes: &[u8],
    extra: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> E {
    let mut long = bytes.to_vec();
    long.resize(bytes.len() + extra, 0xAA);
    match decode(&long) {
        Err(e) => e,
        Ok(_) => panic!("{extra} trailing bytes decoded"),
    }
}
