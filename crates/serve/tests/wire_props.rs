//! Property tests for the two serving codecs: the wire protocol
//! (request/response frames) and the `SGNNTERM` terms artifact. Arbitrary
//! values must round-trip byte-exactly, and any single bit flip must be
//! rejected — CRC32 detects all single-bit errors by construction, so a
//! flip that decodes successfully is a codec bug (the properties are the
//! shared codec harness; this file feeds it). A golden-bytes test pins
//! the on-disk and on-wire encodings (checkpoint, terms artifact, `Logits`
//! frame) against arrays captured before the three CRC32 copies were merged.
//! Length fields that lie — which the CRC cannot catch, because the liar
//! seals the frame — must be a typed error before anything is allocated for
//! them; this binary runs under the tracking allocator to observe that.

#[path = "../../dense/tests/support/codec_props.rs"]
mod codec_props;

use proptest::prelude::*;
use sgnn_dense::sealed::crc32;
use sgnn_dense::DMat;
use sgnn_serve::artifact::{self, ServeMeta, TermsArtifact, TermsError};
use sgnn_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request, Response,
    WireError,
};
use sgnn_train::memory::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// What the heap may grow by while a lying header is decoded, beyond the
/// body itself: the other tests of this binary run on sibling threads and
/// hold buffers of up to a few hundred KiB, while a decoder that believed
/// the header would ask for gigabytes (or overflow its capacity and panic).
const ALLOC_SLACK: usize = 1 << 20;

/// A sealed frame body: version 2, `tag`, nonce 7, `fields`, valid CRC.
fn sealed_body(tag: u8, fields: &[u8]) -> Vec<u8> {
    let mut body = vec![2, tag];
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(fields);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Decodes `body` and returns the result with the heap growth it caused.
fn heap_growth<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let before = memory::ram_current();
    memory::ram_reset_peak();
    let out = decode();
    (out, memory::ram_peak().saturating_sub(before))
}

// The compat proptest shim has no `prop_oneof`; variants are picked by a
// sampled selector inside one `prop_map`.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..3,
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 1..40),
    )
        .prop_map(|(sel, nonce, deadline_ms, nodes)| match sel {
            0 => Request::Query {
                nonce,
                deadline_ms,
                nodes,
            },
            1 => Request::Reload { nonce },
            _ => Request::Ping { nonce },
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    // Logit values from i16 bit patterns scaled down: exact in f32, never
    // NaN, covers negatives and zero.
    (
        (0u8..4, any::<u64>()),
        (1u32..6, 1u32..5),
        proptest::collection::vec(any::<i16>(), 25..26),
        (0u8..8, any::<u32>()),
        proptest::collection::vec(32u8..127, 0..20),
    )
        .prop_map(
            |((sel, nonce), (rows, cols), pool, (code, retry_after_ms), msg)| match sel {
                0 => Response::Logits {
                    nonce,
                    rows,
                    cols,
                    data: (0..rows as usize * cols as usize)
                        .map(|i| pool[i % pool.len()] as f32 / 64.0)
                        .collect(),
                },
                1 => Response::Error {
                    nonce,
                    code: ErrorCode::from_byte(code).unwrap(),
                    retry_after_ms,
                    msg: msg.into_iter().map(char::from).collect(),
                },
                2 => Response::Reloaded {
                    nonce,
                    // Reuse the entropy already on hand for the tag.
                    generation: nonce ^ (retry_after_ms as u64),
                },
                _ => Response::Pong { nonce },
            },
        )
}

/// Arbitrary (meta, terms): small shapes, exact f32 values.
fn arb_artifact() -> impl Strategy<Value = (ServeMeta, Vec<Vec<DMat>>)> {
    (
        (
            proptest::collection::vec(32u8..127, 1..16),
            0usize..12,
            1usize..64,
            any::<u64>(),
            any::<u64>(),
        ),
        (1usize..4, 1usize..4, 1usize..5, 1usize..4),
        proptest::collection::vec(any::<i16>(), 60..61),
    )
        .prop_map(
            |((name, hops, hidden, seed, config_tag), (channels, nterms, rows, cols), pool)| {
                let meta = ServeMeta {
                    filter: name.into_iter().map(char::from).collect(),
                    hops,
                    hidden,
                    dropout: 0.5,
                    in_dim: cols,
                    num_classes: 2,
                    nodes: rows,
                    seed,
                    config_tag,
                };
                let terms: Vec<Vec<DMat>> = (0..channels)
                    .map(|c| {
                        (0..nterms)
                            .map(|k| {
                                DMat::from_fn(rows, cols, |i, j| {
                                    pool[(c * 17 + k * 7 + i * 3 + j) % pool.len()] as f32 / 32.0
                                })
                            })
                            .collect()
                    })
                    .collect();
                (meta, terms)
            },
        )
}

/// A frame's body (what follows the length prefix) is what the peer decodes.
fn request_body(req: &Request) -> Vec<u8> {
    encode_request(req)[4..].to_vec()
}

fn response_body(resp: &Response) -> Vec<u8> {
    encode_response(resp)[4..].to_vec()
}

/// `bytes` as a `terms.bin`, through the streamed loader.
fn load_terms(bytes: &[u8]) -> Result<TermsArtifact, TermsError> {
    codec_props::via_file(bytes, artifact::load)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests round-trip, and any single bit flip in the body is a
    /// deterministic `CrcMismatch` — the CRC is checked before any field
    /// is parsed.
    #[test]
    fn request_round_trips_and_bit_flip_detected(req in arb_request(), pick in any::<usize>()) {
        let body = codec_props::round_trips(&req, request_body, decode_request);
        let err = codec_props::rejects_bit_flip(&body, 0, pick, decode_request);
        prop_assert_eq!(err, WireError::CrcMismatch);
    }

    /// Same for responses; the harness compares re-encoded bytes, so every
    /// f32 bit pattern (including signed zero) is compared exactly.
    #[test]
    fn response_round_trips_and_bit_flip_detected(resp in arb_response(), pick in any::<usize>()) {
        let body = codec_props::round_trips(&resp, response_body, decode_response);
        let err = codec_props::rejects_bit_flip(&body, 0, pick, decode_response);
        prop_assert_eq!(err, WireError::CrcMismatch);
    }

    /// A `Logits` header whose `rows × cols` promises more than the body
    /// holds is an error — never a panic, never an allocation sized by the
    /// header — whatever the two fields multiply (or overflow) to.
    #[test]
    fn lying_logits_shape_is_an_error(
        rows in any::<u32>(),
        cols in any::<u32>(),
        words in 0usize..16,
    ) {
        prop_assume!((rows as u64) * (cols as u64) != words as u64);
        let mut fields = Vec::new();
        fields.extend_from_slice(&rows.to_le_bytes());
        fields.extend_from_slice(&cols.to_le_bytes());
        fields.resize(fields.len() + words * 4, 0x3f);
        let body = sealed_body(0, &fields);
        let (got, grew) = heap_growth(|| decode_response(&body));
        prop_assert!(
            matches!(got, Err(WireError::Truncated | WireError::Malformed(_))),
            "{}x{} over {} words decoded to {:?}", rows, cols, words, got
        );
        prop_assert!(grew <= body.len() + ALLOC_SLACK, "heap grew {} bytes", grew);
    }

    /// Same for a `Query` whose node count lies.
    #[test]
    fn lying_node_count_is_an_error(n in any::<u32>(), words in 0usize..16) {
        prop_assume!(n as usize != words);
        let mut fields = Vec::new();
        fields.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms
        fields.extend_from_slice(&n.to_le_bytes());
        fields.resize(fields.len() + words * 4, 0x01);
        let body = sealed_body(1, &fields);
        let (got, grew) = heap_growth(|| decode_request(&body));
        prop_assert!(
            matches!(got, Err(WireError::Truncated | WireError::Malformed(_))),
            "n = {} over {} words decoded to {:?}", n, words, got
        );
        prop_assert!(grew <= body.len() + ALLOC_SLACK, "heap grew {} bytes", grew);
    }

    /// Arbitrary terms artifacts round-trip bit-exactly through the
    /// streamed loader (`save` writing the same bytes as `encode` is the
    /// envelope's own test), and a single bit flip anywhere in the file —
    /// header or payload — surfaces as a typed error, never a load. A file
    /// torn at any offset is `Truncated`.
    #[test]
    fn artifact_round_trips_and_damage_detected(mt in arb_artifact(), pick in any::<usize>()) {
        let (meta, terms) = mt;
        let art = TermsArtifact { meta, terms };
        let encode = |a: &TermsArtifact| artifact::encode(&a.meta, &a.terms);
        let bytes = codec_props::round_trips(&art, encode, load_terms);
        codec_props::rejects_bit_flip(&bytes, 0, pick, load_terms);
        for err in codec_props::rejects_every_truncation(&bytes, load_terms) {
            prop_assert_eq!(err, TermsError::Truncated);
        }
    }
}

/// The 26-byte frame that crashed the reply decoder: a `Logits` header with
/// `rows = cols = 2³¹` and no data, correctly sealed. `rows × cols = 2⁶²`
/// fits a `usize`, but the byte count `2⁶² × 4` wrapped to 0 in release
/// builds, passed the length guard, and `Vec::with_capacity(2⁶²)` panicked
/// with "capacity overflow" (debug builds panicked on the multiply).
#[test]
fn logits_header_that_overflows_the_byte_count_is_rejected() {
    let half = (1u32 << 31).to_le_bytes();
    let body = sealed_body(0, &[half, half].concat());
    assert_eq!(4 + body.len(), 26, "length prefix + body");
    let (got, grew) = heap_growth(|| decode_response(&body));
    assert!(matches!(got, Err(WireError::Malformed(_))), "{got:?}");
    assert!(grew <= body.len() + ALLOC_SLACK, "heap grew {grew} bytes");
    // The largest lie that does not overflow: still no allocation.
    let body = sealed_body(0, &[u32::MAX.to_le_bytes(), 1u32.to_le_bytes()].concat());
    let (got, grew) = heap_growth(|| decode_response(&body));
    assert_eq!(got, Err(WireError::Truncated));
    assert!(grew <= body.len() + ALLOC_SLACK, "heap grew {grew} bytes");
}

/// `SGNNCKPT`, `SGNNTERM` and a wire `Logits` frame, byte for byte as the
/// commit before the CRC32 merge wrote them: files on disk and peers on the
/// wire must not notice which implementation sealed them.
#[test]
fn encodings_match_golden_bytes() {
    use sgnn_train::checkpoint::{self, Snapshot, SnapshotStatus};

    let snapshot = Snapshot {
        seed: 42,
        config_tag: 0xDEAD_BEEF,
        status: SnapshotStatus::Periodic,
        epoch_next: 7,
        rng_state: [1, 2, 3, 4],
        best_valid: 0.5,
        best_test: 0.25,
        bad_epochs: 5,
        prop_hops: 140,
        device_peak: 4096,
        train_idx: vec![3, 1],
        params: vec![("w".into(), DMat::from_vec(1, 2, vec![0.5, -1.0]))],
        adam: sgnn_autograd::AdamState {
            t: 7,
            m: vec![DMat::filled(1, 2, 0.1)],
            v: vec![DMat::filled(1, 2, 0.01)],
        },
    };
    assert_eq!(
        checkpoint::encode(&snapshot),
        b"SGNNCKPT\x01\x00\x00\x00\xda\x00\x00\x00\x00\x00\x00\x00\xb3\xdf\
          \x2a\xce\x2a\x00\x00\x00\x00\x00\x00\x00\xef\xbe\xad\xde\x00\x00\
          \x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\
          \x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\
          \x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
          \x00\xe0\x3f\x00\x00\x00\x00\x00\x00\xd0\x3f\x05\x00\x00\x00\x00\
          \x00\x00\x00\x8c\x00\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00\x00\
          \x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x01\
          \x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\
          \x00\x00\x00w\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\
          \x00\x00\x00\x00\x00\x00\x3f\x00\x00\x80\xbf\x07\x00\x00\x00\x00\
          \x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\
          \x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\xcd\xcc\xcc\x3d\xcd\
          \xcc\xcc\x3d\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\
          \x00\x00\x00\x0a\xd7\x23\x3c\x0a\xd7\x23\x3c"
    );

    let meta = ServeMeta {
        filter: "PPR".into(),
        hops: 3,
        hidden: 16,
        dropout: 0.5,
        in_dim: 2,
        num_classes: 3,
        nodes: 2,
        seed: 42,
        config_tag: 0xDEAD_BEEF,
    };
    let terms = vec![vec![DMat::from_vec(2, 2, vec![0.0, 0.5, -1.25, 2.0])]];
    assert_eq!(
        artifact::encode(&meta, &terms),
        b"SGNNTERM\x01\x00\x00\x00w\x00\x00\x00\x00\x00\x00\x00\x14\x25\xcb\
          \xd4\x03\x00\x00\x00\x00\x00\x00\x00PPR\x03\x00\x00\x00\x00\x00\
          \x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x3f\x02\x00\
          \x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\
          \x00\x00\x00\x00\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\xef\xbe\
          \xad\xde\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\
          \x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\
          \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x3f\x00\x00\
          \xa0\xbf\x00\x00\x00\x40"
    );

    let logits = Response::Logits {
        nonce: 1,
        rows: 1,
        cols: 3,
        data: vec![-1.5, f32::MIN_POSITIVE, 1e30],
    };
    assert_eq!(
        encode_response(&logits),
        b"\x22\x00\x00\x00\x02\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\
          \x00\x00\x03\x00\x00\x00\x00\x00\xc0\xbf\x00\x00\x80\x00\xca\xf2Iq\
          \x03\x83\x04m"
    );
}
