//! Property tests for the checkpoint binary format: arbitrary snapshots must
//! round-trip bit-exactly through `encode`/`decode`, every truncation of an
//! encoded snapshot must be rejected with a typed error (torn writes), and
//! any single corrupted bit or trailing byte must be caught — the guarantees
//! the warm-restart ladder builds on. The properties themselves are the
//! shared codec harness; this file feeds it snapshots.

#[path = "../../dense/tests/support/codec_props.rs"]
mod codec_props;

use proptest::prelude::*;
use sgnn_autograd::AdamState;
use sgnn_dense::DMat;
use sgnn_train::checkpoint::{decode, encode};
use sgnn_train::{Snapshot, SnapshotStatus};

/// One parameter matrix: dims in `1..4` plus a flat value pool wide enough
/// for the largest shape (the compat proptest has no `prop_flat_map`).
fn arb_param() -> impl Strategy<Value = (String, DMat)> {
    let name = proptest::collection::vec(32u8..127, 0..12)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>());
    (
        name,
        1usize..4,
        1usize..4,
        proptest::collection::vec(-10.0f32..10.0, 9..10),
    )
        .prop_map(|(name, r, c, pool)| (name, DMat::from_fn(r, c, |i, j| pool[i * 3 + j])))
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec(arb_param(), 0..4),
        (
            1u64..u64::MAX,
            1u64..u64::MAX,
            1u64..u64::MAX,
            1u64..u64::MAX,
        ),
        (any::<u64>(), any::<u64>(), 0usize..10_000, 0usize..1_000),
        (-1.0f64..1.0, -1.0f64..1.0),
        (0usize..500, 0usize..usize::MAX / 2, any::<u64>()),
        proptest::collection::vec(0u32..100_000, 0..16),
    )
        .prop_map(
            |(
                params,
                (r0, r1, r2, r3),
                (seed, config_tag, epoch_next, bad_epochs),
                (best_valid, best_test),
                (prop_hops, device_peak, t),
                train_idx,
            )| {
                // Adam moments mirror the parameter shapes, as a live
                // optimizer would produce.
                let m: Vec<DMat> = params.iter().map(|(_, p)| p.clone()).collect();
                let v = m.clone();
                Snapshot {
                    seed,
                    config_tag,
                    status: SnapshotStatus::Periodic,
                    epoch_next,
                    rng_state: [r0, r1, r2, r3],
                    best_valid,
                    best_test,
                    bad_epochs,
                    prop_hops,
                    device_peak,
                    train_idx,
                    params,
                    adam: AdamState { t, m, v },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(s)) == s` for arbitrary snapshots — every field,
    /// including f64 metrics and f32 matrices, comes back bit-for-bit — and
    /// a file torn at ANY byte offset, header included, is rejected with a
    /// typed error: the crash signature an interrupted write leaves behind.
    #[test]
    fn snapshot_round_trips_and_no_prefix_decodes(snap in arb_snapshot()) {
        let bytes = codec_props::round_trips(&snap, encode, decode);
        codec_props::rejects_every_truncation(&bytes, decode);
    }

    /// Flipping any single bit anywhere in the file is caught (header
    /// fields by their own checks, payload bytes by the CRC), and so is
    /// trailing garbage — a snapshot must consume its file exactly.
    #[test]
    fn bit_flips_and_trailing_bytes_are_rejected(
        snap in arb_snapshot(),
        pick in any::<usize>(),
        extra in 1usize..16,
    ) {
        let bytes = encode(&snap);
        codec_props::rejects_bit_flip(&bytes, 0, pick, decode);
        codec_props::rejects_trailing_bytes(&bytes, extra, decode);
    }
}
