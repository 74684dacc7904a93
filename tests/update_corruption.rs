//! Corruption tolerance for the dynamic side: checksummed `.adjbu`
//! update-trace round trips and typed rejection of damaged containers,
//! plus the full dynamic fault matrix under the guard policies — Strict
//! rejects every class with a typed position, Repair keeps TRIÈST-FD's
//! invariants intact batch after batch.

use adjstream::algo::triangle::TriestFd;
use adjstream::graph::{gen, EdgeKey, VertexId};
use adjstream::stream::update::{churn, ChurnConfig, UpdateEvent, UpdateOp, UpdateStream};
use adjstream::stream::FrameError;
use adjstream::stream::{
    is_adjbu, parse_update_bytes, run_guarded_updates, write_adjbu, GuardPolicy, GuardedUpdate,
    UpdateAlgorithm, UpdateFaultKind, UpdateFaultPlan, UpdateTraceError, ADJBU_MAGIC,
    ADJBU_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a raw edge script over a tiny vertex universe — booleans pick
/// insert vs delete. `materialize` keeps only the valid steps, so long
/// scripts still produce long mixed streams (same shape as
/// `tests/dynamic_streams.rs`).
fn update_script(n: u32, len: usize) -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    prop::collection::vec((any::<bool>(), 0..n, 0..n), 1..len)
}

fn materialize(script: &[(bool, u32, u32)]) -> UpdateStream {
    let mut live = std::collections::BTreeSet::new();
    let mut events = Vec::new();
    for (i, &(insert, u, v)) in script.iter().enumerate() {
        if u == v {
            continue;
        }
        let edge = EdgeKey::new(VertexId(u), VertexId(v));
        let valid = if insert {
            live.insert(edge.pack())
        } else {
            live.remove(&edge.pack())
        };
        if valid {
            events.push(UpdateEvent {
                op: if insert {
                    UpdateOp::Insert
                } else {
                    UpdateOp::Delete
                },
                edge,
                ts: i as u64,
            });
        }
    }
    UpdateStream::new(events)
}

/// A churned update stream rich enough for every fault kind's
/// preconditions: live deletions (DeleteDead, CorruptEndpoint), inserts
/// (DuplicateInsert, OpFlip), and strictly increasing timestamps
/// (SwapAdjacent, TimestampRegression).
fn churn_stream(seed: u64) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnm(30, 90, &mut rng);
    let base = churn(
        &g,
        &ChurnConfig {
            churn_events: 260,
            delete_fraction: 0.45,
            seed: seed ^ 0xBEEF,
        },
    );
    // Churn may re-insert everything it deletes; CorruptEndpoint needs a
    // deletion that is its edge's *final* event, so retire a few live
    // edges at the tail.
    let mut events = base.events().to_vec();
    let next_ts = events.last().map_or(0, |e| e.ts) + 1;
    for (ts, edge) in (next_ts..).zip(base.final_edges().into_iter().take(4)) {
        events.push(UpdateEvent {
            op: UpdateOp::Delete,
            edge,
            ts,
        });
    }
    UpdateStream::new(events)
}

fn encode(stream: &UpdateStream) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_adjbu(stream, &mut bytes).unwrap();
    bytes
}

/// Frame header of the container: magic (8) + version (4) + length (8).
/// The checksummed payload (count + 17-byte events) follows, then the u64
/// checksum trailer, so those offsets partition the file into regions
/// with distinct rejection modes.
const HEADER: usize = 8 + 4 + 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless round trip: text → binary → text. The `.adjbu` encoding of
    /// any valid update stream sniffs as binary and decodes to the exact
    /// same event sequence, and the re-rendered text form parses back to
    /// it too.
    #[test]
    fn adjbu_round_trips_any_valid_stream(script in update_script(12, 220)) {
        let stream = materialize(&script);
        let bytes = encode(&stream);
        prop_assert!(is_adjbu(&bytes));
        prop_assert!(bytes.starts_with(&ADJBU_MAGIC));
        let back = parse_update_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.events(), stream.events());

        let mut text = Vec::new();
        stream.write_text(&mut text).unwrap();
        prop_assert!(!is_adjbu(&text));
        let from_text = parse_update_bytes(&text).expect("own text decodes");
        prop_assert_eq!(from_text.events(), stream.events());
    }

    /// Every single-bit flip anywhere in a non-empty container is caught:
    /// flips inside the payload (count + events) or the trailer surface
    /// as `ChecksumMismatch`, a flipped version byte is
    /// `UnsupportedVersion`, and a flipped magic byte demotes the file to
    /// the text path, which rejects the binary payload.
    #[test]
    fn bit_flips_never_decode(
        script in update_script(10, 120),
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let stream = materialize(&script);
        if stream.is_empty() {
            return;
        }
        let mut bytes = encode(&stream);
        let pos = byte_seed as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = parse_update_bytes(&bytes)
            .expect_err("flipped container must not decode");
        if pos >= HEADER {
            // Payload or trailer flip: the stored checksum no longer matches.
            prop_assert!(
                matches!(err, UpdateTraceError::Frame(FrameError::ChecksumMismatch { .. })),
                "payload/trailer flip at {} gave {:?}",
                pos,
                err
            );
        } else if (8..12).contains(&pos) {
            prop_assert!(
                matches!(err, UpdateTraceError::Frame(FrameError::UnsupportedVersion { .. })),
                "version flip at {} gave {:?}",
                pos,
                err
            );
        }
        // Magic flips (0..8) and length flips (12..20) reject with
        // position-dependent variants; `expect_err` above is the contract.
    }

    /// Every truncation that preserves the magic is `Truncated`: whatever
    /// the cut removes — version bytes, the count, event bytes, or part
    /// of the checksum trailer — the reader refuses with the typed error
    /// rather than decoding a prefix.
    #[test]
    fn truncations_are_typed(
        script in update_script(10, 120),
        cut_seed in any::<u64>(),
    ) {
        let stream = materialize(&script);
        let bytes = encode(&stream);
        // Keep the magic so the binary path is taken; cut anywhere after.
        let cut = 8 + cut_seed as usize % (bytes.len() - 8);
        let err = parse_update_bytes(&bytes[..cut])
            .expect_err("truncated container must not decode");
        prop_assert!(
            matches!(err, UpdateTraceError::Frame(FrameError::Truncated)),
            "cut at {} gave {:?}",
            cut,
            err
        );
    }
}

/// An unknown container version is rejected as `UnsupportedVersion`
/// carrying both the found and the supported version — not mis-decoded,
/// not mistaken for corruption.
#[test]
fn future_version_is_rejected_with_both_versions() {
    let bytes = {
        let mut b = encode(&churn_stream(7));
        b[8..12].copy_from_slice(&(ADJBU_VERSION + 1).to_le_bytes());
        b
    };
    match parse_update_bytes(&bytes) {
        Err(UpdateTraceError::Frame(FrameError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, ADJBU_VERSION + 1);
            assert_eq!(supported, ADJBU_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A damaged magic falls back to the text parser, which rejects the
/// binary payload — the file never silently decodes as the wrong format.
#[test]
fn bad_magic_demotes_to_text_and_fails() {
    let mut bytes = encode(&churn_stream(8));
    bytes[0] ^= 0xFF;
    assert!(!is_adjbu(&bytes));
    assert!(parse_update_bytes(&bytes).is_err());
}

/// Strict guarding rejects every dynamic fault class with a typed
/// violation at exactly the injected position — the full 7-kind matrix,
/// across seeds, driving a real TRIÈST-FD instance.
#[test]
fn strict_guard_rejects_every_dynamic_fault_class() {
    for kind in UpdateFaultKind::ALL {
        for seed in 0..4u64 {
            let stream = churn_stream(seed);
            let corrupted = UpdateFaultPlan::new(seed ^ 0xD15EA5E)
                .with(kind, 1)
                .apply(&stream);
            assert!(
                corrupted.skipped().is_empty(),
                "{kind} seed {seed}: churn stream lacked preconditions"
            );
            let mut guard = GuardedUpdate::new(TriestFd::new(seed, 64), GuardPolicy::Strict);
            let violation = run_guarded_updates(corrupted.events(), 32, &mut guard)
                .expect_err(&format!("{kind} seed {seed}: strict must reject"));
            assert_eq!(
                Some(violation.position()),
                corrupted.first_position(),
                "{kind} seed {seed}: violation {violation} at wrong position"
            );
            assert_eq!(
                guard.fatal().map(|v| v.position()),
                Some(violation.position())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repair absorbs a mixed fault barrage while keeping TRIÈST-FD's
    /// structural invariants intact after *every* batch: detections
    /// reconcile exactly against the injection ledger, and the repaired
    /// stream leaves the estimator with a live-edge count equal to the
    /// clean stream's (every injected semantic violation is dropped).
    #[test]
    fn repair_preserves_triest_fd_invariants_per_batch(
        seed in 0u64..500,
        faults in prop::collection::vec(0usize..7, 1..5),
    ) {
        let stream = churn_stream(seed);
        let mut plan = UpdateFaultPlan::new(seed.wrapping_mul(0x9E3779B9));
        for &ix in &faults {
            plan = plan.with(UpdateFaultKind::ALL[ix], 1);
        }
        let corrupted = plan.apply(&stream);
        let mut guard = GuardedUpdate::new(TriestFd::new(seed, 48), GuardPolicy::Repair);
        for chunk in corrupted.events().chunks(24) {
            for ev in chunk {
                guard.apply_event(ev).expect("repair never aborts");
            }
            guard.inner_ref().assert_invariants();
        }
        let stats = guard.stats();
        prop_assert_eq!(stats.events, corrupted.events().len());
        prop_assert_eq!(stats.detections, corrupted.expected_detections());

        // Reference run over the clean stream with the same seed: Repair's
        // drop-and-clamp must leave the same set of live edges behind.
        let mut clean = TriestFd::new(seed, 48);
        for ev in stream.events() {
            clean.apply(ev);
        }
        // OpFlip and CorruptEndpoint remove a real event (a flipped final
        // op, a rewired deletion), so the live set legitimately shifts;
        // compare only when neither was injected.
        if !faults.contains(&3) && !faults.contains(&4) {
            prop_assert_eq!(guard.inner_ref().live_edges(), clean.live_edges());
        }
    }
}
