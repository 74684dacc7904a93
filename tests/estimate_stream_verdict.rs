//! `estimate-stream` without a guard policy validates the trace while its
//! two passes run, then acts on the verdict before printing anything. On
//! every seeded corruption it must decide what `validate-stream --mode
//! offline` decides: exit 3 with empty stdout and the same violation on an
//! invalid trace, or the same edge count on a valid one. A read that
//! needed retries earns its stderr note only once the trace is found
//! valid, as when validation ran inside the read.
//!
//! The graph-sharded variant is driven through the binary too, so both
//! shard modes are covered: thread workers and `--shard-procs` worker
//! processes must print the 1-shard estimate, write the same metrics up
//! to wall time, reject a corrupt mmapped trace identically, and leave
//! nothing behind in the temp directory.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "common/relabel.rs"]
mod relabel;

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::gen;
use adjstream::stream::trace::retry_note;
use adjstream::stream::{
    run_slice_passes_validated, validate_slice, AdjListStream, FaultKind, FaultPlan, ItemTrace,
    Metrics, StreamItem, StreamOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relabel::relabel_ids;

const EXIT_INVALID_STREAM: i32 = 3;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adjstream_cli"))
        .args(args)
        .output()
        .expect("run adjstream_cli")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adjstream-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_text_trace(path: &Path, items: &[StreamItem]) {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    for it in items {
        writeln!(w, "{} {}", it.src, it.dst).unwrap();
    }
    w.flush().unwrap();
}

/// The first stderr line's text after its last `": "`: the violation
/// itself, whichever command's prefix precedes it.
fn violation(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let first = text.lines().next().unwrap_or_default();
    first.rsplit(": ").next().unwrap_or_default().to_string()
}

#[test]
fn estimate_stream_rejects_what_the_offline_checker_rejects() {
    let dir = tmp_dir("estimate-verdict");
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::gnm(40, 160, &mut rng);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(40, 9)).collect_items();
    let composed = FaultKind::ALL
        .iter()
        .fold(FaultPlan::new(11), |plan, &kind| plan.with(kind, 1));
    let plans = FaultKind::ALL
        .iter()
        .map(|&kind| (kind.name().to_string(), FaultPlan::new(11).with(kind, 1)))
        .chain([("composed".to_string(), composed)]);
    let mut rejected = 0;
    for (name, plan) in plans {
        let corrupted = plan.apply(&items).items().to_vec();
        for relabel in [false, true] {
            let trace = if relabel {
                relabel_ids(&corrupted, 17)
            } else {
                corrupted.clone()
            };
            let case = format!("{name}{}", if relabel { " relabelled" } else { "" });
            let path = dir.join("trace.txt");
            write_text_trace(&path, &trace);
            let path = path.to_str().unwrap();
            let offline = cli(&["validate-stream", path, "--mode", "offline"]);
            let estimate = cli(&["estimate-stream", path, "--budget", "40", "--seed", "5"]);
            let stderr = String::from_utf8_lossy(&estimate.stderr);
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
            match validate_slice(&trace) {
                Err(want) => {
                    rejected += 1;
                    assert_eq!(offline.status.code(), Some(EXIT_INVALID_STREAM), "{case}");
                    assert_eq!(
                        estimate.status.code(),
                        Some(EXIT_INVALID_STREAM),
                        "{case}: {stderr}"
                    );
                    assert!(
                        estimate.stdout.is_empty(),
                        "{case}: printed before the verdict"
                    );
                    assert_eq!(violation(&offline.stderr), want.to_string(), "{case}");
                    assert_eq!(violation(&estimate.stderr), want.to_string(), "{case}");
                }
                Ok(edges) => {
                    assert!(offline.status.success(), "{case}");
                    assert!(estimate.status.success(), "{case}: {stderr}");
                    let stdout = String::from_utf8_lossy(&estimate.stdout);
                    let line = format!("{} items, {edges} edges (validated)", trace.len());
                    assert!(stdout.contains(&line), "{case}: {stdout}");
                }
            }
        }
    }
    // Every stream-level kind and the composed plan break the promise;
    // only the replay-only reorder fault leaves pass 0 valid.
    assert_eq!(rejected, 2 * FaultKind::ALL.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retry_note_waits_for_a_valid_verdict() {
    let cfg = TwoPassTriangleConfig {
        seed: 5,
        edge_sampling: EdgeSampling::BottomK { k: 4 },
        pair_capacity: 4,
    };
    // A valid trace and one missing the reverse of 0→2, each decoded
    // without validation by a load that needed a second attempt.
    for (text, valid) in [
        (&b"0 1\n0 2\n1 0\n2 0\n"[..], true),
        (b"0 1\n0 2\n1 0\n", false),
    ] {
        let trace = ItemTrace::from_bytes_unchecked(text).expect("decodes");
        let attempts = 2;
        let verdict = run_slice_passes_validated(
            TwoPassTriangle::new(cfg),
            trace.items(),
            &Metrics::disabled(),
        );
        assert_eq!(verdict.is_ok(), valid);
        let note = retry_note(attempts, verdict.is_ok());
        if valid {
            assert_eq!(
                note.as_deref(),
                Some("note: read succeeded after 2 attempts")
            );
        } else {
            assert_eq!(note, None, "an invalid trace reports its error alone");
        }
    }
    assert_eq!(
        retry_note(1, true),
        None,
        "a first-attempt read earns no note"
    );
}

/// `estimate-stream` run with `TMPDIR` pointed at `tmp`, which must still
/// be empty when the run exits.
fn cli_in_tmp(tmp: &Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_adjstream_cli"))
        .arg("estimate-stream")
        .args(args)
        .env("TMPDIR", tmp)
        .output()
        .expect("run adjstream_cli");
    let left: Vec<_> = std::fs::read_dir(tmp).unwrap().collect();
    assert!(left.is_empty(), "{args:?} left {left:?} in TMPDIR");
    out
}

/// The `estimate` line of a run's stdout.
fn estimate_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("estimate "));
    line.unwrap_or_else(|| panic!("no estimate line in {stdout}"))
        .to_string()
}

/// Metrics JSON with every `"wall_nanos"` value zeroed: the one field the
/// two shard modes measure differently.
fn mask_walls(json: &str) -> String {
    const KEY: &str = "\"wall_nanos\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c == ' ' || c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn shard_modes_agree_through_the_binary() {
    let dir = tmp_dir("shard-modes");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let mut rng = StdRng::seed_from_u64(19);
    let g = gen::gnm(1000, 4000, &mut rng);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(1000, 3)).collect_items();
    let trace = dir.join("trace.adjb");
    let mut f = std::fs::File::create(&trace).unwrap();
    ItemTrace::new_unchecked(items).write_adjb(&mut f).unwrap();
    drop(f);
    let trace = trace.to_str().unwrap();
    let common = ["--budget", "40", "--seed", "5"];

    let one = cli_in_tmp(&tmp, &[&[trace][..], &common, &["--shards", "1"]].concat());
    assert!(one.status.success());
    let want = estimate_line(&one);
    for mmap in [false, true] {
        for repair in [false, true] {
            let mut metrics = Vec::new();
            for procs in [false, true] {
                let case = format!("procs={procs} mmap={mmap} repair={repair}");
                let out_path = dir.join(format!("metrics-{procs}.json"));
                let mut args = vec![trace, "--shards", "4", "--metrics-out"];
                args.push(out_path.to_str().unwrap());
                args.extend(common);
                if procs {
                    args.push("--shard-procs");
                }
                if mmap {
                    args.push("--mmap");
                }
                if repair {
                    args.extend(["--policy", "repair"]);
                }
                let out = cli_in_tmp(&tmp, &args);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(out.status.success(), "{case}: {stderr}");
                assert_eq!(estimate_line(&out), want, "{case}");
                metrics.push(mask_walls(&std::fs::read_to_string(&out_path).unwrap()));
            }
            assert_eq!(metrics[0], metrics[1], "mmap={mmap} repair={repair}");
        }
    }

    // A flipped payload byte: the most significant byte of an item's
    // source id, so the checksum cannot survive it. Deferred verification
    // rejects it at the first pass boundary in both modes.
    let bad = dir.join("bad.adjb");
    let mut bytes = std::fs::read(trace).unwrap();
    bytes[103] ^= 0xFF;
    std::fs::write(&bad, bytes).unwrap();
    let bad = bad.to_str().unwrap();
    let rejected: Vec<Output> = [&[][..], &["--shard-procs"]]
        .iter()
        .map(|mode| {
            let args = [&[bad, "--shards", "4", "--mmap"][..], &common, mode].concat();
            cli_in_tmp(&tmp, &args)
        })
        .collect();
    for out in &rejected {
        assert_eq!(out.status.code(), Some(EXIT_INVALID_STREAM));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("aborted at pass 0 boundary: "), "{stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("estimate "));
    }
    assert_eq!(rejected[0].stderr, rejected[1].stderr);
    std::fs::remove_dir_all(&dir).ok();
}
