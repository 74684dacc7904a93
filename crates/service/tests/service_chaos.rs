//! Seeded chaos + overload harness for the resident estimation service.
//!
//! Every injected failure — worker panics, truncated checkpoints, client
//! disconnects, deadline expiry, preemption, drain/restart — must map to
//! a *typed* job state (`queued/running/suspended/degraded/failed/done`)
//! and never wedge the daemon. Overload must produce an immediate typed
//! `Rejected{reason}` while resident state stays bounded.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adjstream_graph::gen;
use adjstream_service::json::{parse, Json};
use adjstream_service::{Server, ServerHandle, ServiceConfig};
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::{AdjListStream, StreamOrder};

/// Harness seed: every job seed below is drawn from this one stream so a
/// failing run is reproducible from a single number.
const HARNESS_SEED: u64 = 0xC4A05;

fn chaos_seed(i: u64) -> u64 {
    let mut x = HARNESS_SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adjsvc-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_trace(dir: &Path) -> PathBuf {
    let g = gen::disjoint_cliques(4, 6);
    let items = AdjListStream::new(&g, StreamOrder::natural(g.vertex_count())).collect_items();
    let trace = ItemTrace::new(items).unwrap();
    let path = dir.join("g.adjb");
    let mut buf = Vec::new();
    trace.write_adjb(&mut buf).unwrap();
    std::fs::write(&path, buf).unwrap();
    path
}

/// Start a server over a fresh state dir with a registered trace `"g"`.
fn start(tag: &str, configure: impl FnOnce(&mut ServiceConfig)) -> (ServerHandle, PathBuf) {
    let dir = tmp_dir(tag);
    let trace = write_trace(&dir);
    let mut cfg = ServiceConfig::at(&dir);
    configure(&mut cfg);
    let socket = cfg.socket.clone();
    let handle = Server::start(cfg).unwrap();
    let reply = req(
        &socket,
        &format!(
            "{{\"op\":\"register\",\"name\":\"g\",\"path\":\"{}\"}}",
            trace.display()
        ),
    );
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    (handle, socket)
}

/// One request line out, one response line back.
fn req(socket: &Path, line: &str) -> Json {
    let stream = UnixStream::connect(socket).expect("daemon socket accepts connections");
    let mut w = stream.try_clone().unwrap();
    writeln!(w, "{line}").unwrap();
    w.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    parse(reply.trim()).expect("daemon speaks valid JSON")
}

fn submit(socket: &Path, extra: &str) -> Json {
    req(
        socket,
        &format!("{{\"op\":\"submit\",\"trace\":\"g\",\"t_lower\":10{extra}}}"),
    )
}

fn job_id(reply: &Json) -> String {
    reply
        .str_field("id")
        .unwrap_or_else(|| panic!("submit reply has an id: {reply}"))
        .to_string()
}

/// Poll `status` until the job is terminal; panics after 60 s.
fn wait_terminal(socket: &Path, id: &str) -> Json {
    let start = Instant::now();
    loop {
        let reply = req(socket, &format!("{{\"op\":\"status\",\"id\":\"{id}\"}}"));
        match reply.str_field("state") {
            Some("done" | "degraded" | "failed") => return reply,
            _ => {
                assert!(
                    start.elapsed() < Duration::from_secs(60),
                    "job {id} did not settle: {reply}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn estimate_bits(reply: &Json) -> String {
    reply
        .get("result")
        .and_then(|r| r.str_field("estimate_bits"))
        .unwrap_or_else(|| panic!("done status carries estimate_bits: {reply}"))
        .to_string()
}

#[test]
fn overload_rejections_are_typed_immediate_and_bounded() {
    let (handle, socket) = start("overload", |cfg| {
        cfg.workers = 1;
        cfg.max_jobs = 3;
        cfg.memory_budget = Some(1000);
    });

    // Unknown traces are rejected before any admission accounting.
    let reply = req(&socket, "{\"op\":\"submit\",\"trace\":\"nope\"}");
    assert_eq!(reply.str_field("reason"), Some("unknown_trace"), "{reply}");

    // A job declaring more bytes than the daemon-wide budget is rejected.
    let a = submit(
        &socket,
        &format!(
            ",\"seed\":{},\"delay_ms_per_pass\":250,\"max_total_bytes\":800",
            chaos_seed(1)
        ),
    );
    assert_eq!(a.str_field("state"), Some("queued"), "{a}");
    let reply = submit(&socket, ",\"max_total_bytes\":800");
    assert_eq!(reply.str_field("reason"), Some("memory_budget"), "{reply}");

    // Fill the residency cap, then overload: the rejection must be typed
    // and immediate (no blocking on the running jobs, which take ~500 ms).
    for i in 2..4 {
        let ok = submit(
            &socket,
            &format!(",\"seed\":{},\"delay_ms_per_pass\":250", chaos_seed(i)),
        );
        assert_eq!(ok.str_field("state"), Some("queued"), "{ok}");
    }
    let before = Instant::now();
    let reply = submit(&socket, ",\"delay_ms_per_pass\":250");
    assert_eq!(reply.str_field("reason"), Some("too_many_jobs"), "{reply}");
    assert_eq!(reply.str_field("error"), Some("rejected"));
    assert!(
        before.elapsed() < Duration::from_millis(500),
        "rejection blocked for {:?}",
        before.elapsed()
    );

    // Resident (non-terminal) jobs never exceed the admission cap.
    let listing = req(&socket, "{\"op\":\"status\"}");
    let resident = listing
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|j| !matches!(j.str_field("state"), Some("done" | "degraded" | "failed")))
        .count();
    assert!(
        resident <= 3,
        "residency {resident} exceeds max_jobs: {listing}"
    );

    // A burst of rapid submissions only ever yields typed outcomes.
    let mut rejected = 0;
    for i in 0..40 {
        let reply = submit(&socket, &format!(",\"seed\":{}", chaos_seed(100 + i)));
        if reply.get("ok") == Some(&Json::Bool(true)) {
            assert_eq!(reply.str_field("state"), Some("queued"));
        } else {
            rejected += 1;
            let reason = reply
                .str_field("reason")
                .unwrap_or_else(|| panic!("untyped rejection: {reply}"));
            assert!(
                ["queue_full", "too_many_jobs", "memory_budget"].contains(&reason),
                "unexpected reason {reason}"
            );
        }
    }
    assert!(rejected > 0, "the burst never tripped admission control");
    let counters = handle.counters();
    assert!(counters.rejected >= rejected + 2);
    handle.shutdown();
}

#[test]
fn injected_worker_panic_maps_to_typed_failure() {
    let (handle, socket) = start("panic", |cfg| cfg.workers = 1);
    let reply = submit(
        &socket,
        &format!(",\"seed\":{},\"panic_in_pass\":1", chaos_seed(10)),
    );
    let id = job_id(&reply);
    let settled = wait_terminal(&socket, &id);
    assert_eq!(settled.str_field("state"), Some("failed"), "{settled}");
    assert_eq!(
        settled.str_field("reason"),
        Some("worker_panic"),
        "{settled}"
    );

    // The pool survives the panic: the next job on the same worker runs.
    let reply = submit(&socket, &format!(",\"seed\":{}", chaos_seed(11)));
    let settled = wait_terminal(&socket, &job_id(&reply));
    assert_eq!(settled.str_field("state"), Some("done"), "{settled}");
    let counters = handle.shutdown();
    assert_eq!(counters.failed, 1);
    assert_eq!(counters.completed, 1);
}

/// The unsharded job and the graph-sharded one (`shards > 1`) cross the
/// same job boundaries, so the boundary tests run both.
const SHARDINGS: [&str; 2] = ["", ",\"shards\":2"];

#[test]
fn deadline_expiry_maps_to_typed_failure() {
    let (handle, socket) = start("deadline", |cfg| cfg.workers = 1);
    for shards in SHARDINGS {
        let reply = submit(
            &socket,
            &format!(
                ",\"seed\":{},\"delay_ms_per_pass\":200,\"deadline_ms\":50{shards}",
                chaos_seed(20)
            ),
        );
        let settled = wait_terminal(&socket, &job_id(&reply));
        assert_eq!(settled.str_field("state"), Some("failed"), "{settled}");
        assert_eq!(settled.str_field("reason"), Some("deadline"), "{settled}");
    }
    handle.shutdown();
}

#[test]
fn cancel_maps_to_typed_failure() {
    let (handle, socket) = start("cancel", |cfg| cfg.workers = 1);
    for shards in SHARDINGS {
        let reply = submit(
            &socket,
            &format!(
                ",\"seed\":{},\"delay_ms_per_pass\":400{shards}",
                chaos_seed(30)
            ),
        );
        let id = job_id(&reply);
        let reply = req(&socket, &format!("{{\"op\":\"cancel\",\"id\":\"{id}\"}}"));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let settled = wait_terminal(&socket, &id);
        assert_eq!(settled.str_field("state"), Some("failed"), "{settled}");
        assert_eq!(settled.str_field("reason"), Some("cancelled"), "{settled}");
    }
    handle.shutdown();
}

#[test]
fn client_disconnect_mid_job_is_tolerated() {
    let (handle, socket) = start("disconnect", |cfg| cfg.workers = 1);
    // Submit over a connection that is dropped without reading the reply —
    // the daemon must neither crash nor abandon the job.
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = stream.try_clone().unwrap();
        writeln!(
            w,
            "{{\"op\":\"submit\",\"trace\":\"g\",\"t_lower\":10,\"seed\":{},\"delay_ms_per_pass\":100}}",
            chaos_seed(40)
        )
        .unwrap();
        w.flush().unwrap();
        // connection dropped here, mid-response
    }
    // The job is visible from a fresh connection and runs to completion.
    let start = Instant::now();
    loop {
        let listing = req(&socket, "{\"op\":\"status\"}");
        let jobs = listing.get("jobs").and_then(Json::as_arr).unwrap().to_vec();
        if jobs.iter().any(|j| j.str_field("state") == Some("done")) {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "orphaned job never settled: {listing}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters = handle.shutdown();
    assert_eq!(counters.completed, 1);
}

#[test]
fn preemption_suspends_and_resumes_lower_priority_work() {
    let (handle, socket) = start("preempt", |cfg| cfg.workers = 1);
    let low = submit(
        &socket,
        &format!(
            ",\"seed\":{},\"priority\":2,\"delay_ms_per_pass\":300",
            chaos_seed(50)
        ),
    );
    let low_id = job_id(&low);
    // Let the low-priority job occupy the only worker, then outrank it.
    std::thread::sleep(Duration::from_millis(80));
    let high = submit(
        &socket,
        &format!(",\"seed\":{},\"priority\":8", chaos_seed(51)),
    );
    let high_done = wait_terminal(&socket, &job_id(&high));
    assert_eq!(high_done.str_field("state"), Some("done"), "{high_done}");
    let low_done = wait_terminal(&socket, &low_id);
    assert_eq!(low_done.str_field("state"), Some("done"), "{low_done}");
    let counters = handle.shutdown();
    assert!(
        counters.suspended >= 1,
        "the low-priority job was never preempted: {counters:?}"
    );
}

#[test]
fn drain_restart_resumes_bit_identical_and_truncation_recomputes() {
    for shards in SHARDINGS {
        // Uninterrupted baseline for this (trace, seed, t_lower) triple.
        let seed = chaos_seed(60);
        let (handle, socket) = start("ckpt-base", |cfg| cfg.workers = 1);
        let reply = submit(&socket, &format!(",\"seed\":{seed}{shards}"));
        let baseline = estimate_bits(&wait_terminal(&socket, &job_id(&reply)));
        handle.shutdown();

        // Interrupted run: drain once the pass-boundary checkpoint exists.
        let (handle, socket) = start("ckpt", |cfg| cfg.workers = 1);
        let dir = socket.parent().unwrap().to_path_buf();
        let reply = submit(
            &socket,
            &format!(",\"seed\":{seed},\"delay_ms_per_pass\":300{shards}"),
        );
        let id = job_id(&reply);
        let ckpt = dir.join(format!("job-{id}.ckpt"));
        let start = Instant::now();
        while !ckpt.exists() {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "boundary checkpoint never appeared"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let counters = handle.shutdown();
        assert!(
            counters.suspended >= 1,
            "drain suspended nothing: {counters:?}"
        );
        let manifest = std::fs::read_to_string(dir.join(format!("job-{id}.json"))).unwrap();
        let manifest = parse(&manifest).expect("manifests are JSON");
        assert_eq!(manifest.str_field("state"), Some("suspended"), "{manifest}");
        assert_eq!(manifest.str_field("reason"), Some("drain"), "{manifest}");

        // Restart: recovery requeues the suspended job; the resumed estimate
        // must be bit-for-bit the uninterrupted one.
        let mut cfg = ServiceConfig::at(&dir);
        cfg.workers = 1;
        let socket = cfg.socket.clone();
        let handle = Server::start(cfg).unwrap();
        let resumed = wait_terminal(&socket, &id);
        assert_eq!(resumed.str_field("state"), Some("done"), "{resumed}");
        assert_eq!(estimate_bits(&resumed), baseline, "resume diverged");
        let resumed_from = resumed.get("result").and_then(|r| r.get("resumed_from"));
        assert!(
            resumed_from.and_then(Json::as_u64).is_some(),
            "the drained job resumes from its checkpoint: {resumed}"
        );
        let counters = handle.counters();
        assert_eq!(counters.recovered, 1);
        assert_eq!(counters.resumed, 1);

        // Now corrupt a checkpoint: drain another job mid-flight, truncate its
        // checkpoint, and restart. The damaged file must be discarded and the
        // job recomputed from scratch — same bits, no resume.
        let reply = submit(
            &socket,
            &format!(",\"seed\":{seed},\"delay_ms_per_pass\":300{shards}"),
        );
        let id2 = job_id(&reply);
        let ckpt2 = dir.join(format!("job-{id2}.ckpt"));
        let start = Instant::now();
        while !ckpt2.exists() {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "second boundary checkpoint never appeared"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let bytes = std::fs::read(&ckpt2).unwrap();
        std::fs::write(&ckpt2, &bytes[..bytes.len() / 2]).unwrap();

        let mut cfg = ServiceConfig::at(&dir);
        cfg.workers = 1;
        let socket = cfg.socket.clone();
        let handle = Server::start(cfg).unwrap();
        let recomputed = wait_terminal(&socket, &id2);
        assert_eq!(recomputed.str_field("state"), Some("done"), "{recomputed}");
        assert_eq!(estimate_bits(&recomputed), baseline, "recompute diverged");
        let resumed_from = recomputed
            .get("result")
            .and_then(|r| r.get("resumed_from"))
            .cloned();
        assert_eq!(
            resumed_from,
            Some(Json::Null),
            "a truncated checkpoint must not be resumed from"
        );
        handle.shutdown();
    }
}

#[test]
fn sharded_triangle_jobs_are_shard_count_invariant() {
    let (handle, socket) = start("sharded", |cfg| {
        cfg.workers = 1;
    });

    // A zero shard count is a typed protocol error, not a wedge.
    let reply = submit(&socket, ",\"shards\":0");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");

    // The same seeded job at 2, 4, and 8 shards must settle done with
    // bit-identical estimates: the shard merge is exact, so N is purely a
    // deployment knob.
    let seed = chaos_seed(77);
    let mut bits = Vec::new();
    for shards in [2u64, 4, 8] {
        let reply = submit(&socket, &format!(",\"seed\":{seed},\"shards\":{shards}"));
        assert_eq!(reply.str_field("state"), Some("queued"), "{reply}");
        let done = wait_terminal(&socket, &job_id(&reply));
        assert_eq!(done.str_field("state"), Some("done"), "{done}");
        bits.push(estimate_bits(&done));
    }
    assert_eq!(bits[0], bits[1], "2 shards vs 4 shards");
    assert_eq!(bits[1], bits[2], "4 shards vs 8 shards");
    handle.shutdown();
}

#[test]
fn validate_jobs_report_the_certified_edge_count() {
    let (handle, socket) = start("validate", |cfg| cfg.workers = 1);
    let g = gen::disjoint_cliques(4, 6);
    let edges = g.edge_count();
    let reply = submit(&socket, ",\"kind\":\"validate\"");
    let done = wait_terminal(&socket, &job_id(&reply));
    assert_eq!(done.str_field("state"), Some("done"), "{done}");
    assert_eq!(
        estimate_bits(&done),
        format!("{:016x}", (edges as f64).to_bits()),
        "{done}"
    );
    handle.shutdown();
}

#[test]
fn deeply_nested_request_is_a_bad_request_not_an_abort() {
    let (handle, socket) = start("nested", |cfg| cfg.workers = 1);
    // 100,000 nested arrays: parsed by recursion, this line would
    // overflow the connection thread's stack and abort the daemon.
    let line = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let reply = req(&socket, &line);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(reply.str_field("error"), Some("bad_request"), "{reply}");
    let pong = req(&socket, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    handle.shutdown();
}

#[test]
fn unterminated_request_line_is_a_bad_request_not_a_buffer() {
    let (handle, socket) = start("longline", |cfg| cfg.workers = 1);
    let stream = UnixStream::connect(&socket).unwrap();
    let mut w = stream.try_clone().unwrap();
    // 8 MiB and no newline. The daemon stops reading at its line limit,
    // answers and closes, so the rest of the write may fail.
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..128 {
            if w.write_all(&chunk).is_err() {
                return;
            }
        }
        let _ = w.flush();
    });
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    let reply = parse(reply.trim()).expect("daemon speaks valid JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(reply.str_field("error"), Some("bad_request"), "{reply}");
    sender.join().unwrap();
    let pong = req(&socket, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    handle.shutdown();
}
