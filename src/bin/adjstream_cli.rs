//! `adjstream-cli` — command-line access to the library: generate
//! workloads, inspect graphs, count cycles exactly, estimate them in the
//! streaming model, dump and validate adjacency-list streams, and emit
//! lower-bound gadgets.
//!
//! ```text
//! adjstream-cli gen gnm --n 1000 --m 5000 --seed 1 -o g.txt
//! adjstream-cli info g.txt
//! adjstream-cli count g.txt --kind triangles
//! adjstream-cli estimate g.txt --kind triangles --epsilon 0.2 --delta 0.1
//! adjstream-cli stream g.txt --seed 3 -o items.txt
//! adjstream-cli validate-stream items.txt --mode online
//! adjstream-cli corrupt items.txt --seed 7 --faults drop-direction:2,self-loop -o bad.txt
//! adjstream-cli estimate-stream bad.txt --policy repair
//! adjstream-cli gadget fig-e --ell 6 --r 100 --t 16 --answer yes -o gadget.txt
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use adjstream::algo::estimate::{
    theoretical_space_budget, try_estimate_four_cycles, try_estimate_triangles,
    try_estimate_triangles_auto, try_estimate_triangles_checkpointed, Accuracy, CountEstimate,
    EstimateError,
};
use adjstream::algo::triangle::ShardedTriangle;
use adjstream::graph::analysis::{connected_components, degeneracy, DegreeStats};
use adjstream::graph::io::{load_edge_list, write_edge_list};
use adjstream::graph::{exact, gen, Graph};
use adjstream::lowerbound::gadgets as gd;
use adjstream::lowerbound::problems::{Disj3Instance, DisjInstance, Pj3Instance};
use adjstream::service::json::{self as sjson, Json};
use adjstream::stream::batch::Budget;
use adjstream::stream::checkpoint::{read_checkpoint_file, write_checkpoint_file};
use adjstream::stream::shard::{decode_shard_payload, ShardPassOutput};
use adjstream::stream::trace::{read_trace_file_with_retry, retry_note, ItemTrace, RetryError};
use adjstream::stream::{
    validate_slice, AdjListStream, GuardPolicy, RunError, RunReport, ShardError, StreamItem,
    StreamOrder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exit code for malformed invocations (bad flags, unknown commands).
const EXIT_USAGE: u8 = 2;
/// Exit code for streams that violate the adjacency-list promise.
const EXIT_INVALID_STREAM: u8 = 3;
/// Exit code for degraded runs (survivors below the required quorum).
const EXIT_DEGRADED: u8 = 4;
/// Exit code for space-budget violations.
const EXIT_SPACE: u8 = 5;
/// Exit code for missed wall-clock deadlines.
const EXIT_DEADLINE: u8 = 6;
/// Exit code for checkpoint write/read/apply failures.
const EXIT_CHECKPOINT: u8 = 7;
/// Exit code for I/O failures (missing files, exhausted retries).
const EXIT_IO: u8 = 8;

/// A classified CLI failure: a stable exit code, a machine-readable kind,
/// and a human message. Printed to stderr both as `error: <message>` and as
/// a one-line JSON object so scripts can branch without parsing prose.
#[derive(Debug)]
struct CliFailure {
    exit: u8,
    kind: &'static str,
    message: String,
}

impl CliFailure {
    fn new(exit: u8, kind: &'static str, message: impl Into<String>) -> Self {
        CliFailure {
            exit,
            kind,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        Self::new(EXIT_USAGE, "usage", message)
    }

    fn invalid_stream(message: impl Into<String>) -> Self {
        Self::new(EXIT_INVALID_STREAM, "invalid-stream", message)
    }

    fn io(message: impl Into<String>) -> Self {
        Self::new(EXIT_IO, "io", message)
    }

    /// The one-line machine-readable form.
    fn json(&self) -> String {
        let error = sjson::obj(vec![
            ("kind", Json::Str(self.kind.into())),
            ("exit", Json::Num(self.exit.into())),
            ("message", Json::Str(self.message.clone())),
        ]);
        sjson::obj(vec![("error", error)]).to_string()
    }
}

impl From<String> for CliFailure {
    fn from(message: String) -> Self {
        CliFailure::usage(message)
    }
}

impl From<&str> for CliFailure {
    fn from(message: &str) -> Self {
        CliFailure::usage(message.to_string())
    }
}

impl From<EstimateError> for CliFailure {
    fn from(e: EstimateError) -> Self {
        let (exit, kind) = match &e {
            EstimateError::Degraded(_) => (EXIT_DEGRADED, "degraded"),
            EstimateError::Run(r) => match r {
                RunError::DeadlineExceeded { .. } => (EXIT_DEADLINE, "deadline"),
                RunError::SpaceBudgetExceeded { .. } => (EXIT_SPACE, "space-budget"),
                RunError::Checkpoint { .. } => (EXIT_CHECKPOINT, "checkpoint"),
                RunError::Invalid { .. } => (EXIT_INVALID_STREAM, "invalid-stream"),
                _ => (EXIT_USAGE, "usage"),
            },
        };
        CliFailure::new(exit, kind, e.to_string())
    }
}

impl From<RetryError> for CliFailure {
    fn from(e: RetryError) -> Self {
        match &e {
            RetryError::Permanent(inner) => match inner {
                adjstream::stream::trace::TraceError::Io(_) => CliFailure::io(e.to_string()),
                _ => CliFailure::invalid_stream(e.to_string()),
            },
            RetryError::GaveUp { .. } => CliFailure::io(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`adjstream-cli ... | head`):
    // Rust panics on EPIPE by default, which would print a backtrace for a
    // completely normal shell pattern.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned();
        if msg.as_deref().is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            eprintln!("{}", failure.json());
            if failure.exit == EXIT_USAGE {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(failure.exit)
        }
    }
}

const USAGE: &str = "usage:
  adjstream-cli gen <gnm|gnp|ba|chung-lu|cliques|bipartite|plane|planted-triangles|planted-c4> [--key value ...] -o FILE
  adjstream-cli info FILE
  adjstream-cli count FILE --kind <triangles|c4|cycles> [--len L]
  adjstream-cli estimate FILE --kind <triangles|c4> [--epsilon E] [--delta D] [--t-lower T] [--seed S]
                [--max-bytes N|auto] [--max-total-bytes N] [--deadline-secs S]
                [--min-survivors Q] [--checkpoint-dir DIR] [--resume] [--job-id N]
                [--checkpoint-retention-secs S] [--metrics-out FILE] [--threads N]
  adjstream-cli stream FILE [--seed S] [-o FILE]
  adjstream-cli validate-stream FILE [--mode offline|online|bounded] [--seed S] [--window W] [--retries N]
  adjstream-cli corrupt FILE --faults KIND[:N][,KIND[:N]...] [--seed S] [-o FILE] [--replay-o FILE]
  adjstream-cli estimate-stream FILE [--budget K] [--seed S] [--policy strict|repair|observe] [--retries N]
                [--metrics-out FILE] [--shards N] [--shard-procs] [--mmap]
  adjstream-cli import-edges EDGES.txt -o FILE.adjb [--seed S] [--buckets B]
                [--dups drop|keep|error] [--self-loops drop|keep|error] [--json]
  adjstream-cli gen-updates FILE [--churn N] [--delete-fraction F] [--seed S] [-o FILE]
                [--format text|adjbu]
  adjstream-cli update-stream FILE [--batch B] [--capacity M] [--seed S] [--verify]
                [--window W] [--stride D] [--epsilon E] [--delta D] [--exact-windows]
  adjstream-cli convert-trace FILE -o FILE [--format adjb|text]
  adjstream-cli convert-updates FILE -o FILE [--format adjbu|text]
  adjstream-cli gadget <fig-a|fig-b|fig-c|fig-d|fig-e> [--key value ...] [--answer yes|no] [-o FILE]

daemon client (requires a running adjstreamd; all take --socket PATH):
  adjstream-cli register FILE --name NAME --socket SOCK
  adjstream-cli submit --socket SOCK --trace NAME [--kind triangles|c4|validate|update] [--t-lower T]
                [--epsilon E] [--delta D] [--seed S] [--priority P] [--min-survivors Q] [--shards N]
                [--deadline-ms MS] [--max-bytes N] [--max-total-bytes N] [--wait] [--poll-ms MS]
                [--batch-size B] [--capacity M] [--guard strict|repair|observe]  (update jobs)
  adjstream-cli status --socket SOCK [--id ID]
  adjstream-cli cancel --socket SOCK --id ID

fault kinds: drop-direction duplicate-item split-list self-loop corrupt-vertex truncate-tail reorder-pass
exit codes: 0 ok | 2 usage | 3 invalid-stream | 4 degraded | 5 space-budget | 6 deadline | 7 checkpoint | 8 io";

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &[
    "resume",
    "wait",
    "verify",
    "exact-windows",
    "shard-procs",
    "mmap",
    "json",
];

/// Parse `--key value` flags (plus `-o` and valueless booleans).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| (args[i] == "-o").then_some("o"))
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{key} {v:?}")),
    }
}

fn run(args: &[String]) -> Result<(), CliFailure> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliFailure::usage("missing command"))?;
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "info" => cmd_info(rest),
        "count" => cmd_count(rest),
        "estimate" => cmd_estimate(rest),
        "stream" => cmd_stream(rest),
        "validate-stream" => cmd_validate_stream(rest),
        "corrupt" => cmd_corrupt(rest),
        "estimate-stream" => cmd_estimate_stream(rest),
        "import-edges" => cmd_import_edges(rest),
        // Hidden: one shard x one pass, spawned by `estimate-stream
        // --shard-procs`. Not part of the public surface.
        "shard-worker" => cmd_shard_worker(rest),
        "gen-updates" => cmd_gen_updates(rest),
        "update-stream" => cmd_update_stream(rest),
        "convert-trace" => cmd_convert_trace(rest),
        "convert-updates" => cmd_convert_updates(rest),
        "gadget" => cmd_gadget(rest),
        "register" => cmd_register(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_cancel(rest),
        other => Err(CliFailure::usage(format!("unknown command {other:?}"))),
    }
}

fn load(flags_file: Option<&String>) -> Result<Graph, CliFailure> {
    let path = flags_file.ok_or_else(|| CliFailure::usage("missing input file"))?;
    let loaded = load_edge_list(path).map_err(|e| CliFailure::io(e.to_string()))?;
    if loaded.self_loops_dropped > 0 {
        eprintln!("note: dropped {} self-loops", loaded.self_loops_dropped);
    }
    Ok(loaded.graph)
}

fn cmd_gen(args: &[String]) -> Result<(), CliFailure> {
    let (family, rest) = args.split_first().ok_or("gen: missing family")?;
    let flags = parse_flags(rest)?;
    let seed: u64 = get(&flags, "seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match family.as_str() {
        "gnm" => gen::gnm(get(&flags, "n", 1000)?, get(&flags, "m", 5000)?, &mut rng),
        "gnp" => gen::gnp(get(&flags, "n", 1000)?, get(&flags, "p", 0.01)?, &mut rng),
        "ba" => gen::barabasi_albert(get(&flags, "n", 1000)?, get(&flags, "k", 3)?, &mut rng),
        "chung-lu" => gen::chung_lu(
            get(&flags, "n", 1000)?,
            get(&flags, "gamma", 2.5)?,
            get(&flags, "avg-degree", 8.0)?,
            &mut rng,
        ),
        "cliques" => gen::disjoint_cliques(get(&flags, "s", 5)?, get(&flags, "k", 10)?),
        "bipartite" => gen::bipartite_gnm(
            get(&flags, "a", 100)?,
            get(&flags, "b", 100)?,
            get(&flags, "m", 1000)?,
            &mut rng,
        ),
        "plane" => gen::projective_plane_incidence(get(&flags, "q", 5)?),
        "planted-triangles" => gen::planted_triangles_on_bipartite(
            get(&flags, "side", 100)?,
            get(&flags, "side", 100)?,
            get(&flags, "m-bg", 2000)?,
            get(&flags, "t", 64)?,
            &mut rng,
        ),
        "planted-c4" => gen::disjoint_triangles(get(&flags, "bg", 500)?)
            .disjoint_union(&gen::disjoint_four_cycles(get(&flags, "t", 64)?)),
        other => return Err(CliFailure::usage(format!("unknown family {other:?}"))),
    };
    emit(&g, flags.get("o"))?;
    eprintln!(
        "generated {family}: n = {}, m = {}",
        g.vertex_count(),
        g.edge_count()
    );
    Ok(())
}

fn emit(g: &Graph, out: Option<&String>) -> Result<(), CliFailure> {
    write_output(out, |w| write_edge_list(g, w))
}

fn cmd_info(args: &[String]) -> Result<(), CliFailure> {
    let g = load(args.first())?;
    let stats = DegreeStats::compute(&g);
    let (_, components) = connected_components(&g);
    let (degen, _) = degeneracy(&g);
    println!("vertices      {}", g.vertex_count());
    println!("edges         {}", g.edge_count());
    println!("wedges (P2)   {}", g.wedge_count());
    println!(
        "degree        min {} / median {} / mean {:.2} / max {}",
        stats.min, stats.median, stats.mean, stats.max
    );
    println!("isolated      {}", stats.isolated);
    println!("components    {components}");
    println!("degeneracy    {degen}");
    Ok(())
}

fn cmd_count(args: &[String]) -> Result<(), CliFailure> {
    let g = load(args.first())?;
    let flags = parse_flags(&args[1..])?;
    let kind = flags.get("kind").map(String::as_str).unwrap_or("triangles");
    let count = match kind {
        "triangles" => exact::count_triangles(&g),
        "c4" => exact::count_four_cycles(&g),
        "cycles" => exact::count_cycles(&g, get(&flags, "len", 5usize)?),
        other => return Err(CliFailure::usage(format!("unknown kind {other:?}"))),
    };
    println!("{count}");
    Ok(())
}

/// Build the [`Budget`] for an estimate run from `--max-bytes` (a byte
/// count, or `auto` for 16× the Theorem 3.7 space bound — slack for
/// constant factors the Õ hides), `--max-total-bytes`, and
/// `--deadline-secs`.
fn parse_budget_flags(
    flags: &HashMap<String, String>,
    g: &Graph,
    t_lower: u64,
    epsilon: f64,
) -> Result<Budget, CliFailure> {
    let mut budget = Budget::default();
    if let Some(v) = flags.get("max-bytes") {
        budget.max_bytes_per_instance = Some(if v == "auto" {
            let bytes =
                theoretical_space_budget(g.edge_count(), g.vertex_count(), t_lower, epsilon);
            // 16× slack for the constant factors Õ hides, with a 1 MiB
            // floor: hash-map and allocator overhead dominates the
            // information-theoretic bound on small instances.
            bytes.saturating_mul(16).max(1 << 20)
        } else {
            v.parse()
                .map_err(|_| CliFailure::usage(format!("invalid --max-bytes {v:?}")))?
        });
    }
    if let Some(v) = flags.get("max-total-bytes") {
        budget.max_total_bytes = Some(
            v.parse()
                .map_err(|_| CliFailure::usage(format!("invalid --max-total-bytes {v:?}")))?,
        );
    }
    if let Some(v) = flags.get("deadline-secs") {
        let secs: f64 = v
            .parse()
            .map_err(|_| CliFailure::usage(format!("invalid --deadline-secs {v:?}")))?;
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(CliFailure::usage(format!(
                "--deadline-secs must be a finite non-negative number, got {v:?}"
            )));
        }
        budget.deadline = Some(std::time::Duration::from_secs_f64(secs));
    }
    Ok(budget)
}

/// Write a run's [`MetricsSnapshot`](adjstream::stream::MetricsSnapshot)
/// as one-line JSON to `path`. Collection is enabled whenever
/// `--metrics-out` is present, so a missing snapshot is an internal bug.
fn write_metrics(
    metrics: Option<&adjstream::stream::MetricsSnapshot>,
    path: &str,
) -> Result<(), CliFailure> {
    let snap = metrics
        .ok_or_else(|| CliFailure::io("run produced no metrics snapshot (internal error)"))?;
    std::fs::write(path, format!("{}\n", snap.to_json()))
        .map_err(|e| CliFailure::io(format!("cannot write metrics to {path}: {e}")))?;
    eprintln!("metrics       written to {path}");
    Ok(())
}

fn print_estimate(est: &CountEstimate, g: &Graph, suffix: &str) {
    println!("estimate      {:.1}{suffix}", est.count);
    println!("edge budget   {} of {}", est.budget, g.edge_count());
    println!("repetitions   {}", est.repetitions);
    println!("run std-dev   {:.1}", est.report.variance.sqrt());
    println!("stream passes {}", est.stream_passes);
    if est.report.dead_runs > 0 {
        println!(
            "survivors     {} of {} repetitions (the rest exceeded their budget)",
            est.repetitions - est.report.dead_runs,
            est.repetitions
        );
    }
}

/// The stable default job id for checkpoint namespacing
/// (`triangles-<id>.ckpt`): `checksum64` of the run identity.
fn default_job_id(input: &str, t_lower: u64, seed: u64, epsilon: f64) -> u64 {
    adjstream::stream::hashing::checksum64(format!("{input}|{t_lower}|{seed}|{epsilon}").as_bytes())
}

fn cmd_estimate(args: &[String]) -> Result<(), CliFailure> {
    let g = load(args.first())?;
    let flags = parse_flags(&args[1..])?;
    let t_lower_flag: Option<u64> = match flags.get("t-lower") {
        Some(t) => Some(t.parse().map_err(|_| "invalid --t-lower")?),
        None => None,
    };
    let epsilon: f64 = get(&flags, "epsilon", 0.25)?;
    let budget = parse_budget_flags(&flags, &g, t_lower_flag.unwrap_or(1), epsilon)?;
    let min_survivors: Option<usize> = match flags.get("min-survivors") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliFailure::usage(format!("invalid --min-survivors {v:?}")))?,
        ),
        None => None,
    };
    let metrics_out = flags.get("metrics-out").cloned();
    let acc = Accuracy {
        epsilon,
        delta: get(&flags, "delta", 0.1)?,
        seed: get(&flags, "seed", 2019)?,
        threads: get(&flags, "threads", 4)?,
        budget,
        min_survivors,
        collect_metrics: metrics_out.is_some(),
    };
    let order = StreamOrder::shuffled(g.vertex_count(), acc.seed);
    let kind = flags.get("kind").map(String::as_str).unwrap_or("triangles");
    let checkpoint_dir = flags.get("checkpoint-dir");
    let resume = flags.contains_key("resume");
    if resume && checkpoint_dir.is_none() {
        return Err(CliFailure::usage("--resume requires --checkpoint-dir"));
    }
    match kind {
        "triangles" => {
            let est = match checkpoint_dir {
                Some(dir) => {
                    let t_lower = t_lower_flag.ok_or_else(|| {
                        CliFailure::usage("--checkpoint-dir requires an explicit --t-lower")
                    })?;
                    std::fs::create_dir_all(dir).map_err(|e| {
                        CliFailure::io(format!("cannot create checkpoint dir {dir}: {e}"))
                    })?;
                    // Checkpoint files are namespaced by job id so runs
                    // sharing a checkpoint dir never clobber each other.
                    // The id defaults to a hash of the run identity
                    // (input, t-lower, seed, epsilon) so a bare re-run with
                    // --resume finds its own file; --job-id pins it.
                    let job_id: u64 = match flags.get("job-id") {
                        Some(v) => v
                            .parse()
                            .map_err(|_| CliFailure::usage(format!("invalid --job-id {v:?}")))?,
                        None => default_job_id(
                            args.first().map(String::as_str).unwrap_or(""),
                            t_lower,
                            acc.seed,
                            acc.epsilon,
                        ),
                    };
                    let path =
                        std::path::Path::new(dir).join(format!("triangles-{job_id:016x}.ckpt"));
                    if let Some(secs) = flags.get("checkpoint-retention-secs") {
                        let secs: u64 = secs.parse().map_err(|_| {
                            CliFailure::usage(format!(
                                "invalid --checkpoint-retention-secs {secs:?}"
                            ))
                        })?;
                        use adjstream::stream::checkpoint::gc_stale_checkpoints;
                        let keep = path.clone();
                        let removed = gc_stale_checkpoints(
                            std::path::Path::new(dir),
                            std::time::Duration::from_secs(secs),
                            move |p| p.extension().is_some_and(|e| e == "ckpt") && p != keep,
                        );
                        if removed > 0 {
                            eprintln!("gc: removed {removed} stale checkpoint file(s)");
                        }
                    }
                    try_estimate_triangles_checkpointed(&g, &order, t_lower, acc, &path, resume)?
                }
                None => match t_lower_flag {
                    Some(t) => try_estimate_triangles(&g, &order, t, acc)?,
                    None => try_estimate_triangles_auto(&g, &order, acc)?,
                },
            };
            print_estimate(&est, &g, "");
            if let Some(path) = &metrics_out {
                write_metrics(est.metrics.as_ref(), path)?;
            }
        }
        "c4" => {
            if checkpoint_dir.is_some() {
                return Err(CliFailure::usage(
                    "--checkpoint-dir supports --kind triangles only",
                ));
            }
            let t_lower = t_lower_flag.unwrap_or(1);
            let o2 = StreamOrder::shuffled(g.vertex_count(), acc.seed ^ 0xC4);
            let est = try_estimate_four_cycles(&g, [&order, &o2], t_lower, acc)?;
            print_estimate(&est, &g, " (O(1)-factor approximation)");
            if let Some(path) = &metrics_out {
                write_metrics(est.metrics.as_ref(), path)?;
            }
        }
        other => return Err(CliFailure::usage(format!("unknown kind {other:?}"))),
    }
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), CliFailure> {
    let g = load(args.first())?;
    let flags = parse_flags(&args[1..])?;
    let seed: u64 = get(&flags, "seed", 1)?;
    let s = AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), seed));
    write_items(s.items(), flags.get("o"))?;
    eprintln!("wrote {} items", s.len());
    Ok(())
}

fn cmd_validate_stream(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::stream::{validate_online, OnlineValidator, SpaceUsage};
    let path = args.first().ok_or("missing stream file")?;
    let flags = parse_flags(&args[1..])?;
    let (trace, attempts) =
        read_trace_file_with_retry(std::path::Path::new(path), get(&flags, "retries", 0usize)?)?;
    if let Some(note) = retry_note(attempts, true) {
        eprintln!("{note}");
    }
    let mode = flags.get("mode").map(String::as_str).unwrap_or("offline");
    let result = match mode {
        "offline" => validate_slice(trace.items()),
        "online" => {
            let mut v = OnlineValidator::exact();
            validate_online(&mut v, trace.items().iter().copied())
        }
        "bounded" => {
            let seed: u64 = get(&flags, "seed", 2019)?;
            let window: usize = get(&flags, "window", 64)?;
            let mut v = OnlineValidator::bounded(seed, window);
            let r = validate_online(&mut v, trace.items().iter().copied());
            eprintln!("validator state: {} bytes", v.space_bytes());
            r
        }
        other => {
            return Err(CliFailure::usage(format!(
                "--mode must be offline|online|bounded, got {other:?}"
            )))
        }
    };
    match result {
        Ok(edges) => {
            println!("valid adjacency list stream: {edges} edges ({mode} check)");
            Ok(())
        }
        Err(e) => Err(CliFailure::invalid_stream(match e.position() {
            Some(p) => format!("invalid stream at item {p}: {e}"),
            None => format!("invalid stream: {e}"),
        })),
    }
}

/// Corrupt a valid stream with a seeded, replayable fault plan.
fn cmd_corrupt(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::stream::{FaultKind, FaultPlan};
    let path = args.first().ok_or("missing stream file")?;
    let flags = parse_flags(&args[1..])?;
    let seed: u64 = get(&flags, "seed", 1)?;
    let spec = flags
        .get("faults")
        .ok_or("corrupt: missing --faults (e.g. drop-direction:2,self-loop)")?;
    let mut plan = FaultPlan::new(seed);
    for part in spec.split(',') {
        let (name, count) = match part.split_once(':') {
            Some((n, c)) => (
                n,
                c.parse::<usize>()
                    .map_err(|_| format!("invalid fault count in {part:?}"))?,
            ),
            None => (part, 1),
        };
        let kind = FaultKind::parse(name).ok_or_else(|| format!("unknown fault kind {name:?}"))?;
        plan = plan.with(kind, count);
    }
    if plan.count(FaultKind::ReorderPass) > 0 && !flags.contains_key("replay-o") {
        return Err("corrupt: reorder-pass only affects replays; pass --replay-o FILE".into());
    }
    let file = std::fs::File::open(path).map_err(|e| CliFailure::io(e.to_string()))?;
    let trace = ItemTrace::read(file)
        .map_err(|e| CliFailure::invalid_stream(format!("input must be valid: {e}")))?;
    let corrupted = plan.apply(trace.items());
    write_items(corrupted.items().iter().copied(), flags.get("o"))?;
    if let Some(replay_path) = flags.get("replay-o") {
        write_items(
            corrupted.items_for_pass(1).iter().copied(),
            Some(replay_path),
        )?;
    }
    for f in corrupted.injected() {
        eprintln!(
            "injected {} ({} expected detections): {}",
            f.kind, f.expected_detections, f.description
        );
    }
    for k in corrupted.skipped() {
        eprintln!("skipped {k}: stream cannot host it");
    }
    eprintln!(
        "seed {seed}: {} faults injected, {} skipped, {} detections expected",
        corrupted.injected().len(),
        corrupted.skipped().len(),
        corrupted.expected_detections()
    );
    Ok(())
}

/// Convert a trace between the text and binary (`.adjb`) on-disk formats.
/// The input format is sniffed, so either direction works; the stream is
/// not validated (corrupted fault-injection fixtures convert unchanged).
fn cmd_convert_trace(args: &[String]) -> Result<(), CliFailure> {
    let path = args.first().ok_or("missing stream file")?;
    let flags = parse_flags(&args[1..])?;
    let format = flags.get("format").map(String::as_str).unwrap_or("adjb");
    let bytes = std::fs::read(path).map_err(|e| CliFailure::io(e.to_string()))?;
    let trace = ItemTrace::from_bytes_unchecked(&bytes).map_err(trace_failure)?;
    let out = flags.get("o").ok_or("convert-trace: missing -o OUTPUT")?;
    match format {
        "adjb" => write_output(Some(out), |mut w| trace.write_adjb(&mut w))?,
        "text" => write_items(trace.items().iter().copied(), Some(out))?,
        other => {
            return Err(CliFailure::usage(format!(
                "--format must be adjb|text, got {other:?}"
            )))
        }
    }
    eprintln!("wrote {} items as {format} to {out}", trace.len());
    Ok(())
}

/// Convert an update trace between the text dialect and the checksummed
/// `.adjbu` binary container. Input format is sniffed from the bytes, so
/// both directions (and a re-encode of the same format) work.
fn cmd_convert_updates(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::stream::update_trace::{parse_update_bytes, write_adjbu, UpdateTraceError};
    let path = args.first().ok_or("missing update trace file")?;
    let flags = parse_flags(&args[1..])?;
    let format = flags.get("format").map(String::as_str).unwrap_or("adjbu");
    if !matches!(format, "adjbu" | "text") {
        return Err(CliFailure::usage(format!(
            "--format must be adjbu|text, got {format:?}"
        )));
    }
    let bytes = std::fs::read(path).map_err(|e| CliFailure::io(e.to_string()))?;
    let stream = parse_update_bytes(&bytes).map_err(|e| match e {
        UpdateTraceError::Io(inner) => CliFailure::io(inner.to_string()),
        other => CliFailure::invalid_stream(other.to_string()),
    })?;
    let out = flags.get("o").ok_or("convert-updates: missing -o OUTPUT")?;
    write_output(Some(out), |w| match format {
        "adjbu" => write_adjbu(&stream, w),
        _ => stream.write_text(w),
    })?;
    eprintln!("wrote {} update events as {format} to {out}", stream.len());
    Ok(())
}

/// Write `items` as text `src dst` lines to `out`, or to stdout.
fn write_items(
    items: impl IntoIterator<Item = StreamItem>,
    out: Option<&String>,
) -> Result<(), CliFailure> {
    write_output(out, |w| {
        for item in items {
            writeln!(w, "{} {}", item.src, item.dst)?;
        }
        Ok(())
    })
}

/// Buffer `write`'s bytes into the `-o` file `out`, or into stdout. A
/// reader that closes stdout early (`... | head`) ends the process quietly
/// with exit 0, as `main`'s panic hook does for `println!`.
fn write_output(
    out: Option<&String>,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), CliFailure> {
    let buffered = |w: &mut dyn Write| {
        let mut w = std::io::BufWriter::new(w);
        write(&mut w)?;
        w.flush()
    };
    match out {
        Some(path) => std::fs::File::create(path).and_then(|mut f| buffered(&mut f)),
        None => match buffered(&mut std::io::stdout().lock()) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            written => written,
        },
    }
    .map_err(|e| CliFailure::io(e.to_string()))
}

/// A trace served to `estimate-stream` and its shard workers: an owned,
/// decoded read, or an mmapped `.adjb` file served straight from the page
/// cache. Neither has been held to the adjacency-list promise.
enum TraceSource {
    Owned(ItemTrace),
    Mapped(adjstream::stream::MappedTrace),
}

impl TraceSource {
    fn items(&self) -> &[StreamItem] {
        match self {
            TraceSource::Owned(t) => t.items(),
            TraceSource::Mapped(m) => m.items(),
        }
    }
}

/// What `estimate-stream` prints once the trace is accepted.
struct StreamEstimate {
    /// The `stream` line, and the `shards` line of a sharded run.
    header: String,
    estimate: f64,
    budget: usize,
    report: RunReport,
    /// Qualifies the peak state line.
    suffix: &'static str,
}

/// Estimate triangles directly from an item trace file.
///
/// The trace is decoded, or mapped under `--mmap`, without any check. The
/// passes run on the calling thread: the two-pass Theorem 3.7 algorithm,
/// or with any scale-out flag the shard-mergeable estimator over shard
/// threads or `--shard-procs` workers. A `--policy` guard handles
/// malformed input, repairing upstream of the shard split when sharded.
/// Meanwhile a second thread rules on the trace: it finishes the mapped
/// checksum and, without a policy, checks the adjacency-list promise. The
/// verdict wins over whatever the run did, a rejected trace fails as the
/// owned read would have, and nothing is printed before the verdict.
fn cmd_estimate_stream(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::algo::common::EdgeSampling;
    use adjstream::algo::triangle::{
        ShardedTriangleConfig, TwoPassTriangle, TwoPassTriangleConfig,
    };
    use adjstream::stream::shard::run_sharded_with;
    use adjstream::stream::{
        guard_items, run_sharded_hooked, run_slice_passes_observed, run_with_verdict, Guarded,
        MappedTrace, Metrics, ShardPlan,
    };
    let path = args.first().ok_or("missing stream file")?;
    let flags = parse_flags(&args[1..])?;
    let sharded = ["shards", "shard-procs", "mmap"]
        .iter()
        .any(|flag| flags.contains_key(*flag));
    let shards: usize = get(&flags, "shards", 1)?;
    if shards == 0 {
        return Err(CliFailure::usage("--shards must be >= 1"));
    }
    let procs = flags.contains_key("shard-procs");
    let use_mmap = flags.contains_key("mmap");
    let metrics_out = flags.get("metrics-out").cloned();
    let sink = Metrics::from_flag(metrics_out.is_some());
    let policy = flags
        .get("policy")
        .map(|p| {
            GuardPolicy::parse(p)
                .ok_or(format!("--policy must be strict|repair|observe, got {p:?}"))
        })
        .transpose()?;
    let budget_flag = flags
        .contains_key("budget")
        .then(|| get::<usize>(&flags, "budget", 0))
        .transpose()?;
    let seed: u64 = get(&flags, "seed", 2019)?;
    let budget_for = |m: usize| budget_flag.unwrap_or((m / 10).max(16));

    let (source, attempts) = if use_mmap {
        // A rejected container reads as the owned read's rejection.
        let mapped = MappedTrace::open(std::path::Path::new(path)).map_err(|e| match e {
            adjstream::stream::TraceError::Io(_) => trace_failure(e),
            rejected => CliFailure::from(RetryError::Permanent(rejected)),
        })?;
        (TraceSource::Mapped(mapped), 1)
    } else {
        let retries = get(&flags, "retries", 0usize)?;
        let (trace, attempts) = read_trace_file_with_retry(std::path::Path::new(path), retries)?;
        sink.record_retries(attempts as u64);
        (TraceSource::Owned(trace), attempts)
    };
    let raw = source.items();

    let unsharded = || -> Result<StreamEstimate, CliFailure> {
        // On an accepted trace `items / 2` is the validated edge count.
        let m = raw.len() / 2;
        let budget = budget_for(m);
        let algo = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed,
            edge_sampling: EdgeSampling::BottomK { k: budget },
            pair_capacity: budget,
        });
        let (header, run) = match policy {
            None => (
                format!("stream        {} items, {m} edges (validated)", raw.len()),
                run_slice_passes_observed(algo, |_pass| raw, &sink),
            ),
            Some(policy) => (
                format!("stream        {} items (guard policy: {policy})", raw.len()),
                run_slice_passes_observed(Guarded::new(algo, policy), |_pass| raw, &sink),
            ),
        };
        let (est, report) = run.map_err(|e| CliFailure::from(EstimateError::Run(e)))?;
        Ok(StreamEstimate {
            header,
            estimate: est.estimate,
            budget,
            report,
            suffix: "",
        })
    };

    // Sharded, a guard policy repairs the stream once, upstream of the
    // split, and every shard replays what it admitted.
    let sharded_run = || -> Result<StreamEstimate, CliFailure> {
        let (repaired, guard_stats) = match policy {
            Some(policy) => {
                let (fixed, stats) = guard_items(raw, policy)
                    .map_err(|e| CliFailure::from(EstimateError::Run(e)))?;
                (Some(fixed), Some(stats))
            }
            None => (None, None),
        };
        let items: &[StreamItem] = repaired.as_deref().unwrap_or(raw);
        let m = items.len() / 2;
        let budget = budget_for(m);
        let algo = ShardedTriangle::new(ShardedTriangleConfig {
            seed,
            edge_sampling: EdgeSampling::BottomK { k: budget },
            pair_capacity: budget,
        });
        let plan = ShardPlan::build(items, shards);
        let stream_line = match policy {
            Some(policy) => format!(
                "stream        {} items (guard policy: {policy}, repaired upstream)",
                items.len()
            ),
            None => format!(
                "stream        {} items, {m} edges ({})",
                items.len(),
                if use_mmap {
                    "mmap, verify deferred"
                } else {
                    "validated"
                }
            ),
        };
        let header = format!(
            "{stream_line}\nshards        {} lists over {shards} shard(s), {} mode{}",
            plan.total_runs(),
            if procs { "process" } else { "thread" },
            if use_mmap { ", mmap replay" } else { "" }
        );
        let (est, mut report) = if procs {
            let workers = ShardProcs::new(path, repaired.as_deref(), shards, use_mmap)?;
            run_sharded_with(
                algo,
                &sink,
                |pass, base| workers.pass(pass, base),
                |_| Ok(()),
            )?
        } else {
            run_sharded_hooked(algo, &plan, items, &sink, |_| Ok(()))?
        };
        // The repair ran outside the sharded driver; fold its guard
        // counters in so the report and --metrics-out stay truthful.
        report.guard = report.guard.or(guard_stats);
        if let Some(snap) = report.metrics.as_mut() {
            snap.guard = snap.guard.or(guard_stats);
        }
        Ok(StreamEstimate {
            header,
            estimate: est.estimate,
            budget,
            report,
            suffix: " (max over shards)",
        })
    };

    let checksum = match &source {
        TraceSource::Mapped(mapped) => Some(mapped.verify_cursor()),
        TraceSource::Owned(_) => None,
    };
    let verdict = run_with_verdict(raw, checksum, policy.is_none(), || {
        if sharded {
            sharded_run()
        } else {
            unsharded()
        }
    });
    if let Some(note) = retry_note(attempts, verdict.is_ok()) {
        eprintln!("{note}");
    }
    let run = verdict.map_err(|e| CliFailure::from(RetryError::Permanent(e)))??;
    println!("{}", run.header);
    println!("estimate      {:.1}", run.estimate);
    println!("edge budget   {}", run.budget);
    println!(
        "peak state    {} bytes{}",
        run.report.peak_state_bytes, run.suffix
    );
    if let Some(stats) = run.report.guard {
        println!(
            "guard         {} faults detected, {} items repaired, {} edges quarantined",
            stats.faults_detected, stats.items_repaired, stats.edges_quarantined
        );
        println!("guard state   {} bytes peak", stats.validator_peak_bytes);
    }
    if let Some(path) = metrics_out {
        write_metrics(run.report.metrics.as_ref(), &path)?;
    }
    Ok(())
}

/// Map a trace open error onto the CLI's exit-code taxonomy.
fn trace_failure(e: adjstream::stream::TraceError) -> CliFailure {
    match &e {
        adjstream::stream::TraceError::Io(_) => CliFailure::io(e.to_string()),
        _ => CliFailure::invalid_stream(e.to_string()),
    }
}

/// Map a checkpoint-container failure (the shard-merge wire format) onto
/// the checkpoint exit code.
fn checkpoint_failure(e: adjstream::stream::FrameError) -> CliFailure {
    CliFailure::new(
        EXIT_CHECKPOINT,
        "checkpoint",
        format!("checkpoint rejected: {e}"),
    )
}

/// Map a sharded-execution failure onto the CLI's exit-code taxonomy:
/// run errors keep their usual classification, everything else is I/O.
impl From<ShardError> for CliFailure {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Run(r) => CliFailure::from(EstimateError::Run(r)),
            other => CliFailure::io(other.to_string()),
        }
    }
}

/// The `--shard-procs` step of the library's shard loop: each pass runs
/// as one `shard-worker` process per shard. Boundary states and worker
/// payloads go through a private temp directory, which is removed on drop
/// whichever way the run ends.
struct ShardProcs {
    dir: std::path::PathBuf,
    exe: std::path::PathBuf,
    trace: std::path::PathBuf,
    shards: usize,
    mmap: bool,
}

impl ShardProcs {
    fn new(
        trace: &str,
        repaired: Option<&[StreamItem]>,
        shards: usize,
        mmap: bool,
    ) -> Result<ShardProcs, CliFailure> {
        let io = |e: std::io::Error| CliFailure::io(e.to_string());
        let exe = std::env::current_exe().map_err(io)?;
        let dir = std::env::temp_dir().join(format!("adjstream-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut procs = ShardProcs {
            dir,
            exe,
            trace: trace.into(),
            shards,
            mmap,
        };
        // A repaired stream exists only in this process; persist it so the
        // workers replay the same repaired trace the parent planned.
        if let Some(fixed) = repaired {
            procs.trace = procs.dir.join("repaired.adjb");
            let mut f = std::fs::File::create(&procs.trace).map_err(io)?;
            ItemTrace::new_unchecked(fixed.to_vec())
                .write_adjb(&mut f)
                .map_err(io)?;
        }
        Ok(procs)
    }

    /// One pass on every shard: write the boundary state, spawn the
    /// workers, reap every one that started, then take their outcomes in
    /// shard order: the first failure is the error, else each payload is
    /// read and decoded. A worker's own wall is not visible here, so each
    /// shard reports the batch wall, from the first spawn to the last
    /// payload read.
    fn pass(
        &self,
        pass: usize,
        base: &[u8],
    ) -> Result<Vec<ShardPassOutput<ShardedTriangle>>, CliFailure> {
        let base_path = self.dir.join(format!("pass{pass}.base.ckpt"));
        write_checkpoint_file(&base_path, base).map_err(checkpoint_failure)?;
        let out = |shard: usize| self.dir.join(format!("pass{pass}.shard{shard}.ckpt"));
        let t0 = std::time::Instant::now();
        let children: Vec<_> = (0..self.shards)
            .map(|shard| {
                let mut cmd = std::process::Command::new(&self.exe);
                cmd.arg("shard-worker")
                    .arg(&self.trace)
                    .args(["--shard", &shard.to_string()])
                    .args(["--shards", &self.shards.to_string()])
                    .args(["--pass", &pass.to_string()])
                    .arg("--state")
                    .arg(&base_path)
                    .arg("--out")
                    .arg(out(shard));
                if self.mmap {
                    cmd.arg("--mmap");
                }
                cmd.spawn()
                    .map_err(|e| CliFailure::io(format!("spawn shard {shard} worker: {e}")))
            })
            .collect();
        let exits: Vec<_> = children
            .into_iter()
            .map(|child| child?.wait().map_err(|e| CliFailure::io(e.to_string())))
            .collect();
        let mut payloads = Vec::with_capacity(self.shards);
        for (shard, exit) in exits.into_iter().enumerate() {
            let status = exit?;
            if !status.success() {
                let code = status.code().map(|c| c as u8).unwrap_or(EXIT_IO);
                return Err(CliFailure::new(
                    code,
                    "shard-worker",
                    format!("shard {shard} worker failed in pass {pass} (exit {code})"),
                ));
            }
            payloads.push(read_checkpoint_file(&out(shard)).map_err(checkpoint_failure)?);
        }
        let wall_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        payloads
            .iter()
            .map(|payload| {
                let (replica, stats) = decode_shard_payload(payload)?;
                Ok((replica, stats, wall_nanos))
            })
            .collect()
    }
}

impl Drop for ShardProcs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Hidden subcommand: one shard x one pass of a sharded `estimate-stream`,
/// spawned by the `--shard-procs` parent. Restores the pass-boundary state
/// blob, drives only this shard's adjacency lists (rebuilding the same
/// deterministic plan from the trace), and writes back the shard-worker
/// payload of `run_shard_pass_blob` (stats, then the partial state)
/// through the checksummed checkpoint container.
fn cmd_shard_worker(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::stream::shard::run_shard_pass_blob;
    use adjstream::stream::{MappedTrace, ShardPlan};

    let path = args.first().ok_or("shard-worker: missing trace file")?;
    let flags = parse_flags(&args[1..])?;
    let shard: usize = get(&flags, "shard", 0)?;
    let shards: usize = get(&flags, "shards", 1)?;
    let pass: usize = get(&flags, "pass", 0)?;
    let state = flags.get("state").ok_or("shard-worker: missing --state")?;
    let out = flags.get("out").ok_or("shard-worker: missing --out")?;
    if shards == 0 || shard >= shards {
        return Err(CliFailure::usage("shard-worker: --shard out of range"));
    }
    // The parent rules on the trace (or repairs it upstream); workers
    // replay it unchecked.
    let source = if flags.contains_key("mmap") {
        TraceSource::Mapped(
            MappedTrace::open(std::path::Path::new(path.as_str())).map_err(trace_failure)?,
        )
    } else {
        let (trace, _) = read_trace_file_with_retry(std::path::Path::new(path.as_str()), 0)?;
        TraceSource::Owned(trace)
    };
    let items = source.items();
    let plan = ShardPlan::build(items, shards);
    let base = read_checkpoint_file(std::path::Path::new(state)).map_err(checkpoint_failure)?;
    let payload = run_shard_pass_blob::<ShardedTriangle>(&base, pass, items, plan.runs_for(shard))?;
    write_checkpoint_file(std::path::Path::new(out), &payload).map_err(checkpoint_failure)?;
    Ok(())
}

/// Generate a timestamped insert/delete trace from a graph file: a load
/// phase inserting every edge in seeded random order, then `--churn`
/// events swinging over the edge set.
fn cmd_gen_updates(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::stream::update::{churn, ChurnConfig};
    let (path, rest) = args
        .split_first()
        .ok_or("gen-updates: missing graph file")?;
    let flags = parse_flags(rest)?;
    let format = flags.get("format").map(String::as_str).unwrap_or("text");
    if !matches!(format, "text" | "adjbu") {
        return Err(CliFailure::usage(format!(
            "--format must be text|adjbu, got {format:?}"
        )));
    }
    let g = load(Some(path))?;
    let cfg = ChurnConfig {
        churn_events: get(&flags, "churn", g.edge_count())?,
        delete_fraction: get(&flags, "delete-fraction", 0.5)?,
        seed: get(&flags, "seed", 1)?,
    };
    let stream = churn(&g, &cfg);
    write_output(flags.get("o"), |w| match format {
        "adjbu" => adjstream::stream::update_trace::write_adjbu(&stream, w),
        _ => stream.write_text(w),
    })?;
    let (ins, del) = stream.op_counts();
    eprintln!(
        "gen-updates: {} events (+{ins}/-{del}), {} live at end",
        stream.len(),
        stream.final_edges().len()
    );
    Ok(())
}

/// Import a SNAP-style edge list into a checksummed `.adjb` trace,
/// streaming: the edge set never resides in memory (bucketed external
/// grouping by list-owner vertex). Output bytes are deterministic for a
/// given input + `--seed`, for every `--buckets` count.
fn cmd_import_edges(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::graph::import::{DupPolicy, ImportConfig, ImportError, SelfLoopPolicy};
    use adjstream::stream::import::{import_edge_list_to_adjb, AdjbImportError};
    let (path, rest) = args
        .split_first()
        .ok_or("import-edges: missing edge list file")?;
    let flags = parse_flags(rest)?;
    let out = flags
        .get("o")
        .ok_or("import-edges: missing -o OUTPUT.adjb")?;
    let dups = match flags.get("dups").map(String::as_str) {
        None => DupPolicy::default(),
        Some(s) => DupPolicy::parse(s)
            .ok_or_else(|| CliFailure::usage(format!("bad --dups {s:?} (drop|keep|error)")))?,
    };
    let self_loops = match flags.get("self-loops").map(String::as_str) {
        None => SelfLoopPolicy::default(),
        Some(s) => SelfLoopPolicy::parse(s).ok_or_else(|| {
            CliFailure::usage(format!("bad --self-loops {s:?} (drop|keep|error)"))
        })?,
    };
    let cfg = ImportConfig {
        seed: get(&flags, "seed", 2019)?,
        buckets: get::<usize>(&flags, "buckets", 64)?.max(1),
        dups,
        self_loops,
        tmp_dir: None,
    };
    let input = std::fs::File::open(path).map_err(|e| CliFailure::io(e.to_string()))?;
    let report = import_edge_list_to_adjb(
        std::io::BufReader::new(input),
        std::path::Path::new(out),
        &cfg,
    )
    .map_err(|e| match e {
        AdjbImportError::Import(ImportError::Io(inner)) => CliFailure::io(inner.to_string()),
        AdjbImportError::Io(inner) => CliFailure::io(inner.to_string()),
        AdjbImportError::Import(inner) => CliFailure::invalid_stream(inner.to_string()),
    })?;
    let s = &report.stats;
    if flags.contains_key("json") {
        println!(
            "{{\"schema\":1,\"vertices\":{},\"edges_read\":{},\"items\":{},\"lists\":{},\
             \"duplicate_items_dropped\":{},\"self_loops_dropped\":{},\"lines_skipped\":{},\
             \"checksum\":\"{:#018x}\",\"bytes\":{},\"seed\":{},\"buckets\":{}}}",
            s.vertices,
            s.edges_read,
            s.items,
            s.lists,
            s.duplicate_items_dropped,
            s.self_loops_dropped,
            s.lines_skipped,
            report.checksum,
            report.bytes_written,
            cfg.seed,
            cfg.buckets
        );
    } else {
        println!("vertices      {}", s.vertices);
        println!("edges read    {}", s.edges_read);
        println!("items         {} in {} lists", s.items, s.lists);
        println!(
            "dropped       {} duplicate items, {} self-loops",
            s.duplicate_items_dropped, s.self_loops_dropped
        );
        println!("checksum      {:#018x}", report.checksum);
        println!("bytes         {}", report.bytes_written);
    }
    Ok(())
}

/// Maintain a triangle estimate over a dynamic update trace.
///
/// Default mode drives TRIÈST-FD in batches, printing the per-batch
/// estimate and its delta; `--verify` replays the trace through the exact
/// `O(m)`-space incremental counter and prints the per-batch recount next
/// to each estimate. `--window W` switches to sliding-window mode: each
/// `[start, start+W)` window of timestamps is re-fed to the two-pass
/// estimator (or counted exactly with `--exact-windows`).
fn cmd_update_stream(args: &[String]) -> Result<(), CliFailure> {
    use adjstream::algo::dynamic::{windowed_estimates, ExactDynamicTriangles, WindowConfig};
    use adjstream::algo::triangle::TriestFd;
    use adjstream::stream::update::{run_update_batches, UpdateAlgorithm};
    let (path, rest) = args
        .split_first()
        .ok_or("update-stream: missing update trace file")?;
    let flags = parse_flags(rest)?;
    // Sniffing reader: binary `.adjbu` (checksum-verified) and the text
    // dialect both load through the same path.
    let bytes = std::fs::read(path).map_err(|e| CliFailure::io(e.to_string()))?;
    let stream = adjstream::stream::update_trace::parse_update_bytes(&bytes)
        .map_err(|e| CliFailure::invalid_stream(e.to_string()))?;
    // An empty trace (e.g. a zero-length file) is a valid stream with no
    // events: the summary below reports 0 events and a 0.0 estimate
    // rather than failing — a daemon registering a just-created trace
    // file must not see a typed rejection.
    let seed: u64 = get(&flags, "seed", 2019)?;
    let (ins, del) = stream.op_counts();
    println!("updates       {} events (+{ins}/-{del})", stream.len());

    if flags.contains_key("window") {
        let width: u64 = get(&flags, "window", 0)?;
        let stride: u64 = get(&flags, "stride", width)?;
        let cfg = WindowConfig {
            width,
            stride,
            acc: Accuracy {
                epsilon: get(&flags, "epsilon", 0.2)?,
                delta: get(&flags, "delta", 0.1)?,
                seed,
                ..Accuracy::default()
            },
            exact: flags.contains_key("exact-windows"),
        };
        if cfg.width == 0 || cfg.stride == 0 {
            return Err(CliFailure::usage("--window/--stride must be positive"));
        }
        for w in windowed_estimates(&stream, &cfg) {
            match w.estimate {
                Ok(est) => println!(
                    "window {:<4} ts [{}, {})  events {:<6} edges {:<6} estimate {est:.1}",
                    w.window, w.ts_start, w.ts_end, w.events, w.edges
                ),
                Err(e) => println!(
                    "window {:<4} ts [{}, {})  events {:<6} edges {:<6} degraded: {e}",
                    w.window, w.ts_start, w.ts_end, w.events, w.edges
                ),
            }
        }
        return Ok(());
    }

    let batch: usize = get(&flags, "batch", 1000)?;
    let capacity: usize = get(&flags, "capacity", (stream.len() / 10).max(64))?;
    if capacity < 3 {
        return Err(CliFailure::usage("--capacity must be at least 3"));
    }
    let mut fd = TriestFd::new(seed, capacity);
    let report = run_update_batches(&stream, batch, &mut fd);
    // --verify: replay through the exact incremental counter, batch-aligned,
    // so every per-batch delta has a recount next to it.
    let exact_per_batch: Option<Vec<f64>> = flags.contains_key("verify").then(|| {
        let mut exact = ExactDynamicTriangles::new();
        stream
            .batches(batch)
            .map(|events| {
                events.iter().for_each(|ev| exact.apply(ev));
                exact.estimate()
            })
            .collect()
    });
    for b in &report.batches {
        let verify = match &exact_per_batch {
            Some(exact) => format!("  exact {:.1}", exact[b.batch]),
            None => String::new(),
        };
        println!(
            "batch {:<4} events {:<6} +{}/-{}  estimate {:.1}  delta {:+.1}{verify}",
            b.batch, b.events, b.inserts, b.deletes, b.estimate, b.delta
        );
    }
    let (d_in, d_out) = fd.deletion_debt();
    println!(
        "capacity      {capacity} edges (sample {})",
        fd.sample_size()
    );
    println!("debt          d_i {d_in}, d_o {d_out}");
    println!("peak state    {} bytes", report.peak_state_bytes);
    match exact_per_batch.as_deref().and_then(<[f64]>::last) {
        Some(exact) => println!(
            "final         estimate {:.1}  exact {exact:.1}",
            fd.estimate()
        ),
        None => println!("final         estimate {:.1}", fd.estimate()),
    }
    Ok(())
}

fn cmd_gadget(args: &[String]) -> Result<(), CliFailure> {
    let (fig, rest) = args.split_first().ok_or("gadget: missing figure")?;
    let flags = parse_flags(rest)?;
    let seed: u64 = get(&flags, "seed", 1)?;
    let answer = match flags.get("answer").map(String::as_str).unwrap_or("yes") {
        "yes" => true,
        "no" => false,
        other => {
            return Err(CliFailure::usage(format!(
                "--answer must be yes|no, got {other:?}"
            )))
        }
    };
    let gadget = match fig.as_str() {
        "fig-a" => gd::pj3_triangle_gadget(
            &Pj3Instance::random_with_answer(get(&flags, "r", 32)?, answer, seed),
            get(&flags, "k", 6)?,
        ),
        "fig-b" => gd::disj3_triangle_gadget(
            &Disj3Instance::random_promise(get(&flags, "r", 32)?, 0.3, answer, seed),
            get(&flags, "k", 4)?,
        ),
        "fig-c" => {
            let q = get(&flags, "q", 3)?;
            gd::index_four_cycle_gadget(
                &gd::random_index_instance_for_plane(q, answer, seed),
                q,
                get(&flags, "t", 6)?,
            )
        }
        "fig-d" => {
            let q1 = get(&flags, "q1", 3)?;
            gd::disj_four_cycle_gadget(
                &gd::random_disj_instance_for_plane(q1, 0.3, answer, seed),
                q1,
                get(&flags, "q2", 2)?,
            )
        }
        "fig-e" => gd::disj_long_cycle_gadget(
            &DisjInstance::random_promise(get(&flags, "r", 100)?, 0.3, answer, seed),
            get(&flags, "ell", 5)?,
            get(&flags, "t", 16)?,
        ),
        other => return Err(CliFailure::usage(format!("unknown gadget {other:?}"))),
    };
    emit(&gadget.graph, flags.get("o"))?;
    eprintln!(
        "{fig}: n = {}, m = {}, {}-cycles = {} (answer {})",
        gadget.graph.vertex_count(),
        gadget.graph.edge_count(),
        gadget.cycle_len,
        gadget.expected_cycles(),
        answer
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Daemon client (`register`/`submit`/`status`/`cancel`): each subcommand
// writes one JSON request line over the adjstreamd Unix socket and reads
// one response line back (see `adjstream::service::protocol`).
// ---------------------------------------------------------------------------

fn daemon_socket(flags: &HashMap<String, String>) -> Result<String, CliFailure> {
    flags
        .get("socket")
        .cloned()
        .ok_or_else(|| CliFailure::usage("missing required --socket (path to adjstreamd.sock)"))
}

/// Send one request line to the daemon, read the one-line response, and
/// classify non-`ok` responses (typed rejections vs. daemon errors).
fn daemon_request(socket: &str, request: &Json) -> Result<Json, CliFailure> {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;
    let stream = UnixStream::connect(socket)
        .map_err(|e| CliFailure::io(format!("cannot connect to daemon at {socket}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliFailure::io(format!("socket clone failed: {e}")))?;
    writeln!(writer, "{request}")
        .and_then(|()| writer.flush())
        .map_err(|e| CliFailure::io(format!("socket write failed: {e}")))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| CliFailure::io(format!("socket read failed: {e}")))?;
    if line.trim().is_empty() {
        return Err(CliFailure::io(
            "daemon closed the connection without replying",
        ));
    }
    let response = sjson::parse(line.trim())
        .map_err(|e| CliFailure::io(format!("unparseable daemon response: {e}")))?;
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(response);
    }
    Err(daemon_failure(&response))
}

/// Map a non-`ok` daemon response onto a classified CLI failure. Typed
/// backpressure rejections keep their reason slug as the message.
fn daemon_failure(response: &Json) -> CliFailure {
    let error = response.str_field("error").unwrap_or("unknown");
    if error == "rejected" {
        let reason = response.str_field("reason").unwrap_or("unspecified");
        return CliFailure::new(
            EXIT_IO,
            "rejected",
            format!("daemon rejected request: {reason}"),
        );
    }
    let detail = response.str_field("detail").unwrap_or("");
    CliFailure::new(EXIT_IO, "daemon", format!("daemon error {error}: {detail}"))
}

fn cmd_register(args: &[String]) -> Result<(), CliFailure> {
    let (file, rest) = args
        .split_first()
        .ok_or_else(|| CliFailure::usage("register: missing trace file"))?;
    let flags = parse_flags(rest)?;
    let socket = daemon_socket(&flags)?;
    let name = flags
        .get("name")
        .cloned()
        .ok_or_else(|| CliFailure::usage("register: missing required --name"))?;
    // The daemon opens the file itself, and its working directory may
    // differ from ours — always send an absolute path.
    let path = std::fs::canonicalize(file)
        .map_err(|e| CliFailure::io(format!("cannot resolve {file}: {e}")))?;
    let request = sjson::obj(vec![
        ("op", Json::Str("register".into())),
        ("name", Json::Str(name)),
        ("path", Json::Str(path.display().to_string())),
    ]);
    println!("{}", daemon_request(&socket, &request)?);
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), CliFailure> {
    let flags = parse_flags(args)?;
    let socket = daemon_socket(&flags)?;
    let trace = flags
        .get("trace")
        .cloned()
        .ok_or_else(|| CliFailure::usage("submit: missing required --trace"))?;
    let kind = match flags.get("kind").map(String::as_str).unwrap_or("triangles") {
        "c4" => "four-cycles", // local `estimate` spells it c4; the daemon says four-cycles
        other => other,        // the daemon rejects unknown kinds
    };
    let mut fields = vec![
        ("op", Json::Str("submit".into())),
        ("trace", Json::Str(trace)),
        ("kind", Json::Str(kind.into())),
    ];
    if let Some(guard) = flags.get("guard") {
        if !matches!(guard.as_str(), "strict" | "repair" | "observe") {
            return Err(CliFailure::usage(format!(
                "--guard must be strict|repair|observe, got {guard:?}"
            )));
        }
        fields.push(("guard", Json::Str(guard.clone())));
    }
    for (flag, field) in [
        ("t-lower", "t_lower"),
        ("seed", "seed"),
        ("priority", "priority"),
        ("min-survivors", "min_survivors"),
        ("deadline-ms", "deadline_ms"),
        ("max-bytes", "max_instance_bytes"),
        ("max-total-bytes", "max_total_bytes"),
        ("batch-size", "batch_size"),
        ("capacity", "capacity"),
        ("shards", "shards"),
    ] {
        if let Some(v) = flags.get(flag) {
            let n: u64 = v
                .parse()
                .map_err(|_| CliFailure::usage(format!("invalid --{flag} {v:?}")))?;
            fields.push((field, Json::Num(n as f64)));
        }
    }
    for flag in ["epsilon", "delta"] {
        if let Some(v) = flags.get(flag) {
            let n: f64 = v
                .parse()
                .map_err(|_| CliFailure::usage(format!("invalid --{flag} {v:?}")))?;
            fields.push((flag, Json::Num(n)));
        }
    }
    let response = daemon_request(&socket, &sjson::obj(fields))?;
    if !flags.contains_key("wait") {
        println!("{response}");
        return Ok(());
    }
    let id = response
        .str_field("id")
        .map(str::to_string)
        .ok_or_else(|| CliFailure::io("daemon response missing job id"))?;
    let poll = std::time::Duration::from_millis(get(&flags, "poll-ms", 50u64)?);
    wait_for_terminal(&socket, &id, poll)
}

/// Poll `status` until the job reaches a terminal state; print the final
/// status line and map failure states onto the usual exit codes.
fn wait_for_terminal(socket: &str, id: &str, poll: std::time::Duration) -> Result<(), CliFailure> {
    let request = sjson::obj(vec![
        ("op", Json::Str("status".into())),
        ("id", Json::Str(id.to_string())),
    ]);
    loop {
        let response = daemon_request(socket, &request)?;
        match response.str_field("state").unwrap_or("unknown") {
            "done" => {
                println!("{response}");
                return Ok(());
            }
            "degraded" => {
                println!("{response}");
                return Err(CliFailure::new(
                    EXIT_DEGRADED,
                    "degraded",
                    format!("job {id} degraded: too few surviving repetitions"),
                ));
            }
            "failed" => {
                println!("{response}");
                let reason = response
                    .str_field("reason")
                    .unwrap_or("unknown")
                    .to_string();
                let (exit, kind) = match reason.as_str() {
                    "deadline" => (EXIT_DEADLINE, "deadline"),
                    "space_budget" => (EXIT_SPACE, "space-budget"),
                    "checkpoint" => (EXIT_CHECKPOINT, "checkpoint"),
                    _ => (EXIT_IO, "failed"),
                };
                return Err(CliFailure::new(
                    exit,
                    kind,
                    format!("job {id} failed: {reason}"),
                ));
            }
            _ => std::thread::sleep(poll),
        }
    }
}

fn cmd_status(args: &[String]) -> Result<(), CliFailure> {
    let flags = parse_flags(args)?;
    let socket = daemon_socket(&flags)?;
    let mut fields = vec![("op", Json::Str("status".into()))];
    if let Some(id) = flags.get("id") {
        fields.push(("id", Json::Str(id.clone())));
    }
    println!("{}", daemon_request(&socket, &sjson::obj(fields))?);
    Ok(())
}

fn cmd_cancel(args: &[String]) -> Result<(), CliFailure> {
    let flags = parse_flags(args)?;
    let socket = daemon_socket(&flags)?;
    let id = flags
        .get("id")
        .cloned()
        .ok_or_else(|| CliFailure::usage("cancel: missing required --id"))?;
    let request = sjson::obj(vec![
        ("op", Json::Str("cancel".into())),
        ("id", Json::Str(id)),
    ]);
    println!("{}", daemon_request(&socket, &request)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_handles_pairs_and_output() {
        let flags = parse_flags(&args(&["--n", "100", "-o", "file.txt", "--seed", "7"])).unwrap();
        assert_eq!(flags.get("n").unwrap(), "100");
        assert_eq!(flags.get("o").unwrap(), "file.txt");
        assert_eq!(flags.get("seed").unwrap(), "7");
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_dangling_flags() {
        assert!(parse_flags(&args(&["100"])).is_err());
        assert!(parse_flags(&args(&["--n"])).is_err());
    }

    #[test]
    fn get_parses_with_defaults() {
        let flags = parse_flags(&args(&["--n", "42"])).unwrap();
        assert_eq!(get(&flags, "n", 0usize).unwrap(), 42);
        assert_eq!(get(&flags, "missing", 9usize).unwrap(), 9);
        assert!(get(&flags, "n", 0.5f64).is_ok());
        let bad = parse_flags(&args(&["--n", "xyz"])).unwrap();
        assert!(get(&bad, "n", 0usize).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
    }

    #[test]
    fn gen_count_estimate_roundtrip_via_files() {
        let dir = std::env::temp_dir();
        let gpath = dir.join(format!("adjstream-cli-test-{}.txt", std::process::id()));
        let gs = gpath.to_string_lossy().to_string();
        run(&args(&[
            "gen", "cliques", "--s", "5", "--k", "4", "-o", &gs,
        ]))
        .unwrap();
        run(&args(&["count", &gs, "--kind", "triangles"])).unwrap();
        run(&args(&["info", &gs])).unwrap();
        let spath = dir.join(format!("adjstream-cli-stream-{}.txt", std::process::id()));
        let ss = spath.to_string_lossy().to_string();
        run(&args(&["stream", &gs, "--seed", "3", "-o", &ss])).unwrap();
        run(&args(&["validate-stream", &ss])).unwrap();
        run(&args(&["estimate-stream", &ss, "--budget", "40"])).unwrap();
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&spath).ok();
    }

    #[test]
    fn sharded_estimate_stream_runs_all_in_process_modes() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gs = dir
            .join(format!("adjstream-cli-shard-g-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let ss = dir
            .join(format!("adjstream-cli-shard-s-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let bs = dir
            .join(format!("adjstream-cli-shard-{pid}.adjb"))
            .to_string_lossy()
            .to_string();
        let ms = dir
            .join(format!("adjstream-cli-shard-{pid}.metrics.json"))
            .to_string_lossy()
            .to_string();
        run(&args(&[
            "gen", "gnm", "--n", "60", "--m", "240", "--seed", "5", "-o", &gs,
        ]))
        .unwrap();
        run(&args(&["stream", &gs, "--seed", "3", "-o", &ss])).unwrap();
        run(&args(&[
            "convert-trace",
            &ss,
            "-o",
            &bs,
            "--format",
            "adjb",
        ]))
        .unwrap();
        // Thread mode over the owned text trace and the binary trace.
        run(&args(&[
            "estimate-stream",
            &ss,
            "--shards",
            "2",
            "--budget",
            "40",
        ]))
        .unwrap();
        run(&args(&[
            "estimate-stream",
            &bs,
            "--shards",
            "4",
            "--budget",
            "40",
        ]))
        .unwrap();
        // Zero-copy mmap replay with deferred verification, plus metrics.
        run(&args(&[
            "estimate-stream",
            &bs,
            "--shards",
            "4",
            "--mmap",
            "--budget",
            "40",
            "--metrics-out",
            &ms,
        ]))
        .unwrap();
        let metrics = std::fs::read_to_string(&ms).unwrap();
        assert!(metrics.contains("\"passes\""));
        // Guard policy repairs upstream of the shard split.
        run(&args(&[
            "estimate-stream",
            &bs,
            "--shards",
            "2",
            "--policy",
            "repair",
        ]))
        .unwrap();
        // --shards 0 is a usage error; mmap needs a binary trace.
        assert!(run(&args(&["estimate-stream", &bs, "--shards", "0"])).is_err());
        assert!(run(&args(&["estimate-stream", &ss, "--mmap"])).is_err());
        for p in [&gs, &ss, &bs, &ms] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn update_stream_accepts_a_zero_length_trace() {
        // Regression: a zero-length file is the empty update trace — a
        // successful run with 0 events, not exit 3.
        let path = std::env::temp_dir()
            .join(format!("adjstream-cli-empty-{}.txt", std::process::id()))
            .to_string_lossy()
            .to_string();
        std::fs::write(&path, b"").unwrap();
        run(&args(&["update-stream", &path])).unwrap();
        run(&args(&["update-stream", &path, "--verify"])).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn import_edges_round_trips_and_is_deterministic() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let edges = dir.join(format!("adjstream-cli-imp-{pid}.txt"));
        // A triangle on raw SNAP-style ids plus a duplicate and a loop.
        std::fs::write(
            &edges,
            "# comment\n100 200\n200 300\n300 100\n100 200\n7 7\n",
        )
        .unwrap();
        let edges = edges.to_string_lossy().to_string();
        let out_a = dir
            .join(format!("adjstream-cli-imp-a-{pid}.adjb"))
            .to_string_lossy()
            .to_string();
        let out_b = dir
            .join(format!("adjstream-cli-imp-b-{pid}.adjb"))
            .to_string_lossy()
            .to_string();
        run(&args(&["import-edges", &edges, "-o", &out_a, "--json"])).unwrap();
        // Different bucket count, same seed: identical bytes.
        run(&args(&[
            "import-edges",
            &edges,
            "-o",
            &out_b,
            "--buckets",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&out_a).unwrap(),
            std::fs::read(&out_b).unwrap()
        );
        // The import feeds straight into the estimation pipeline.
        run(&args(&["estimate-stream", &out_a, "--budget", "64"])).unwrap();
        // Policy errors surface as invalid-stream.
        assert!(run(&args(&[
            "import-edges",
            &edges,
            "-o",
            &out_b,
            "--dups",
            "error"
        ]))
        .is_err());
        for f in [&edges, &out_a, &out_b] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn gen_updates_and_update_stream_pipeline() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gs = dir
            .join(format!("adjstream-cli-upd-g-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let us = dir
            .join(format!("adjstream-cli-upd-u-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        run(&args(&[
            "gen", "cliques", "--s", "5", "--k", "6", "-o", &gs,
        ]))
        .unwrap();
        run(&args(&[
            "gen-updates",
            &gs,
            "--churn",
            "100",
            "--delete-fraction",
            "0.4",
            "--seed",
            "3",
            "-o",
            &us,
        ]))
        .unwrap();
        // Batched mode, with and without the exact cross-check.
        run(&args(&["update-stream", &us, "--batch", "40"])).unwrap();
        run(&args(&[
            "update-stream",
            &us,
            "--batch",
            "40",
            "--capacity",
            "1000",
            "--verify",
        ]))
        .unwrap();
        // Sliding-window mode, exact and estimated.
        run(&args(&[
            "update-stream",
            &us,
            "--window",
            "60",
            "--exact-windows",
        ]))
        .unwrap();
        run(&args(&[
            "update-stream",
            &us,
            "--window",
            "120",
            "--stride",
            "60",
            "--epsilon",
            "0.3",
        ]))
        .unwrap();
        // Bad flags and malformed traces are typed failures.
        let err = run(&args(&["update-stream", &us, "--capacity", "2"])).unwrap_err();
        assert_eq!(err.exit, EXIT_USAGE);
        let err = run(&args(&["update-stream", &us, "--window", "0"])).unwrap_err();
        assert_eq!(err.exit, EXIT_USAGE);
        let bad = dir
            .join(format!("adjstream-cli-upd-bad-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        std::fs::write(&bad, "+ 1 1 0\n").unwrap();
        let err = run(&args(&["update-stream", &bad])).unwrap_err();
        assert_eq!(err.exit, EXIT_INVALID_STREAM);
        assert_eq!(err.kind, "invalid-stream");
        std::fs::remove_file(&gs).ok();
        std::fs::remove_file(&us).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn corrupt_validate_and_guarded_estimate_pipeline() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gs = dir
            .join(format!("adjstream-cli-rob-g-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let ss = dir
            .join(format!("adjstream-cli-rob-s-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let bad = dir
            .join(format!("adjstream-cli-rob-bad-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        run(&args(&[
            "gen", "cliques", "--s", "5", "--k", "6", "-o", &gs,
        ]))
        .unwrap();
        run(&args(&["stream", &gs, "--seed", "3", "-o", &ss])).unwrap();
        // Clean stream validates in every mode.
        for mode in ["offline", "online", "bounded"] {
            run(&args(&["validate-stream", &ss, "--mode", mode])).unwrap();
        }
        run(&args(&[
            "corrupt",
            &ss,
            "--seed",
            "7",
            "--faults",
            "drop-direction:2,self-loop",
            "-o",
            &bad,
        ]))
        .unwrap();
        // The corrupted stream fails validation — non-zero exit via Err —
        // with the fault position in the message when one exists.
        for mode in ["offline", "online"] {
            let err = run(&args(&["validate-stream", &bad, "--mode", mode])).unwrap_err();
            assert!(err.message.contains("invalid stream"), "{}", err.message);
            assert_eq!(err.exit, EXIT_INVALID_STREAM);
            assert_eq!(err.kind, "invalid-stream");
        }
        // Unguarded estimation refuses the corrupted stream...
        assert!(run(&args(&["estimate-stream", &bad, "--budget", "40"])).is_err());
        // ...strict guarding reports the violation as a typed failure...
        let err = run(&args(&[
            "estimate-stream",
            &bad,
            "--budget",
            "40",
            "--policy",
            "strict",
        ]))
        .unwrap_err();
        assert!(
            err.message.contains("invalid stream in pass"),
            "{}",
            err.message
        );
        assert_eq!(err.exit, EXIT_INVALID_STREAM);
        // ...and repair/observe degrade gracefully.
        for policy in ["repair", "observe"] {
            run(&args(&[
                "estimate-stream",
                &bad,
                "--budget",
                "40",
                "--policy",
                policy,
            ]))
            .unwrap();
        }
        // Bad flag values are rejected.
        assert!(run(&args(&["validate-stream", &ss, "--mode", "bogus"])).is_err());
        assert!(run(&args(&["corrupt", &ss, "--faults", "nonsense"])).is_err());
        assert!(run(&args(&["corrupt", &ss, "--faults", "reorder-pass"])).is_err());
        for f in [&gs, &ss, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn self_loop_position_is_reported() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let p = dir
            .join(format!("adjstream-cli-rob-pos-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        std::fs::write(&p, "0 1\n0 0\n1 0\n").unwrap();
        let err = run(&args(&["validate-stream", &p, "--mode", "online"])).unwrap_err();
        assert!(err.message.contains("at item 1"), "{}", err.message);
        std::fs::remove_file(&p).ok();
    }

    fn temp_graph(tag: &str) -> String {
        let p =
            std::env::temp_dir().join(format!("adjstream-cli-{tag}-{}.txt", std::process::id()));
        let s = p.to_string_lossy().to_string();
        run(&args(&["gen", "cliques", "--s", "5", "--k", "5", "-o", &s])).unwrap();
        s
    }

    /// A file that cannot be written is an I/O failure (exit 8) for every
    /// command that writes one, never a usage error.
    #[test]
    fn output_write_failures_are_io_failures() {
        let gs = temp_graph("write-fail");
        let ss = gs.replace(".txt", "-items.txt");
        let p1 = gs.replace(".txt", "-pass1.txt");
        run(&args(&["stream", &gs, "-o", &ss])).unwrap();
        let bad = "/nonexistent/dir/out.txt";
        for cmd in [
            vec!["gen", "cliques", "--s", "3", "--k", "3", "-o", bad],
            vec!["gadget", "fig-a", "-o", bad],
            vec!["stream", &gs, "-o", bad],
            vec!["corrupt", &ss, "--faults", "self-loop", "-o", bad],
            vec![
                "corrupt",
                &ss,
                "--faults",
                "reorder-pass",
                "-o",
                &p1,
                "--replay-o",
                bad,
            ],
            vec!["convert-trace", &ss, "--format", "text", "-o", bad],
            vec!["convert-trace", &ss, "--format", "adjb", "-o", bad],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert_eq!((err.exit, err.kind), (EXIT_IO, "io"), "{cmd:?}");
        }
        // A bad --format is a usage error that creates no output file.
        let us = gs.replace(".txt", "-updates.txt");
        let out = gs.replace(".txt", "-never.txt");
        run(&args(&["gen-updates", &gs, "-o", &us])).unwrap();
        for cmd in [
            vec!["gen-updates", &gs, "--format", "bogus", "-o", &out],
            vec!["convert-updates", &us, "--format", "bogus", "-o", &out],
            vec!["convert-trace", &ss, "--format", "bogus", "-o", &out],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert_eq!((err.exit, err.kind), (EXIT_USAGE, "usage"), "{cmd:?}");
            assert!(!std::path::Path::new(&out).exists(), "{cmd:?} created -o");
        }
        for f in [&gs, &ss, &p1, &us] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn failure_classes_map_to_stable_exit_codes() {
        // Usage failures.
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_USAGE, "usage"));
        // I/O failures.
        let err = run(&args(&["info", "/no/such/file.txt"])).unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_IO, "io"));
        let gs = temp_graph("exit");
        // Deadline failures.
        let err = run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--deadline-secs",
            "0",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_DEADLINE, "deadline"));
        // Degraded runs: a 1-byte instance budget kills every repetition.
        let err = run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--max-bytes",
            "1",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_DEGRADED, "degraded"));
        assert!(err.message.contains("degraded run"), "{}", err.message);
        // Aggregate space budget failures.
        let err = run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--max-total-bytes",
            "1",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_SPACE, "space-budget"));
        // Checkpoint failures: resuming over a truncated checkpoint.
        let dir = std::env::temp_dir().join(format!("adjstream-cli-exit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("triangles-{:016x}.ckpt", 3)), b"ADJ").unwrap();
        let err = run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--checkpoint-dir",
            &dir.to_string_lossy(),
            "--job-id",
            "3",
            "--resume",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_CHECKPOINT, "checkpoint"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&gs).ok();
    }

    #[test]
    fn failure_json_is_machine_readable() {
        let f = CliFailure::new(EXIT_DEADLINE, "deadline", "ran \"out\"\nof C:\\time");
        assert_eq!(
            f.json(),
            r#"{"error":{"kind":"deadline","exit":6,"message":"ran \"out\"\nof C:\\time"}}"#
        );
    }

    #[test]
    fn generous_budget_flags_succeed_including_auto() {
        let gs = temp_graph("budget");
        run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--max-bytes",
            "auto",
            "--deadline-secs",
            "60",
            "--min-survivors",
            "1",
        ]))
        .unwrap();
        assert!(run(&args(&["estimate", &gs, "--max-bytes", "junk"])).is_err());
        assert!(run(&args(&["estimate", &gs, "--deadline-secs", "nan"])).is_err());
        std::fs::remove_file(&gs).ok();
    }

    #[test]
    fn checkpoint_flags_are_validated_and_run() {
        let gs = temp_graph("ckpt");
        let dir =
            std::env::temp_dir().join(format!("adjstream-cli-ckpt-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.to_string_lossy().to_string();
        // --resume without --checkpoint-dir is a usage error.
        let err = run(&args(&["estimate", &gs, "--resume"])).unwrap_err();
        assert_eq!(err.exit, EXIT_USAGE);
        // --checkpoint-dir without --t-lower is a usage error.
        let err = run(&args(&["estimate", &gs, "--checkpoint-dir", &ds])).unwrap_err();
        assert!(err.message.contains("--t-lower"), "{}", err.message);
        // A full checkpointed run succeeds and cleans up its file — the
        // checkpoint name is namespaced by the (pinned) job id.
        run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--checkpoint-dir",
            &ds,
            "--job-id",
            "7",
        ]))
        .unwrap();
        assert!(!dir.join(format!("triangles-{:016x}.ckpt", 7)).exists());
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .collect();
        assert!(leftover.is_empty(), "stray checkpoints: {leftover:?}");
        // Resuming with no checkpoint on disk is a checkpoint failure.
        let err = run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--checkpoint-dir",
            &ds,
            "--resume",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_CHECKPOINT, "checkpoint"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&gs).ok();
    }

    /// Default job ids must not move within a checkpoint format version,
    /// or `--resume` would miss the checkpoint an earlier build wrote. The
    /// name is `checksum64` of the run identity; it last moved together
    /// with the checkpoint version bump to 2, which makes older
    /// checkpoints unreadable anyway.
    #[test]
    fn default_checkpoint_name_is_stable() {
        let id = default_job_id("g.txt", 9000, 5, 0.15);
        assert_eq!(
            format!("triangles-{id:016x}.ckpt"),
            "triangles-0d63855398f71b3c.ckpt"
        );
    }

    #[test]
    fn retries_flag_is_accepted_and_missing_files_exhaust_it() {
        let err = run(&args(&[
            "validate-stream",
            "/no/such/stream.txt",
            "--retries",
            "1",
        ]))
        .unwrap_err();
        assert_eq!((err.exit, err.kind), (EXIT_IO, "io"));
        assert!(err.message.contains("gave up after 2"), "{}", err.message);
    }

    #[test]
    fn metrics_out_writes_schema_versioned_json() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gs = temp_graph("metrics");
        let ss = dir
            .join(format!("adjstream-cli-metrics-s-{pid}.txt"))
            .to_string_lossy()
            .to_string();
        let m1 = dir
            .join(format!("adjstream-cli-metrics-1-{pid}.json"))
            .to_string_lossy()
            .to_string();
        let m2 = dir
            .join(format!("adjstream-cli-metrics-2-{pid}.json"))
            .to_string_lossy()
            .to_string();
        run(&args(&[
            "estimate",
            &gs,
            "--t-lower",
            "50",
            "--metrics-out",
            &m1,
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&m1).unwrap();
        assert!(body.starts_with("{\"schema\": 1,"), "{body}");
        assert!(body.contains("\"peak_state_bytes\":"), "{body}");
        assert!(body.contains("\"sampler\":"), "{body}");
        run(&args(&["stream", &gs, "--seed", "3", "-o", &ss])).unwrap();
        run(&args(&[
            "estimate-stream",
            &ss,
            "--budget",
            "40",
            "--metrics-out",
            &m2,
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&m2).unwrap();
        assert!(body.starts_with("{\"schema\": 1,"), "{body}");
        assert!(body.contains("\"retry\":"), "{body}");
        for f in [&gs, &ss, &m1, &m2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn gadget_command_builds_each_figure() {
        for fig in ["fig-a", "fig-b", "fig-c", "fig-d", "fig-e"] {
            let out = std::env::temp_dir().join(format!(
                "adjstream-cli-gadget-{fig}-{}.txt",
                std::process::id()
            ));
            let os = out.to_string_lossy().to_string();
            run(&args(&["gadget", fig, "-o", &os])).unwrap();
            std::fs::remove_file(&out).ok();
        }
    }
}
