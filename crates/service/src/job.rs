//! The daemon's job model: specs, lifecycle states, and on-disk manifests.
//!
//! A job is one estimation (or validation) request against a registered
//! trace. Its lifecycle is the typed state machine the chaos harness
//! asserts over:
//!
//! ```text
//! Queued ─→ Running ─→ Done
//!    ↑         │  ├──→ Degraded   (below-quorum survivors)
//!    │         │  └──→ Failed     (typed reason: panic, deadline, …)
//!    └──── Suspended  (preemption, drain, crash — resumable)
//! ```
//!
//! Every transition is persisted as a JSON *manifest* (`job-<id>.json`)
//! in the daemon's state directory, next to the job's pass-boundary
//! checkpoint (`job-<id>.ckpt`). After a crash the recovery scan rebuilds
//! the queue from manifests alone; checkpoints only accelerate the replay
//! (a missing or corrupt one costs a recompute, never a wrong answer).

use std::fmt;
use std::path::{Path, PathBuf};

use adjstream_stream::GuardPolicy;

use crate::json::{obj, parse, Json};

/// Job identifier: a dense sequence number, rendered as zero-padded hex so
/// manifests sort in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl JobId {
    /// Parse the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<JobId> {
        if s.len() == 16 {
            u64::from_str_radix(s, 16).ok().map(JobId)
        } else {
            None
        }
    }

    /// Manifest path for this job under `state_dir`.
    pub fn manifest_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{self}.json"))
    }

    /// Checkpoint path for this job under `state_dir`.
    pub fn checkpoint_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{self}.ckpt"))
    }

    /// Per-batch report sidecar for update jobs under `state_dir`,
    /// written once when the job completes. The recovery chaos test
    /// compares these files bit-for-bit between interrupted and
    /// uninterrupted runs.
    pub fn batches_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{self}.batches"))
    }
}

/// What the job computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// Theorem 3.7 two-pass triangle estimate with a `T ≥ t_lower` promise.
    Triangles {
        /// Lower bound on the triangle count.
        t_lower: u64,
    },
    /// Theorem 4.6 two-pass 4-cycle estimate with a `T ≥ t_lower` promise.
    FourCycles {
        /// Lower bound on the 4-cycle count.
        t_lower: u64,
    },
    /// Adjacency-list model conformance check of the trace itself.
    Validate,
    /// Fully-dynamic TRIÈST-FD triangle estimation over a registered
    /// update trace, driven in batches with a checkpoint at every batch
    /// boundary (the dynamic analogue of a pass boundary).
    Update {
        /// Events per batch; each boundary is a preemption/checkpoint
        /// point and yields one per-batch estimate delta.
        batch_size: usize,
        /// TRIÈST-FD reservoir capacity `M'` (at least 3).
        capacity: usize,
        /// How the update guard reacts to invalid events (dead deletes,
        /// duplicate inserts, timestamp regressions).
        guard: GuardPolicy,
    },
}

impl JobKind {
    fn name(&self) -> &'static str {
        match self {
            JobKind::Triangles { .. } => "triangles",
            JobKind::FourCycles { .. } => "four-cycles",
            JobKind::Validate => "validate",
            JobKind::Update { .. } => "update",
        }
    }
}

/// Per-job resource limits, mirroring the engine's `Budget` in plain
/// JSON-friendly units. Declared at submission; used both for admission
/// control (the scheduler sums declared bytes) and enforcement (the worker
/// arms the engine's budget with them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    /// Per-instance state cap in bytes (quarantines single repetitions).
    pub max_instance_bytes: Option<usize>,
    /// Whole-job resident-state cap in bytes (aborts the job).
    pub max_total_bytes: Option<usize>,
    /// Wall-clock deadline in milliseconds, measured per execution
    /// segment: the clock starts when a worker picks the job up and
    /// restarts whenever a suspended job resumes.
    pub deadline_ms: Option<u64>,
}

/// Deterministic failure injection for the chaos harness. Both knobs are
/// plumbed end-to-end through the protocol so tests drive them over the
/// same socket a real client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Chaos {
    /// Panic inside the worker right before running this (0-based) pass.
    pub panic_in_pass: Option<usize>,
    /// Sleep this long before each pass — widens the window for kill -9
    /// style interruption tests.
    pub delay_ms_per_pass: u64,
}

/// A submitted job: everything needed to (re)execute it from nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Catalog name of the trace to run against.
    pub trace: String,
    /// What to compute.
    pub kind: JobKind,
    /// Accuracy target `ε` (triangles only; 4-cycles are constant-factor).
    pub epsilon: f64,
    /// Failure probability `δ` — sets the repetition count.
    pub delta: f64,
    /// Master seed; repetition `i` runs at `seed + i`.
    pub seed: u64,
    /// Scheduling priority, 0 (lowest) to 9; higher may preempt lower.
    pub priority: u8,
    /// Minimum surviving repetitions for a usable median (`None`: quorum).
    pub min_survivors: Option<usize>,
    /// Resource limits.
    pub budget: JobBudget,
    /// Failure injection.
    pub chaos: Chaos,
    /// Collect a [`MetricsSnapshot`](adjstream_stream::MetricsSnapshot)
    /// for this job and fold it into the daemon's aggregate.
    pub collect_metrics: bool,
    /// Graph shards for triangles jobs (1 = unsharded). Sharded
    /// repetitions partition the trace by list-owner vertex and merge
    /// per-shard state at every pass boundary — the estimate is
    /// bit-identical to the unsharded sharded-estimator run. Preemption
    /// and chaos are observed between repetitions, not mid-pass.
    pub shards: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            trace: String::new(),
            kind: JobKind::Validate,
            epsilon: 0.25,
            delta: 0.1,
            seed: 2019,
            priority: 4,
            min_survivors: None,
            budget: JobBudget::default(),
            chaos: Chaos::default(),
            collect_metrics: false,
            shards: 1,
        }
    }
}

/// Result payload of a finished estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The median estimate. For `Validate` jobs, the item count.
    pub estimate: f64,
    /// Exact bit pattern of `estimate` — the chaos and recovery tests
    /// compare this, so "bit-for-bit" is literal.
    pub estimate_bits: u64,
    /// Repetitions that survived quarantine.
    pub survivors: usize,
    /// Total repetitions run.
    pub repetitions: usize,
    /// Stream passes executed (2 for the two-pass algorithms).
    pub passes: usize,
    /// `Some(p)` when the final segment resumed from a checkpoint taken
    /// after `p` passes.
    pub resumed_from: Option<usize>,
}

impl JobResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("estimate", Json::Num(self.estimate)),
            (
                "estimate_bits",
                Json::Str(format!("{:016x}", self.estimate_bits)),
            ),
            ("survivors", Json::Num(self.survivors as f64)),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("passes", Json::Num(self.passes as f64)),
            (
                "resumed_from",
                match self.resumed_from {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<JobResult> {
        Some(JobResult {
            estimate: v.f64_field("estimate")?,
            estimate_bits: u64::from_str_radix(v.str_field("estimate_bits")?, 16).ok()?,
            survivors: v.u64_field("survivors")? as usize,
            repetitions: v.u64_field("repetitions")? as usize,
            passes: v.u64_field("passes")? as usize,
            resumed_from: v
                .get("resumed_from")
                .and_then(Json::as_u64)
                .map(|p| p as usize),
        })
    }
}

/// The typed lifecycle state every failure mode maps onto.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing; `pass` is the next pass to run.
    Running {
        /// Next (0-based) pass the worker will execute.
        pass: usize,
    },
    /// Interrupted at a pass boundary with a checkpoint on disk;
    /// resumable bit-for-bit.
    Suspended {
        /// Completed passes at the checkpoint.
        pass: usize,
        /// Why the job was suspended (`drain`, `preempted`, `crash`).
        reason: String,
    },
    /// Finished, but below the survivor quorum: the median exists yet the
    /// amplified confidence does not.
    Degraded {
        /// Surviving repetitions.
        survivors: usize,
        /// The quorum it needed.
        required: usize,
    },
    /// Terminal failure with a typed reason (`worker_panic`, `deadline`,
    /// `cancelled`, `invalid_stream`, …).
    Failed {
        /// Machine-readable reason slug.
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Completed successfully.
    Done {
        /// The result payload.
        result: JobResult,
    },
}

impl JobState {
    /// Short state name used on the wire and in manifests.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Suspended { .. } => "suspended",
            JobState::Degraded { .. } => "degraded",
            JobState::Failed { .. } => "failed",
            JobState::Done { .. } => "done",
        }
    }

    /// Whether the state is terminal (no further transitions).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Degraded { .. }
        )
    }
}

/// A job's full persistent record: spec + current state.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's identifier.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
}

impl JobRecord {
    /// Serialize to the manifest JSON document.
    pub fn to_json(&self) -> Json {
        let spec = &self.spec;
        let mut kind_fields = vec![("kind", Json::Str(spec.kind.name().to_string()))];
        match spec.kind {
            JobKind::Triangles { t_lower } | JobKind::FourCycles { t_lower } => {
                kind_fields.push(("t_lower", Json::Num(t_lower as f64)));
            }
            JobKind::Validate => {}
            JobKind::Update {
                batch_size,
                capacity,
                guard,
            } => {
                kind_fields.push(("batch_size", Json::Num(batch_size as f64)));
                kind_fields.push(("capacity", Json::Num(capacity as f64)));
                kind_fields.push(("guard", Json::Str(guard.to_string())));
            }
        }
        let mut fields = vec![("id", Json::Str(self.id.to_string()))];
        fields.push(("trace", Json::Str(spec.trace.clone())));
        fields.extend(kind_fields);
        fields.extend([
            ("epsilon", Json::Num(spec.epsilon)),
            ("delta", Json::Num(spec.delta)),
            ("seed", Json::Num(spec.seed as f64)),
            ("priority", Json::Num(spec.priority as f64)),
            (
                "min_survivors",
                match spec.min_survivors {
                    Some(s) => Json::Num(s as f64),
                    None => Json::Null,
                },
            ),
            (
                "max_instance_bytes",
                match spec.budget.max_instance_bytes {
                    Some(b) => Json::Num(b as f64),
                    None => Json::Null,
                },
            ),
            (
                "max_total_bytes",
                match spec.budget.max_total_bytes {
                    Some(b) => Json::Num(b as f64),
                    None => Json::Null,
                },
            ),
            (
                "deadline_ms",
                match spec.budget.deadline_ms {
                    Some(d) => Json::Num(d as f64),
                    None => Json::Null,
                },
            ),
            (
                "panic_in_pass",
                match spec.chaos.panic_in_pass {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                },
            ),
            (
                "delay_ms_per_pass",
                Json::Num(spec.chaos.delay_ms_per_pass as f64),
            ),
            ("collect_metrics", Json::Bool(spec.collect_metrics)),
            ("shards", Json::Num(spec.shards as f64)),
            ("state", Json::Str(self.state.name().to_string())),
        ]);
        match &self.state {
            JobState::Running { pass } => fields.push(("pass", Json::Num(*pass as f64))),
            JobState::Suspended { pass, reason } => {
                fields.push(("pass", Json::Num(*pass as f64)));
                fields.push(("reason", Json::Str(reason.clone())));
            }
            JobState::Degraded {
                survivors,
                required,
            } => {
                fields.push(("survivors", Json::Num(*survivors as f64)));
                fields.push(("required", Json::Num(*required as f64)));
            }
            JobState::Failed { reason, detail } => {
                fields.push(("reason", Json::Str(reason.clone())));
                fields.push(("detail", Json::Str(detail.clone())));
            }
            JobState::Done { result } => fields.push(("result", result.to_json())),
            JobState::Queued => {}
        }
        obj(fields)
    }

    /// Parse a manifest document; `None` on any structural mismatch (a
    /// recovery scan skips such files rather than refusing to start).
    pub fn from_json(v: &Json) -> Option<JobRecord> {
        let id = JobId::parse(v.str_field("id")?)?;
        let t_lower = v.u64_field("t_lower");
        let kind = match v.str_field("kind")? {
            "triangles" => JobKind::Triangles { t_lower: t_lower? },
            "four-cycles" => JobKind::FourCycles { t_lower: t_lower? },
            "validate" => JobKind::Validate,
            "update" => JobKind::Update {
                batch_size: v.u64_field("batch_size")? as usize,
                capacity: v.u64_field("capacity")? as usize,
                guard: GuardPolicy::parse(v.str_field("guard")?)?,
            },
            _ => return None,
        };
        let spec = JobSpec {
            trace: v.str_field("trace")?.to_string(),
            kind,
            epsilon: v.f64_field("epsilon")?,
            delta: v.f64_field("delta")?,
            seed: v.u64_field("seed")?,
            priority: v.u64_field("priority")?.min(9) as u8,
            min_survivors: v
                .get("min_survivors")
                .and_then(Json::as_u64)
                .map(|s| s as usize),
            budget: JobBudget {
                max_instance_bytes: v
                    .get("max_instance_bytes")
                    .and_then(Json::as_u64)
                    .map(|b| b as usize),
                max_total_bytes: v
                    .get("max_total_bytes")
                    .and_then(Json::as_u64)
                    .map(|b| b as usize),
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            },
            chaos: Chaos {
                panic_in_pass: v
                    .get("panic_in_pass")
                    .and_then(Json::as_u64)
                    .map(|p| p as usize),
                delay_ms_per_pass: v.u64_field("delay_ms_per_pass").unwrap_or(0),
            },
            collect_metrics: v
                .get("collect_metrics")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            // Manifests written before sharding landed have no field:
            // they were unsharded.
            shards: v.u64_field("shards").unwrap_or(1).max(1) as usize,
        };
        let state = match v.str_field("state")? {
            "queued" => JobState::Queued,
            "running" => JobState::Running {
                pass: v.u64_field("pass")? as usize,
            },
            "suspended" => JobState::Suspended {
                pass: v.u64_field("pass")? as usize,
                reason: v.str_field("reason")?.to_string(),
            },
            "degraded" => JobState::Degraded {
                survivors: v.u64_field("survivors")? as usize,
                required: v.u64_field("required")? as usize,
            },
            "failed" => JobState::Failed {
                reason: v.str_field("reason")?.to_string(),
                detail: v.str_field("detail").unwrap_or("").to_string(),
            },
            "done" => JobState::Done {
                result: JobResult::from_json(v.get("result")?)?,
            },
            _ => return None,
        };
        Some(JobRecord { id, spec, state })
    }

    /// Atomically persist the manifest under `state_dir` (write to a temp
    /// sibling, then rename — the same crash discipline the checkpoint
    /// container uses).
    pub fn persist(&self, state_dir: &Path) -> std::io::Result<()> {
        let path = self.id.manifest_path(state_dir);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, format!("{}\n", self.to_json()))?;
        std::fs::rename(&tmp, &path)
    }

    /// Load one manifest file; `None` if unreadable or malformed.
    pub fn load(path: &Path) -> Option<JobRecord> {
        let text = std::fs::read_to_string(path).ok()?;
        JobRecord::from_json(&parse(&text).ok()?)
    }
}

/// Whether `path` is a checkpoint file whose job no longer needs it —
/// the liveness predicate of the daemon's stale-checkpoint GC.
///
/// A `.ckpt` is a GC candidate when its sibling manifest is missing
/// (orphan) **or** parses to a terminal state (`done`/`failed`/
/// `degraded`): a finished job never resumes, so its checkpoint is dead
/// weight the moment the manifest records the terminal transition. A
/// manifest that exists but cannot be parsed keeps the checkpoint — GC
/// must never make recovery worse than doing nothing.
///
/// The old predicate (`!path.with_extension("json").exists()`) treated
/// *any* sibling manifest as live, so checkpoints of completed jobs were
/// retained forever alongside their manifests.
pub fn stale_checkpoint_candidate(path: &Path) -> bool {
    if path.extension().is_none_or(|e| e != "ckpt") {
        return false;
    }
    let manifest = path.with_extension("json");
    if !manifest.exists() {
        return true; // orphan: no manifest will ever resume it
    }
    match JobRecord::load(&manifest) {
        Some(rec) => rec.state.is_terminal(),
        None => false, // unreadable manifest: be conservative, keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            trace: "web".into(),
            kind: JobKind::Triangles { t_lower: 240 },
            epsilon: 0.3,
            delta: 0.2,
            seed: 5,
            priority: 7,
            min_survivors: Some(3),
            budget: JobBudget {
                max_instance_bytes: Some(1 << 20),
                max_total_bytes: None,
                deadline_ms: Some(30_000),
            },
            chaos: Chaos {
                panic_in_pass: Some(1),
                delay_ms_per_pass: 25,
            },
            collect_metrics: true,
            shards: 3,
        }
    }

    #[test]
    fn job_id_round_trips() {
        let id = JobId(0xdead_beef);
        assert_eq!(JobId::parse(&id.to_string()), Some(id));
        assert_eq!(JobId::parse("xyz"), None);
        assert_eq!(JobId::parse("00000000deadbeef"), Some(id));
    }

    #[test]
    fn manifest_round_trips_every_state() {
        let states = vec![
            JobState::Queued,
            JobState::Running { pass: 1 },
            JobState::Suspended {
                pass: 1,
                reason: "drain".into(),
            },
            JobState::Degraded {
                survivors: 2,
                required: 5,
            },
            JobState::Failed {
                reason: "worker_panic".into(),
                detail: "chaos: injected".into(),
            },
            JobState::Done {
                result: JobResult {
                    estimate: 239.874,
                    estimate_bits: 239.874f64.to_bits(),
                    survivors: 9,
                    repetitions: 9,
                    passes: 2,
                    resumed_from: Some(1),
                },
            },
        ];
        for state in states {
            let rec = JobRecord {
                id: JobId(42),
                spec: spec(),
                state,
            };
            let back = JobRecord::from_json(&rec.to_json()).expect("round trip");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn update_kind_round_trips() {
        for guard in [
            GuardPolicy::Strict,
            GuardPolicy::Repair,
            GuardPolicy::Observe,
        ] {
            let rec = JobRecord {
                id: JobId(9),
                spec: JobSpec {
                    kind: JobKind::Update {
                        batch_size: 64,
                        capacity: 500,
                        guard,
                    },
                    ..spec()
                },
                state: JobState::Suspended {
                    pass: 3,
                    reason: "crash".into(),
                },
            };
            let back = JobRecord::from_json(&rec.to_json()).expect("round trip");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn manifests_persist_and_load() {
        let dir = std::env::temp_dir().join(format!("adjsvc-job-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = JobRecord {
            id: JobId(7),
            spec: spec(),
            state: JobState::Queued,
        };
        rec.persist(&dir).unwrap();
        let loaded = JobRecord::load(&rec.id.manifest_path(&dir)).unwrap();
        assert_eq!(loaded, rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (issue 7): the GC liveness filter must parse manifest
    /// *state*, not just test manifest existence — terminal jobs'
    /// checkpoints are collectable, suspended jobs' are not, and garbage
    /// manifests keep their checkpoints.
    #[test]
    fn stale_candidate_parses_manifest_state() {
        let dir = std::env::temp_dir().join(format!("adjsvc-gc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let persist = |id: u64, state: JobState| {
            let rec = JobRecord {
                id: JobId(id),
                spec: spec(),
                state,
            };
            rec.persist(&dir).unwrap();
            let ckpt = rec.id.checkpoint_path(&dir);
            std::fs::write(&ckpt, b"ckpt").unwrap();
            ckpt
        };
        // Orphan: no manifest at all.
        let orphan = JobId(1).checkpoint_path(&dir);
        std::fs::write(&orphan, b"ckpt").unwrap();
        assert!(stale_checkpoint_candidate(&orphan));
        // Terminal manifests release their checkpoints...
        let done = persist(
            2,
            JobState::Done {
                result: JobResult {
                    estimate: 1.0,
                    estimate_bits: 1.0f64.to_bits(),
                    survivors: 9,
                    repetitions: 9,
                    passes: 2,
                    resumed_from: None,
                },
            },
        );
        let failed = persist(
            3,
            JobState::Failed {
                reason: "deadline".into(),
                detail: String::new(),
            },
        );
        assert!(stale_checkpoint_candidate(&done));
        assert!(stale_checkpoint_candidate(&failed));
        // ...non-terminal manifests hold them...
        let suspended = persist(
            4,
            JobState::Suspended {
                pass: 1,
                reason: "drain".into(),
            },
        );
        let queued = persist(5, JobState::Queued);
        assert!(!stale_checkpoint_candidate(&suspended));
        assert!(!stale_checkpoint_candidate(&queued));
        // ...an unparseable manifest keeps its checkpoint (conservative)...
        let garbage = JobId(6).checkpoint_path(&dir);
        std::fs::write(&garbage, b"ckpt").unwrap();
        std::fs::write(JobId(6).manifest_path(&dir), b"{not json").unwrap();
        assert!(!stale_checkpoint_candidate(&garbage));
        // ...and non-checkpoint files are never candidates.
        assert!(!stale_checkpoint_candidate(&JobId(2).manifest_path(&dir)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn terminal_states_are_terminal() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running { pass: 0 }.is_terminal());
        assert!(!JobState::Suspended {
            pass: 1,
            reason: "drain".into()
        }
        .is_terminal());
        assert!(JobState::Degraded {
            survivors: 1,
            required: 2
        }
        .is_terminal());
        assert!(JobState::Failed {
            reason: "x".into(),
            detail: String::new()
        }
        .is_terminal());
    }
}
