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
//!
//! A manifest is a submit request plus `id` and the state fields, so one
//! decoder (`JobSpec::from_json`) reads the spec off the wire and off disk
//! with the same defaults and range checks, and one encoder
//! (`JobState::fields`) writes the state into manifests and `status`
//! replies.

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

impl JobSpec {
    /// Decode a spec from a submit request or a manifest. Absent fields
    /// take the submit defaults; out-of-range values are an error, so a
    /// manifest gets the same checks a submission does.
    pub(crate) fn from_json(v: &Json) -> Result<JobSpec, String> {
        let trace = v
            .str_field("trace")
            .ok_or("submit: missing \"trace\"")?
            .to_string();
        let kind = match v.str_field("kind").unwrap_or("triangles") {
            "triangles" => JobKind::Triangles {
                t_lower: v.u64_field("t_lower").unwrap_or(1),
            },
            "four-cycles" => JobKind::FourCycles {
                t_lower: v.u64_field("t_lower").unwrap_or(1),
            },
            "validate" => JobKind::Validate,
            "update" => {
                let batch_size = v.u64_field("batch_size").unwrap_or(256) as usize;
                if batch_size == 0 {
                    return Err("batch_size must be positive".into());
                }
                let capacity = v.u64_field("capacity").unwrap_or(4096) as usize;
                if capacity < 3 {
                    return Err(format!(
                        "capacity must be at least 3 reservoir slots, got {capacity}"
                    ));
                }
                let guard = match v.str_field("guard") {
                    Some(s) => GuardPolicy::parse(s)
                        .ok_or_else(|| format!("unknown guard policy {s:?}"))?,
                    None => GuardPolicy::Repair,
                };
                JobKind::Update {
                    batch_size,
                    capacity,
                    guard,
                }
            }
            other => return Err(format!("unknown kind {other:?}")),
        };
        let defaults = JobSpec::default();
        let epsilon = v.f64_field("epsilon").unwrap_or(defaults.epsilon);
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(format!(
                "epsilon must be positive and finite, got {epsilon}"
            ));
        }
        let delta = v.f64_field("delta").unwrap_or(defaults.delta);
        if !(delta > 0.0 && delta < 1.0) {
            return Err(format!("delta must be in (0, 1), got {delta}"));
        }
        let shards = v.u64_field("shards").unwrap_or(defaults.shards as u64);
        if shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        let usize_field = |key| v.u64_field(key).map(|n| n as usize);
        Ok(JobSpec {
            trace,
            kind,
            epsilon,
            delta,
            seed: v.u64_field("seed").unwrap_or(defaults.seed),
            priority: v
                .u64_field("priority")
                .unwrap_or(defaults.priority as u64)
                .min(9) as u8,
            min_survivors: usize_field("min_survivors"),
            budget: JobBudget {
                max_instance_bytes: usize_field("max_instance_bytes"),
                max_total_bytes: usize_field("max_total_bytes"),
                deadline_ms: v.u64_field("deadline_ms"),
            },
            chaos: Chaos {
                panic_in_pass: usize_field("panic_in_pass"),
                delay_ms_per_pass: v.u64_field("delay_ms_per_pass").unwrap_or(0),
            },
            collect_metrics: v
                .get("collect_metrics")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            shards: shards as usize,
        })
    }
}

/// An optional count as a JSON number, or `null` when absent.
fn num_or_null(n: Option<u64>) -> Json {
    n.map_or(Json::Null, |n| Json::Num(n as f64))
}

/// Result payload of a finished estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The median estimate. For `Validate` jobs, the edge count.
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
                num_or_null(self.resumed_from.map(|p| p as u64)),
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
    /// Terminal failure with a typed reason: `cancelled`, `worker_panic`,
    /// `trace_unavailable` (which covers a trace that fails validation),
    /// `deadline`, `space_budget`, `checkpoint`, `run_error`,
    /// `shard_failed` or `guard_violation`.
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

    /// The state's JSON fields: `"state"` and then the variant's own, as
    /// both manifests and `status` replies carry them.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![("state", Json::Str(self.name().to_string()))];
        match self {
            JobState::Queued => {}
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
        }
        fields
    }

    fn from_json(v: &Json) -> Option<JobState> {
        let pass = || v.u64_field("pass").map(|p| p as usize);
        Some(match v.str_field("state")? {
            "queued" => JobState::Queued,
            "running" => JobState::Running { pass: pass()? },
            "suspended" => JobState::Suspended {
                pass: pass()?,
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
        })
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
    /// Serialize to the manifest JSON document: the submit request's
    /// fields, with `id` in front and the state fields behind.
    pub fn to_json(&self) -> Json {
        let spec = &self.spec;
        let mut fields = vec![
            ("id", Json::Str(self.id.to_string())),
            ("trace", Json::Str(spec.trace.clone())),
            ("kind", Json::Str(spec.kind.name().to_string())),
        ];
        match spec.kind {
            JobKind::Triangles { t_lower } | JobKind::FourCycles { t_lower } => {
                fields.push(("t_lower", Json::Num(t_lower as f64)));
            }
            JobKind::Validate => {}
            JobKind::Update {
                batch_size,
                capacity,
                guard,
            } => {
                fields.push(("batch_size", Json::Num(batch_size as f64)));
                fields.push(("capacity", Json::Num(capacity as f64)));
                fields.push(("guard", Json::Str(guard.to_string())));
            }
        }
        let count = |n: Option<usize>| num_or_null(n.map(|n| n as u64));
        fields.extend([
            ("epsilon", Json::Num(spec.epsilon)),
            ("delta", Json::Num(spec.delta)),
            ("seed", Json::Num(spec.seed as f64)),
            ("priority", Json::Num(spec.priority as f64)),
            ("min_survivors", count(spec.min_survivors)),
            ("max_instance_bytes", count(spec.budget.max_instance_bytes)),
            ("max_total_bytes", count(spec.budget.max_total_bytes)),
            ("deadline_ms", num_or_null(spec.budget.deadline_ms)),
            ("panic_in_pass", count(spec.chaos.panic_in_pass)),
            (
                "delay_ms_per_pass",
                Json::Num(spec.chaos.delay_ms_per_pass as f64),
            ),
            ("collect_metrics", Json::Bool(spec.collect_metrics)),
            ("shards", Json::Num(spec.shards as f64)),
        ]);
        fields.extend(self.state.fields());
        obj(fields)
    }

    /// Parse a manifest document; `None` on any structural mismatch or a
    /// spec a submission would be refused for (a recovery scan skips such
    /// files rather than refusing to start).
    pub fn from_json(v: &Json) -> Option<JobRecord> {
        Some(JobRecord {
            id: JobId::parse(v.str_field("id")?)?,
            spec: JobSpec::from_json(v).ok()?,
            state: JobState::from_json(v)?,
        })
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

    /// One of every [`JobState`] variant.
    fn every_state() -> Vec<JobState> {
        vec![
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
        ]
    }

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
        for state in every_state() {
            let rec = JobRecord {
                id: JobId(42),
                spec: spec(),
                state,
            };
            let back = JobRecord::from_json(&rec.to_json()).expect("round trip");
            assert_eq!(back, rec);
        }
    }

    /// Manifests are an on-disk format a restarted daemon reads back:
    /// their bytes are pinned for every state and every kind.
    #[test]
    fn manifest_bytes_are_pinned() {
        const SPEC: &str = concat!(
            r#""epsilon":0.3,"delta":0.2,"seed":5,"priority":7,"min_survivors":3,"#,
            r#""max_instance_bytes":1048576,"max_total_bytes":null,"deadline_ms":30000,"#,
            r#""panic_in_pass":1,"delay_ms_per_pass":25,"collect_metrics":true,"shards":3,"#
        );
        let manifest = |kind: JobKind, state: JobState| {
            JobRecord {
                id: JobId(42),
                spec: JobSpec { kind, ..spec() },
                state,
            }
            .to_json()
            .to_string()
        };
        let states = [
            r#""state":"queued"}"#,
            r#""state":"running","pass":1}"#,
            r#""state":"suspended","pass":1,"reason":"drain"}"#,
            r#""state":"degraded","survivors":2,"required":5}"#,
            r#""state":"failed","reason":"worker_panic","detail":"chaos: injected"}"#,
            concat!(
                r#""state":"done","result":{"estimate":239.874,"estimate_bits":"406dfbf7ced91687","#,
                r#""survivors":9,"repetitions":9,"passes":2,"resumed_from":1}}"#
            ),
        ];
        for (state, tail) in every_state().into_iter().zip(states) {
            let want = format!(
                r#"{{"id":"000000000000002a","trace":"web","kind":"triangles","t_lower":240,{SPEC}{tail}"#
            );
            assert_eq!(manifest(spec().kind, state), want);
        }
        let kinds = [
            (
                JobKind::Triangles { t_lower: 240 },
                r#""kind":"triangles","t_lower":240,"#,
            ),
            (
                JobKind::FourCycles { t_lower: 8 },
                r#""kind":"four-cycles","t_lower":8,"#,
            ),
            (JobKind::Validate, r#""kind":"validate","#),
            (
                JobKind::Update {
                    batch_size: 64,
                    capacity: 500,
                    guard: GuardPolicy::Observe,
                },
                r#""kind":"update","batch_size":64,"capacity":500,"guard":"observe","#,
            ),
        ];
        for (kind, fields) in kinds {
            let want = format!(
                r#"{{"id":"000000000000002a","trace":"web",{fields}{SPEC}"state":"queued"}}"#
            );
            assert_eq!(manifest(kind, JobState::Queued), want);
        }
    }

    /// A manifest document for `rec` with one field replaced, or dropped
    /// when `value` is `None`.
    fn edited(rec: &JobRecord, key: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut pairs) = rec.to_json() else {
            unreachable!("a manifest is an object")
        };
        match value {
            Some(v) => pairs
                .iter_mut()
                .filter(|(k, _)| k == key)
                .for_each(|p| p.1 = v.clone()),
            None => pairs.retain(|(k, _)| k != key),
        }
        Json::Obj(pairs)
    }

    fn update_record(id: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            spec: JobSpec {
                kind: JobKind::Update {
                    batch_size: 64,
                    capacity: 500,
                    guard: GuardPolicy::Repair,
                },
                ..spec()
            },
            state: JobState::Suspended {
                pass: 1,
                reason: "crash".into(),
            },
        }
    }

    /// A manifest is decoded by the submit rules: a field it lacks takes
    /// the default a submission without it would get.
    #[test]
    fn manifest_fields_absent_take_submit_defaults() {
        let tri = JobRecord {
            id: JobId(3),
            spec: spec(),
            state: JobState::Queued,
        };
        let spec_without = |rec: &JobRecord, key| {
            JobRecord::from_json(&edited(rec, key, None))
                .expect("recovers")
                .spec
        };
        assert_eq!(
            spec_without(&tri, "t_lower").kind,
            JobKind::Triangles { t_lower: 1 }
        );
        assert_eq!(spec_without(&tri, "epsilon").epsilon, 0.25);
        assert_eq!(spec_without(&tri, "shards").shards, 1);
        assert_eq!(
            spec_without(&update_record(4), "capacity").kind,
            JobKind::Update {
                batch_size: 64,
                capacity: 4096,
                guard: GuardPolicy::Repair,
            }
        );
    }

    /// A manifest whose spec a submission would be refused for is skipped
    /// by recovery like any unparsable one, and GC keeps its checkpoint.
    /// Before, an update job with `capacity: 2` was recovered and its
    /// worker panicked in `TriestFd::new`.
    #[test]
    fn recovery_skips_manifests_a_submit_would_refuse() {
        use crate::server::{Server, ServiceConfig};
        let dir = std::env::temp_dir().join(format!("adjsvc-recover-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let refused = [
            ("capacity", 2.0),
            ("epsilon", 0.0),
            ("shards", 0.0),
            ("batch_size", 0.0),
        ];
        for (id, (key, value)) in (1..).zip(refused) {
            let doc = edited(&update_record(id), key, Some(Json::Num(value)));
            let id = JobId(id);
            std::fs::write(id.manifest_path(&dir), format!("{doc}\n")).unwrap();
            std::fs::write(id.checkpoint_path(&dir), b"ckpt").unwrap();
            assert_eq!(JobRecord::load(&id.manifest_path(&dir)), None, "{key}");
            assert!(
                !stale_checkpoint_candidate(&id.checkpoint_path(&dir)),
                "{key}"
            );
        }
        let good = update_record(9);
        good.persist(&dir).unwrap();

        let handle = Server::start(ServiceConfig::at(&dir)).unwrap();
        for id in 1..=4 {
            assert_eq!(handle.job_record(JobId(id)), None);
        }
        assert!(handle.job_record(good.id).is_some());
        assert_eq!(handle.shutdown().recovered, 1);
        std::fs::remove_dir_all(&dir).unwrap();
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
