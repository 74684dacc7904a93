//! The line-delimited JSON wire protocol of `adjstreamd`.
//!
//! One request per line, one response line per request, over a Unix
//! domain socket. Every response is an object whose first field is
//! `"ok"`; failures carry a machine-readable `"error"` slug plus a
//! human-readable `"detail"`. Overload is *typed*: a submission that
//! cannot be admitted gets an immediate `ok:false, error:"rejected"`
//! response with a [`RejectReason`] — the daemon never buffers without
//! bound.
//!
//! ```text
//! → {"op":"register","name":"web","path":"/data/web.adjb"}
//! ← {"ok":true,"name":"web","edges":120,"items":240}
//! → {"op":"submit","trace":"web","kind":"triangles","t_lower":240}
//! ← {"ok":true,"id":"0000000000000001","state":"queued"}
//! → {"op":"status","id":"0000000000000001"}
//! ← {"ok":true,"id":"0000000000000001","state":"done","result":{...}}
//! ```

use std::path::PathBuf;

use crate::job::{JobId, JobSpec};
use crate::json::{obj, parse, Json};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Register a trace file under a catalog name.
    Register {
        /// Catalog name.
        name: String,
        /// Path to the `.adjb` file.
        path: PathBuf,
    },
    /// List registered traces.
    Traces,
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Job status: one job, or all jobs when `id` is `None`.
    Status {
        /// The job to report on, or `None` for all.
        id: Option<JobId>,
    },
    /// Cancel a queued, suspended, or running job.
    Cancel {
        /// The job to cancel.
        id: JobId,
    },
    /// Daemon-wide counters and the merged metrics snapshot.
    Metrics,
    /// Graceful shutdown: drain, checkpoint in-flight jobs, exit.
    Shutdown,
}

/// Typed reason a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded intake queue is full.
    QueueFull,
    /// The resident-job cap is reached.
    TooManyJobs,
    /// Admitting the job's declared byte budget would exceed the daemon's
    /// memory budget.
    MemoryBudget,
    /// The referenced trace is not in the catalog.
    UnknownTrace,
    /// The trace's bytes on disk no longer match the checksum recorded
    /// at registration (swapped, corrupted, or vanished).
    TraceChanged,
    /// The job kind does not match the trace kind (an `update` job needs
    /// an update trace; every other kind needs a static one).
    KindMismatch,
    /// The daemon is draining for shutdown.
    Draining,
}

impl RejectReason {
    /// Wire slug.
    pub fn slug(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TooManyJobs => "too_many_jobs",
            RejectReason::MemoryBudget => "memory_budget",
            RejectReason::UnknownTrace => "unknown_trace",
            RejectReason::TraceChanged => "trace_changed",
            RejectReason::KindMismatch => "kind_mismatch",
            RejectReason::Draining => "draining",
        }
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line.trim())?;
    let op = v.str_field("op").ok_or("missing \"op\" field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "register" => Ok(Request::Register {
            name: v
                .str_field("name")
                .ok_or("register: missing \"name\"")?
                .to_string(),
            path: PathBuf::from(v.str_field("path").ok_or("register: missing \"path\"")?),
        }),
        "traces" => Ok(Request::Traces),
        "submit" => JobSpec::from_json(&v).map(|s| Request::Submit(Box::new(s))),
        "status" => {
            let id = match v.str_field("id") {
                Some(s) => Some(JobId::parse(s).ok_or_else(|| format!("bad job id {s:?}"))?),
                None => None,
            };
            Ok(Request::Status { id })
        }
        "cancel" => {
            let s = v.str_field("id").ok_or("cancel: missing \"id\"")?;
            let id = JobId::parse(s).ok_or_else(|| format!("bad job id {s:?}"))?;
            Ok(Request::Cancel { id })
        }
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// An `ok:true` response with extra fields appended.
pub fn ok_response(fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    obj(all).to_string()
}

/// A typed rejection: `ok:false, error:"rejected", reason:<slug>`.
pub fn reject_response(reason: RejectReason) -> String {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("rejected".into())),
        ("reason", Json::Str(reason.slug().into())),
    ])
    .to_string()
}

/// A generic error response with a slug and human detail.
pub fn error_response(kind: &str, detail: &str) -> String {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(kind.into())),
        ("detail", Json::Str(detail.into())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Chaos, JobKind};
    use adjstream_stream::GuardPolicy;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"register","name":"web","path":"/tmp/w.adjb"}"#).unwrap(),
            Request::Register {
                name: "web".into(),
                path: PathBuf::from("/tmp/w.adjb"),
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"traces"}"#).unwrap(),
            Request::Traces
        );
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status { id: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"status","id":"0000000000000007"}"#).unwrap(),
            Request::Status { id: Some(JobId(7)) }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"0000000000000007"}"#).unwrap(),
            Request::Cancel { id: JobId(7) }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn submit_defaults_and_overrides() {
        let r = parse_request(r#"{"op":"submit","trace":"web","kind":"triangles","t_lower":240}"#)
            .unwrap();
        let Request::Submit(spec) = r else {
            panic!("not a submit")
        };
        assert_eq!(spec.kind, JobKind::Triangles { t_lower: 240 });
        assert_eq!(spec.epsilon, 0.25);
        assert_eq!(spec.priority, 4);
        assert_eq!(spec.chaos, Chaos::default());

        let r = parse_request(
            r#"{"op":"submit","trace":"web","kind":"four-cycles","t_lower":8,"epsilon":0.5,
                "delta":0.2,"seed":7,"priority":9,"min_survivors":2,"max_instance_bytes":1024,
                "deadline_ms":5000,"panic_in_pass":1,"delay_ms_per_pass":40,"collect_metrics":true}"#,
        )
        .unwrap();
        let Request::Submit(spec) = r else {
            panic!("not a submit")
        };
        assert_eq!(spec.kind, JobKind::FourCycles { t_lower: 8 });
        assert_eq!(spec.priority, 9);
        assert_eq!(spec.min_survivors, Some(2));
        assert_eq!(spec.budget.max_instance_bytes, Some(1024));
        assert_eq!(spec.budget.deadline_ms, Some(5000));
        assert_eq!(spec.chaos.panic_in_pass, Some(1));
        assert_eq!(spec.chaos.delay_ms_per_pass, 40);
        assert!(spec.collect_metrics);
    }

    #[test]
    fn submit_parses_update_jobs() {
        let r = parse_request(r#"{"op":"submit","trace":"web","kind":"update"}"#).unwrap();
        let Request::Submit(spec) = r else {
            panic!("not a submit")
        };
        assert_eq!(
            spec.kind,
            JobKind::Update {
                batch_size: 256,
                capacity: 4096,
                guard: GuardPolicy::Repair,
            }
        );

        let r = parse_request(
            r#"{"op":"submit","trace":"web","kind":"update","batch_size":50,
                "capacity":300,"guard":"strict"}"#,
        )
        .unwrap();
        let Request::Submit(spec) = r else {
            panic!("not a submit")
        };
        assert_eq!(
            spec.kind,
            JobKind::Update {
                batch_size: 50,
                capacity: 300,
                guard: GuardPolicy::Strict,
            }
        );
    }

    #[test]
    fn submit_rejects_bad_accuracy() {
        for bad in [
            r#"{"op":"submit","trace":"w","epsilon":0}"#,
            r#"{"op":"submit","trace":"w","delta":1}"#,
            r#"{"op":"submit","trace":"w","kind":"pentagons"}"#,
            r#"{"op":"submit","trace":"w","kind":"update","batch_size":0}"#,
            r#"{"op":"submit","trace":"w","kind":"update","capacity":2}"#,
            r#"{"op":"submit","trace":"w","kind":"update","guard":"lenient"}"#,
            r#"{"op":"submit"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn responses_are_well_formed_json() {
        for s in [
            ok_response(vec![("id", Json::Str("x".into()))]),
            reject_response(RejectReason::QueueFull),
            error_response("bad_request", "missing op"),
        ] {
            let v = crate::json::parse(&s).unwrap();
            assert!(v.get("ok").is_some());
        }
        let r = crate::json::parse(&reject_response(RejectReason::MemoryBudget)).unwrap();
        assert_eq!(r.str_field("reason"), Some("memory_budget"));
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    }
}
