//! The four workloads and the inputs each one builds from the seed.

use std::path::{Path, PathBuf};
use std::process::Command;

use adjstream_graph::exact::count_triangles;
use adjstream_graph::io::load_edge_list;
use adjstream_stream::{FaultKind, FaultPlan, ItemTrace};

use crate::proc::run_ok;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PowerlawDispatch,
    SparseIngest,
    RepairShard,
    DaemonMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PowerlawDispatch,
        Workload::SparseIngest,
        Workload::RepairShard,
        Workload::DaemonMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PowerlawDispatch => "powerlaw-dispatch",
            Workload::SparseIngest => "sparse-ingest",
            Workload::RepairShard => "repair-shard",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the power-law graph family (else on
    /// the planted-triangle sparse graph).
    fn powerlaw(self) -> bool {
        matches!(self, Workload::PowerlawDispatch | Workload::DaemonMixed)
    }

    /// Graphs built per run. A Chung–Lu graph with γ = 2.3 is heavy-tailed
    /// enough that one draw moves the pass time by ~10% from seed to
    /// seed; pooling eight draws keeps a run's median steady. The sparse
    /// family varies by ~1% and builds one graph.
    pub fn graphs(self) -> usize {
        if self.powerlaw() {
            8
        } else {
            1
        }
    }
}

/// Sparse family: planted triangles on a random bipartite background.
const SPARSE_SIDE: u64 = 100_000;
const SPARSE_M_BG: u64 = 1_000_000;
const SPARSE_T: u64 = 20_000;
/// Edge budget of the sparse workloads: under 1% of the edges, so ingest
/// dominates, yet large enough that no seed's estimate strays past the
/// 0.5 relative-error check (at 2000 the error's RMS is ~0.17).
pub const SPARSE_BUDGET: usize = 8000;
/// Faults injected for `repair-shard`, 16 in all.
const FAULTS: [(FaultKind, usize); 3] = [
    (FaultKind::DropDirection, 6),
    (FaultKind::DuplicateItem, 5),
    (FaultKind::InjectSelfLoop, 5),
];
/// Churn events appended to each power-law graph's update trace.
const CHURN: u64 = 40_000;

/// Seed of graph `i` of a run seeded with `seed`.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i as u64)
}

/// The shipped CLI, run with its scratch files kept inside the work dir.
pub struct Cli {
    pub exe: PathBuf,
    pub tmp: PathBuf,
}

impl Cli {
    pub fn cmd(&self) -> Command {
        let mut c = Command::new(&self.exe);
        c.env("TMPDIR", &self.tmp);
        c
    }
}

/// One graph of a workload, as files plus the facts the checks need.
pub struct Graph {
    pub seed: u64,
    pub text: PathBuf,
    /// The trace the estimate runs on (the faulty one for `repair-shard`).
    pub adjb: PathBuf,
    pub updates: Option<PathBuf>,
    /// Detections the fault ledger promises (`repair-shard`).
    pub expected_detections: Option<usize>,
    /// Exact triangle count, filled in by [`count_all`].
    pub triangles: u64,
}

/// Files built by one set-up, with the importer's timings.
pub struct Fixture {
    pub graphs: Vec<Graph>,
    pub import_s: Vec<f64>,
    pub import_edges: Vec<u64>,
}

/// Build `w`'s input files into `dir` with the shipped CLI.
pub fn build(w: Workload, seed: u64, dir: &Path, cli: &Cli) -> Result<Fixture, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fx = Fixture {
        graphs: Vec::new(),
        import_s: Vec::new(),
        import_edges: Vec::new(),
    };
    for i in 0..w.graphs() {
        let s = sub_seed(seed, i);
        let seed_arg = s.to_string();
        let text = dir.join(format!("g{i}.txt"));
        let adjb = dir.join(format!("g{i}.adjb"));
        let mut gen = cli.cmd();
        gen.arg("gen");
        if w.powerlaw() {
            gen.args([
                "chung-lu",
                "--n",
                "20000",
                "--gamma",
                "2.3",
                "--avg-degree",
                "8",
            ]);
        } else {
            gen.args(["planted-triangles", "--side", &SPARSE_SIDE.to_string()])
                .args([
                    "--m-bg",
                    &SPARSE_M_BG.to_string(),
                    "--t",
                    &SPARSE_T.to_string(),
                ]);
        }
        run_ok(gen.args(["--seed", &seed_arg, "-o"]).arg(&text))?;
        let import = run_ok(
            cli.cmd()
                .arg("import-edges")
                .arg(&text)
                .arg("-o")
                .arg(&adjb)
                .args(["--seed", &seed_arg, "--json"]),
        )?;
        fx.import_s.push(import.wall_s);
        fx.import_edges.push(
            crate::json::wire_field(&import.stdout, "edges_read")
                .and_then(|v| v.as_f64())
                .ok_or("import-edges printed no edges_read")? as u64,
        );
        let mut graph = Graph {
            seed: s,
            text,
            adjb,
            updates: None,
            expected_detections: None,
            triangles: 0,
        };
        if w == Workload::RepairShard {
            let faulty = dir.join(format!("g{i}.faulty.adjb"));
            graph.expected_detections = Some(inject_faults(&graph.adjb, &faulty, s)?);
            graph.adjb = faulty;
        }
        if w == Workload::DaemonMixed {
            let updates = dir.join(format!("g{i}.adjbu"));
            run_ok(
                cli.cmd()
                    .arg("gen-updates")
                    .arg(&graph.text)
                    .args(["--churn", &CHURN.to_string(), "--format", "adjbu"])
                    .args(["--seed", &seed_arg, "-o"])
                    .arg(&updates),
            )?;
            graph.updates = Some(updates);
        }
        fx.graphs.push(graph);
    }
    Ok(fx)
}

/// Corrupt the valid trace at `clean` with the seeded [`FAULTS`] plan and
/// write it to `out`; returns the ledger's expected detections.
fn inject_faults(clean: &Path, out: &Path, seed: u64) -> Result<usize, String> {
    let bytes = std::fs::read(clean).map_err(|e| format!("{}: {e}", clean.display()))?;
    // The importer just wrote and checksummed this trace; decoding
    // re-verifies the checksum, and FaultPlan needs no further validation.
    let trace = ItemTrace::from_bytes_unchecked(&bytes).map_err(|e| e.to_string())?;
    let plan = FAULTS
        .iter()
        .fold(FaultPlan::new(seed), |p, &(kind, n)| p.with(kind, n));
    let corrupted = plan.apply(trace.items());
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?,
    );
    ItemTrace::new_unchecked(corrupted.items().to_vec())
        .write_adjb(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| e.to_string())?;
    Ok(corrupted.expected_detections())
}

/// Fill in every graph's exact triangle count from its edge list.
pub fn count_all(fx: &mut Fixture) -> Result<(), String> {
    for g in &mut fx.graphs {
        let loaded = load_edge_list(&g.text).map_err(|e| e.to_string())?;
        g.triangles = count_triangles(&loaded.graph);
    }
    Ok(())
}
