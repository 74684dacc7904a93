//! Golden fault ledgers and guard checkpoint bytes.
//!
//! A fault plan is replayable from its seed, so every published seed is a
//! contract: the same corrupted items (or events), the same ledger rows
//! and the same skipped list, build after build. This suite pins them for
//! every static and update fault kind alone and for one composed plan of
//! each type, over a few seeds, plus a tiny stream that cannot host most
//! kinds (the skipped path). It also pins the bytes `Guarded::save` writes
//! after a Repair pass that quarantined edges, in exact and bounded mode.
//!
//! Each row holds `checksum64` digests of a canonical rendering; on a
//! mismatch the assertion prints the rendering, so the diff is readable.

use adjstream::graph::gen;
use adjstream::graph::VertexId;
use adjstream::stream::checkpoint::{read_u8, write_u8};
use adjstream::stream::hashing::checksum64;
use adjstream::stream::meter::PeakTracker;
use adjstream::stream::update::{churn, ChurnConfig, UpdateEvent, UpdateOp, UpdateStream};
use adjstream::stream::{
    drive_pass_slice, AdjListStream, Checkpoint, FaultKind, FaultPlan, GuardPolicy, Guarded,
    MultiPassAlgorithm, SpaceUsage, StreamItem, StreamOrder, UpdateFaultKind, UpdateFaultPlan,
    ValidatorMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [0, 7, 1234];

fn static_items(n: usize, m: usize, seed: u64) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnm(n, m, &mut rng);
    AdjListStream::new(&g, StreamOrder::shuffled(n, seed ^ 1)).collect_items()
}

fn update_stream(churn_events: usize, seed: u64) -> UpdateStream {
    let g = gen::disjoint_cliques(4, 6);
    churn(
        &g,
        &ChurnConfig {
            churn_events,
            delete_fraction: 0.6,
            seed,
        },
    )
}

fn items_digest(items: &[StreamItem]) -> u64 {
    let bytes: Vec<u8> = items
        .iter()
        .flat_map(|it| [it.src.0.to_le_bytes(), it.dst.0.to_le_bytes()])
        .flatten()
        .collect();
    checksum64(&bytes)
}

fn events_digest(events: &[UpdateEvent]) -> u64 {
    let mut bytes = Vec::new();
    for ev in events {
        bytes.push(u8::from(ev.op == UpdateOp::Insert));
        bytes.extend_from_slice(&ev.edge.lo().0.to_le_bytes());
        bytes.extend_from_slice(&ev.edge.hi().0.to_le_bytes());
        bytes.extend_from_slice(&ev.ts.to_le_bytes());
    }
    checksum64(&bytes)
}

/// One pinned case: the digests of the corrupted stream, of its pass-2
/// replay (static plans; 0 for update plans), of the rendered ledger, and
/// the skipped kinds in order.
type Row = (u64, u64, u64, &'static str);

fn static_case(plan: &FaultPlan, items: &[StreamItem]) -> ((u64, u64, u64, String), String) {
    let c = plan.apply(items);
    let ledger: String = c
        .injected()
        .iter()
        .map(|f| format!("{}|{}|{}\n", f.kind, f.expected_detections, f.description))
        .collect();
    let skipped: Vec<String> = c.skipped().iter().map(ToString::to_string).collect();
    (
        (
            items_digest(c.items()),
            items_digest(c.items_for_pass(1)),
            checksum64(ledger.as_bytes()),
            skipped.join(","),
        ),
        ledger,
    )
}

fn update_case(plan: &UpdateFaultPlan, stream: &UpdateStream) -> ((u64, u64, u64, String), String) {
    let c = plan.apply(stream);
    let ledger: String = c
        .injected()
        .iter()
        .map(|f| {
            format!(
                "{}|{}|{}|{}\n",
                f.kind, f.position, f.expected_detections, f.description
            )
        })
        .collect();
    let skipped: Vec<String> = c.skipped().iter().map(ToString::to_string).collect();
    (
        (
            events_digest(c.events()),
            0,
            checksum64(ledger.as_bytes()),
            skipped.join(","),
        ),
        ledger,
    )
}

fn check(label: &str, got: ((u64, u64, u64, String), String), want: Row) {
    let ((items, replay, ledger, skipped), text) = got;
    assert_eq!(
        (items, replay, ledger, skipped.as_str()),
        want,
        "{label}: ledger was\n{text}"
    );
}

fn static_plans() -> Vec<(String, FaultPlan)> {
    let mut plans = Vec::new();
    for kind in FaultKind::ALL {
        for seed in SEEDS {
            plans.push((
                format!("{kind} seed {seed}"),
                FaultPlan::new(seed).with(kind, 1),
            ));
        }
    }
    for seed in SEEDS {
        let plan = FaultPlan::new(seed)
            .with(FaultKind::TruncateTail, 1)
            .with(FaultKind::CorruptVertex, 2)
            .with(FaultKind::DropDirection, 3)
            .with(FaultKind::DuplicateItem, 2)
            .with(FaultKind::InjectSelfLoop, 2)
            .with(FaultKind::SplitList, 2)
            .with(FaultKind::ReorderPass, 2);
        plans.push((format!("composed seed {seed}"), plan));
    }
    plans
}

fn update_plans() -> Vec<(String, UpdateFaultPlan)> {
    let mut plans = Vec::new();
    for kind in UpdateFaultKind::ALL {
        for seed in SEEDS {
            plans.push((
                format!("{kind} seed {seed}"),
                UpdateFaultPlan::new(seed).with(kind, 1),
            ));
        }
    }
    for seed in SEEDS {
        let plan = UpdateFaultPlan::new(seed)
            .with(UpdateFaultKind::DeleteDead, 2)
            .with(UpdateFaultKind::DuplicateInsert, 2)
            .with(UpdateFaultKind::OrphanDelete, 1)
            .with(UpdateFaultKind::OpFlip, 2)
            .with(UpdateFaultKind::CorruptEndpoint, 1)
            .with(UpdateFaultKind::SwapAdjacent, 2)
            .with(UpdateFaultKind::TimestampRegression, 2);
        plans.push((format!("composed seed {seed}"), plan));
    }
    plans
}

#[rustfmt::skip]
const STATIC_GOLDEN: [Row; 24] = [
    (0x44e7d6a8953505e0, 0x44e7d6a8953505e0, 0x7f50bb0917f10426, ""), // truncate-tail seed 0
    (0x44e7d6a8953505e0, 0x44e7d6a8953505e0, 0x7f50bb0917f10426, ""), // truncate-tail seed 7
    (0x54878b6262c0def6, 0x54878b6262c0def6, 0x475cfb03a84cd1ec, ""), // truncate-tail seed 1234
    (0x5d61aa6afdcbce41, 0x5d61aa6afdcbce41, 0x5fafe2e1b6e2bfcf, ""), // corrupt-vertex seed 0
    (0x99e2d6ae5a07c107, 0x99e2d6ae5a07c107, 0xebf2e8dd185e11b8, ""), // corrupt-vertex seed 7
    (0x4c2ed0148e0798e3, 0x4c2ed0148e0798e3, 0x575b4d9685189e09, ""), // corrupt-vertex seed 1234
    (0x15963bf1dcba66ce, 0x15963bf1dcba66ce, 0xfef0374ebb784f8d, ""), // drop-direction seed 0
    (0x03b7ebb4a102ce99, 0x03b7ebb4a102ce99, 0xefc9011e59b91bf4, ""), // drop-direction seed 7
    (0x5745a19cdfb696dc, 0x5745a19cdfb696dc, 0x5c20b537ec721a46, ""), // drop-direction seed 1234
    (0x77b9895deb614641, 0x77b9895deb614641, 0x37bfb992ca4c6ffd, ""), // duplicate-item seed 0
    (0x777e82dbcca1dce5, 0x777e82dbcca1dce5, 0xcf66485e611bd421, ""), // duplicate-item seed 7
    (0x37eae6046a8de9e9, 0x37eae6046a8de9e9, 0x7a5254f8f9ddf708, ""), // duplicate-item seed 1234
    (0x86665d069113c63c, 0x86665d069113c63c, 0x2ebdf24a6ff2603c, ""), // self-loop seed 0
    (0xe8381b38b38ac1d7, 0xe8381b38b38ac1d7, 0x506263e0ed8283c2, ""), // self-loop seed 7
    (0x664af99b233cb8bf, 0x664af99b233cb8bf, 0xa3c299e181ac858f, ""), // self-loop seed 1234
    (0x50040bea35d91906, 0x50040bea35d91906, 0x47596bd678ffa543, ""), // split-list seed 0
    (0x57480ca759617673, 0x57480ca759617673, 0x792128dcb368aaa2, ""), // split-list seed 7
    (0x11f299275ea6aacf, 0x11f299275ea6aacf, 0xd555a06f9802b5b9, ""), // split-list seed 1234
    (0x0327b1823db64913, 0x6ae4654dd42c33d2, 0x26f978bb382d051f, ""), // reorder-pass seed 0
    (0x0327b1823db64913, 0xa97610f67b93834f, 0x4aa23807f3b56242, ""), // reorder-pass seed 7
    (0x0327b1823db64913, 0x7b23db1dd98db997, 0x3946e579c53b3bad, ""), // reorder-pass seed 1234
    (0x52358b9187c266f3, 0x2c11c0f8d2d3a3dc, 0x9e9f120c86d87988, ""), // composed seed 0
    (0x0b62c871f0ba0de2, 0xc6bcff6bd1477fdf, 0x4d0f8a67259d8158, ""), // composed seed 7
    (0x3f17687d9892490d, 0xc96a85698775647f, 0x2b2dbbd7d11e3d6a, ""), // composed seed 1234
];

#[rustfmt::skip]
const UPDATE_GOLDEN: [Row; 24] = [
    (0xa287dba420b34529, 0x0000000000000000, 0x045ce1789957f7cc, ""), // delete-dead seed 0
    (0x71e36329bac0a21f, 0x0000000000000000, 0xc512b3a9f598c610, ""), // delete-dead seed 7
    (0xef5d78f6f9c71155, 0x0000000000000000, 0xb6f62cf6a04f9741, ""), // delete-dead seed 1234
    (0x34414de13fe29946, 0x0000000000000000, 0xa446e26e0a428706, ""), // duplicate-insert seed 0
    (0xc43cfb6778aa395a, 0x0000000000000000, 0x1d8779d3113ee64f, ""), // duplicate-insert seed 7
    (0xf348431c3816d119, 0x0000000000000000, 0xefee325a5dbbaeb1, ""), // duplicate-insert seed 1234
    (0x4493f62e9c5a5d56, 0x0000000000000000, 0x3e990a2989778f97, ""), // orphan-delete seed 0
    (0x4d28da1243d6fa7a, 0x0000000000000000, 0x73f979469a3fa2b7, ""), // orphan-delete seed 7
    (0xdc9f8cf16bce1fd0, 0x0000000000000000, 0x92c86b1495576b35, ""), // orphan-delete seed 1234
    (0x39ae91a55fbcab0d, 0x0000000000000000, 0xe96a838488cbf60c, ""), // op-flip seed 0
    (0xcfd0918e0ef7f5f8, 0x0000000000000000, 0xd2f070bfc2328ec0, ""), // op-flip seed 7
    (0x36e30892f2c6eea8, 0x0000000000000000, 0x9de0095e537ccd2d, ""), // op-flip seed 1234
    (0xe6b7b2bbabca49d4, 0x0000000000000000, 0x8ecee378babd8c0d, ""), // corrupt-endpoint seed 0
    (0x190d93571d9b66c6, 0x0000000000000000, 0x0dc4f99baeafae70, ""), // corrupt-endpoint seed 7
    (0xd6bee4692931833c, 0x0000000000000000, 0x09d9c81f79fd4026, ""), // corrupt-endpoint seed 1234
    (0x62b77ebce94079e0, 0x0000000000000000, 0x1fccf07cf7077251, ""), // swap-adjacent seed 0
    (0x30d17eee83986e75, 0x0000000000000000, 0x2e133e7568003492, ""), // swap-adjacent seed 7
    (0x8bbc579463bf5156, 0x0000000000000000, 0x37ced1d4fe658645, ""), // swap-adjacent seed 1234
    (0xbf485c9d21e66540, 0x0000000000000000, 0x5d06a3801c9182a4, ""), // ts-regression seed 0
    (0xe7bec9e813b01a0f, 0x0000000000000000, 0x9e4ad9bac89dde9a, ""), // ts-regression seed 7
    (0xa3e1080417ae8502, 0x0000000000000000, 0xb402b3f1e79aedf2, ""), // ts-regression seed 1234
    (0xdb2818d73ff39ec8, 0x0000000000000000, 0x53e3f19c18a51827, ""), // composed seed 0
    (0x6f2ead38fda2b021, 0x0000000000000000, 0x0bbc7dbe86678bd6, ""), // composed seed 7
    (0x755b738ff2cb2393, 0x0000000000000000, 0x1767175ddc702e79, ""), // composed seed 1234
];

#[test]
fn static_fault_ledgers_are_pinned() {
    let items = static_items(24, 70, 11);
    let plans = static_plans();
    assert_eq!(plans.len(), STATIC_GOLDEN.len());
    for ((label, plan), want) in plans.iter().zip(STATIC_GOLDEN) {
        check(label, static_case(plan, &items), want);
    }
}

#[test]
fn update_fault_ledgers_are_pinned() {
    let stream = update_stream(120, 11);
    let plans = update_plans();
    assert_eq!(plans.len(), UPDATE_GOLDEN.len());
    for ((label, plan), want) in plans.iter().zip(UPDATE_GOLDEN) {
        check(label, update_case(plan, &stream), want);
    }
}

#[test]
fn streams_too_small_to_host_a_fault_pin_the_skipped_list() {
    // One edge: two one-item lists.
    let items = [
        StreamItem::new(VertexId(0), VertexId(1)),
        StreamItem::new(VertexId(1), VertexId(0)),
    ];
    let mut plan = FaultPlan::new(5);
    for kind in FaultKind::ALL {
        plan = plan.with(kind, 2);
    }
    check("tiny static", static_case(&plan, &items), TINY_STATIC);
    let stream = UpdateStream::new(vec![
        UpdateEvent::insert(0, 1, 0),
        UpdateEvent::insert(1, 2, 1),
    ]);
    let mut plan = UpdateFaultPlan::new(5);
    for kind in UpdateFaultKind::ALL {
        plan = plan.with(kind, 2);
    }
    check("tiny update", update_case(&plan, &stream), TINY_UPDATE);
}

const TINY_STATIC: Row = (0xaadcaac52c560dbd, 0xaadcaac52c560dbd, 0x991eb9be575c4132, "truncate-tail,corrupt-vertex,corrupt-vertex,drop-direction,drop-direction,duplicate-item,self-loop,self-loop,split-list,split-list,reorder-pass");
const TINY_UPDATE: Row = (0xd56f100ea7612cdc, 0x0000000000000000, 0x06347fedd426fb14, "delete-dead,delete-dead,op-flip,op-flip,corrupt-endpoint,corrupt-endpoint,swap-adjacent,swap-adjacent,ts-regression");

/// A two-pass, order-sensitive inner algorithm whose own checkpoint is one
/// marker byte, so the pinned bytes are the guard's (order fingerprint
/// included).
struct Marker;

impl SpaceUsage for Marker {
    fn space_bytes(&self) -> usize {
        0
    }
}

impl MultiPassAlgorithm for Marker {
    type Output = ();
    fn passes(&self) -> usize {
        2
    }
    fn requires_same_order(&self) -> bool {
        true
    }
    fn begin_pass(&mut self, _pass: usize) {}
    fn item(&mut self, _src: VertexId, _dst: VertexId) {}
    fn finish(self) {}
}

impl Checkpoint for Marker {
    fn save(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        write_u8(w, 0xA5)
    }
    fn restore(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        read_u8(r)?;
        Ok(Marker)
    }
}

/// Save a Repair guard at the pass-0 boundary: the checkpoint length, its
/// digest and the guard counters.
fn guard_checkpoint(mode: ValidatorMode, plan: FaultPlan) -> (usize, u64, String) {
    let items = static_items(30, 100, 10);
    let corrupted = plan.apply(&items);
    let mut guard = Guarded::with_validator(Marker, GuardPolicy::Repair, mode);
    let mut processed = 0;
    drive_pass_slice(
        &mut guard,
        0,
        corrupted.items(),
        &mut PeakTracker::new(),
        &mut processed,
    )
    .expect("repair pass succeeds");
    let stats = guard.stats();
    assert!(
        stats.edges_quarantined > 0,
        "the plan must quarantine edges"
    );
    let mut bytes = Vec::new();
    guard.save(&mut bytes).unwrap();
    (bytes.len(), checksum64(&bytes), format!("{stats:?}"))
}

#[test]
fn repair_guard_checkpoint_bytes_are_pinned() {
    let exact = guard_checkpoint(
        ValidatorMode::Exact,
        FaultPlan::new(3)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::InjectSelfLoop, 1)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::SplitList, 1),
    );
    assert_eq!(
        exact,
        (
            257,
            0x74c5_21af_ce60_23f5,
            "GuardStats { faults_detected: 11, items_repaired: 8, edges_quarantined: 8, validator_peak_bytes: 3664 }".to_string()
        )
    );
    let bounded = guard_checkpoint(
        ValidatorMode::Bounded { seed: 5, window: 8 },
        FaultPlan::new(4).with(FaultKind::DropDirection, 1),
    );
    assert_eq!(
        bounded,
        (
            93,
            0xdd41_efe6_118e_1c4f,
            "GuardStats { faults_detected: 1, items_repaired: 0, edges_quarantined: 1, validator_peak_bytes: 479 }".to_string()
        )
    );
}
