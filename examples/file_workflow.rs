//! File-based workflow: generate a workload, save it as a SNAP-style edge
//! list, reload it, and estimate its triangle count without any prior bound
//! on `T` (the guess-and-verify driver).
//!
//! ```sh
//! cargo run --release --example file_workflow
//! ```

use adjstream::algo::estimate::{estimate_triangles_auto, Accuracy};
use adjstream::graph::io::{load_edge_list, save_edge_list};
use adjstream::graph::{exact, gen};
use adjstream::stream::StreamOrder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Generate and save.
    let mut rng = StdRng::seed_from_u64(6);
    let g = gen::gnm(2_000, 12_000, &mut rng).disjoint_union(&gen::disjoint_cliques(7, 15));
    let path = std::env::temp_dir().join("adjstream-example-graph.txt");
    save_edge_list(&g, &path).expect("writable temp dir");
    println!("saved {} edges to {}", g.edge_count(), path.display());

    // 2. Reload (ids densify; real files have sparse ids, comments, loops).
    let loaded = load_edge_list(&path).expect("file just written");
    println!(
        "loaded: n = {}, m = {} ({} comment lines skipped)",
        loaded.graph.vertex_count(),
        loaded.graph.edge_count(),
        loaded.lines_skipped
    );

    // 3. Estimate T with no prior bound: geometric guess-and-verify over
    //    the two-pass algorithm. The driver folds every guess level into
    //    one shared two-pass execution.
    let order = StreamOrder::shuffled(loaded.graph.vertex_count(), 11);
    let est = estimate_triangles_auto(
        &loaded.graph,
        &order,
        Accuracy {
            epsilon: 0.25,
            delta: 0.1,
            seed: 99,
            threads: 4,
            ..Accuracy::default()
        },
    );
    let truth = exact::count_triangles(&loaded.graph);
    println!(
        "estimate {:.0} vs exact {truth} (budget {} edges, {} repetitions, {} stream passes)",
        est.count, est.budget, est.repetitions, est.stream_passes
    );
    std::fs::remove_file(&path).ok();
}
