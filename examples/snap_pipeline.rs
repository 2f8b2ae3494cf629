//! Run the Rejecto pipeline on a SNAP-format edge list.
//!
//! ```sh
//! # On your own SNAP dataset (e.g. ca-HepTh from snap.stanford.edu):
//! cargo run --release --example snap_pipeline -- path/to/edges.txt
//!
//! # Without an argument, a surrogate graph is written to a temp file
//! # first, demonstrating the full file round trip:
//! cargo run --release --example snap_pipeline
//! ```
//!
//! The host graph's nodes become the legitimate users; the attack and the
//! social rejections are simulated on top per the §VI-A protocol.

use rejecto::pipeline::{self, PipelineConfig};
use rejecto::simulator::{Scenario, ScenarioConfig};
use rejecto::socialgraph::{io, metrics, surrogates::Surrogate};
use std::fs::File;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => p.into(),
        None => {
            // No dataset supplied: write a surrogate edge list and use it.
            let g = Surrogate::CaHepTh.generate_scaled(1, 0.2);
            let path = std::env::temp_dir().join("rejecto_surrogate_edges.txt");
            #[expect(
                clippy::disallowed_methods,
                reason = "a scratch surrogate in the temp dir, regenerated on every run"
            )]
            io::write_edge_list(&g, File::create(&path)?)?;
            eprintln!("[no dataset given; wrote surrogate to {}]", path.display());
            path
        }
    };

    let (host, labels) = io::read_edge_list(File::open(&path)?)?;
    println!(
        "loaded {}: {} nodes, {} edges, clustering {:.4}",
        path.display(),
        host.num_nodes(),
        host.num_edges(),
        metrics::average_clustering(&host)
    );

    let num_fakes = (host.num_nodes() / 5).max(10);
    let sim = Scenario::new(ScenarioConfig { num_fakes, ..ScenarioConfig::default() })
        .run(&host, 42);

    let cfg = PipelineConfig::default();
    let suspects = pipeline::rejecto_suspects(&sim, &cfg, num_fakes);
    println!(
        "injected {num_fakes} fakes; Rejecto precision/recall {:.4}",
        pipeline::precision(&suspects, &sim.is_fake)
    );

    // Ids below host.num_nodes() are original dataset nodes; print any
    // false positives in the dataset's own labeling.
    let false_positives: Vec<u64> = suspects
        .iter()
        .filter(|s| !sim.is_fake[s.index()])
        .filter_map(|s| labels.get(s.index()).copied())
        .take(10)
        .collect();
    if false_positives.is_empty() {
        println!("no legitimate dataset nodes were flagged");
    } else {
        println!("flagged dataset nodes (original labels): {false_positives:?}");
    }
    Ok(())
}
