//! The benchmark's workloads: spec texts rendered from `--seed`, and the
//! outputs pinned at the default seed.
//!
//! - `city`: the 36 E11 Full arms (4 architectures × 3 populations × 3
//!   replications, 300 s each), the paper's own evaluation. Small worlds
//!   whose time goes to packet forwarding.
//! - `metro`: one metro-family world, 24,000 pedestrians over 6 domains
//!   (E14 Full's per-domain density), 120 s. A working set over ten times
//!   L2, ~5×10⁴ standing periodic timers, time in mobility sampling;
//!   aggregate QoS bypasses per-flow metrics. It is kept well below the
//!   size of a shared L3, whose other tenants would otherwise set its
//!   speed (see README.md).
//! - `dense`: one dense-urban world, 300 s. 184 per-flow QoS histograms,
//!   a wireless-detached drop path and admission rejects.

use mtnet_bench::{experiments::arm_specs, Effort};
use mtnet_core::spec::{ScenarioSpec, SeedSpec};

/// The seed the outputs in `pinned.txt` were recorded at.
pub const DEFAULT_SEED: u64 = 42;

pub const NAMES: [&str; 3] = ["city", "metro", "dense"];

/// One world of a workload: its label and its self-contained spec text.
pub struct WorldInput {
    pub label: String,
    pub text: String,
}

/// The spec texts of workload `name` under master seed `seed`, or `None`
/// for an unknown workload. Each text carries its world seed, resolved
/// from `seed` along the spec's seed path, as a raw seed.
pub fn inputs(name: &str, seed: u64) -> Option<Vec<WorldInput>> {
    let specs = match name {
        "city" => arm_specs("E11", Effort::Full),
        "metro" => {
            let mut spec = ScenarioSpec::metro().with_seed_path("bench", "metro", 0);
            spec.pedestrians = 24_000;
            spec.n_domains = 6;
            vec![spec]
        }
        "dense" => vec![ScenarioSpec::dense_urban().with_seed_path("bench", "dense", 0)],
        _ => return None,
    };
    let worlds = specs
        .into_iter()
        .map(|spec| {
            let label = match &spec.seed {
                SeedSpec::Path { path, replication } => format!("{}#{replication}", path.join("/")),
                SeedSpec::Raw(s) => format!("{}#raw{s}", spec.name),
            };
            let world_seed = spec.resolve_seed(seed);
            WorldInput {
                label,
                text: spec.with_raw_seed(world_seed).render(),
            }
        })
        .collect();
    Some(worlds)
}

/// Outputs recorded at [`DEFAULT_SEED`].
pub struct Pins {
    /// Σ events and sha256 over the ordered fingerprint texts.
    pub total: (u64, String),
    /// Per world, in order: label, events, sha256 of its fingerprint.
    pub worlds: Vec<(String, u64, String)>,
}

/// The pins of workload `name` from `pinned.txt`. Lines are
/// `<workload> <label|*> <events> <sha256>`; `*` is the workload total.
pub fn pins(name: &str) -> Pins {
    let mut total = None;
    let mut worlds = Vec::new();
    let lines = include_str!("../pinned.txt").lines();
    for line in lines.filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, label, events, sha] = f[..] else {
            continue;
        };
        if w != name {
            continue;
        }
        let events: u64 = events.parse().expect("pinned.txt: events is a u64");
        if label == "*" {
            total = Some((events, sha.to_string()));
        } else {
            worlds.push((label.to_string(), events, sha.to_string()));
        }
    }
    Pins {
        total: total.expect("pinned.txt: every workload has a `*` line"),
        worlds,
    }
}
