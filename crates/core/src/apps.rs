//! The named application catalogue shared by the CLI and the daemon.
//!
//! `histpc run --app NAME`, `histpc supervise --apps ...` and a
//! `histpcd` `start` request all name workloads the same way; this
//! module is the single resolver so a remote run diagnoses exactly the
//! workload an in-process run would.

use histpc_sim::workloads::{
    OceanWorkload, PoissonVersion, PoissonWorkload, TesterWorkload, WavefrontWorkload, Workload,
};

/// Every application spec [`build_workload`] accepts, in display order.
pub const APP_SPECS: &[&str] = &[
    "poisson-a",
    "poisson-b",
    "poisson-c",
    "poisson-d",
    "ocean",
    "tester",
    "sweep3d",
];

/// Builds the named workload, threading an optional seed into the
/// workloads that take one. Errs on an unknown spec (listing the known
/// ones) instead of exiting, so servers can answer a bad request
/// gracefully.
pub fn build_workload(
    app: &str,
    seed: Option<u64>,
) -> Result<Box<dyn Workload + Send + Sync>, String> {
    let poisson = |v: PoissonVersion| {
        let mut wl = PoissonWorkload::new(v);
        if let Some(s) = seed {
            wl = wl.with_seed(s);
        }
        Box::new(wl) as Box<dyn Workload + Send + Sync>
    };
    Ok(match app {
        "poisson-a" => poisson(PoissonVersion::A),
        "poisson-b" => poisson(PoissonVersion::B),
        "poisson-c" => poisson(PoissonVersion::C),
        "poisson-d" => poisson(PoissonVersion::D),
        "ocean" => Box::new(OceanWorkload::new()),
        "tester" => Box::new(TesterWorkload::new()),
        "sweep3d" => Box::new(WavefrontWorkload::new()),
        other => {
            return Err(format!(
                "unknown application {other:?} (want one of: {})",
                APP_SPECS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_spec_builds() {
        for spec in APP_SPECS {
            let wl = build_workload(spec, Some(7)).unwrap();
            assert!(!wl.app_spec().name.is_empty());
        }
    }

    /// Hierarchies cache each node's full name at insertion. Rebuild
    /// every name from the label chain of the rendered tree (each label
    /// appended to its parent's name) and check the cache agrees.
    #[test]
    fn cached_node_names_match_names_rebuilt_from_parent_chains() {
        use histpc_instr::Binder;
        use histpc_resources::ResourceName;
        for spec in APP_SPECS {
            let space = Binder::new(build_workload(spec, None).unwrap().app_spec()).build_space();
            for h in space.hierarchies() {
                let mut chain: Vec<String> = Vec::new();
                let mut rebuilt = Vec::new();
                for line in h.render(false).lines() {
                    let label = line.trim_start();
                    chain.truncate((line.len() - label.len()) / 2);
                    chain.push(label.to_string());
                    rebuilt.push(ResourceName::new(chain.clone()).unwrap());
                }
                assert_eq!(h.all_names(), rebuilt, "{spec} {}", h.name());
                for name in &rebuilt {
                    let id = h.lookup(name).expect("rebuilt name is in the hierarchy");
                    assert_eq!(&h.name_of(id), name, "{spec}");
                    for child in h.children_of(name) {
                        assert_eq!(child.parent().as_ref(), Some(name), "{spec}");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_spec_errs_with_catalogue() {
        let e = build_workload("nope", None).err().unwrap();
        assert!(e.contains("nope") && e.contains("poisson-a"));
    }
}
