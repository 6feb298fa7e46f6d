//! The `repro --manifest` run artifact, driven through the real binary.

use std::process::Command;

use nvpim_obs::Json;

/// Runs `repro fig17 --iters <iters> --jobs <jobs> --manifest F` and
/// returns the manifest's text.
fn fig17_manifest(iters: u64, jobs: usize) -> String {
    let path = std::env::temp_dir()
        .join(format!("nvpim-repro-manifest-{}-jobs{jobs}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig17", "--iters", &iters.to_string(), "--jobs", &jobs.to_string(), "--manifest"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("repro runs");
    assert!(status.success(), "repro fig17 exited with {status}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn fig17_manifest_records_analytic_paths_and_every_cell_s_bookkeeping() {
    // 200 iterations span two remap epochs (period 100), so every one of
    // the 3 × 18 cells books its remap events.
    let iters = 200u64;
    let text = fig17_manifest(iters, 2);
    let manifest = nvpim_obs::json::parse(&text).expect("manifest parses");
    let config = manifest.get("config").expect("manifest config section");

    let Some(Json::Obj(paths)) = config.get("analytic_paths") else {
        panic!("manifest names each cell's analytic path: {text}")
    };
    assert_eq!(paths.len(), 18, "one path per balancing configuration");
    assert_eq!(paths.get("StxSt").and_then(Json::as_str), Some("closed_form"));
    assert_eq!(paths.get("RaxRa+Hw").and_then(Json::as_str), Some("fallback"));
    assert!(config.get("artifacts").is_none(), "no artifact-store section: {text}");

    let lifetime = manifest.get("lifetime").expect("manifest lifetime section");
    assert_eq!(
        lifetime.get("remap_events").and_then(Json::as_u64),
        Some(54 * iters / 100),
        "every cell books its remap events: {text}"
    );
    assert!(lifetime.get("hw_redirects").is_none(), "no partial hw_redirects tally: {text}");
    let phases = manifest.get("phases").expect("manifest phases section");
    for phase in ["sim.replay", "sim.scatter"] {
        assert!(phases.get(phase).is_some(), "lazy +Hw cells book {phase}: {text}");
    }
}

#[test]
fn manifest_metrics_and_phase_counts_do_not_depend_on_jobs() {
    let serial = nvpim_obs::json::parse(&fig17_manifest(200, 1)).expect("manifest parses");
    let parallel = nvpim_obs::json::parse(&fig17_manifest(200, 2)).expect("manifest parses");
    let metrics = |doc: &Json| doc.get("metrics").expect("manifest metrics section").render();
    assert_eq!(metrics(&serial), metrics(&parallel), "metrics differ between --jobs 1 and 2");
    let counts = |doc: &Json| -> Vec<(String, Option<u64>)> {
        let Some(Json::Obj(phases)) = doc.get("phases") else { panic!("manifest phases section") };
        phases
            .iter()
            .map(|(name, stat)| (name.clone(), stat.get("count").and_then(Json::as_u64)))
            .collect()
    };
    assert_eq!(counts(&serial), counts(&parallel), "phase counts differ between --jobs 1 and 2");
    let cell_reads =
        serial.get("metrics").and_then(|m| m.get("array.cell_reads")).map(Json::render);
    assert!(cell_reads.is_some(), "zero counters stay registered: {}", metrics(&serial));
}
