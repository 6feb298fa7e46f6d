//! The `repro --manifest` run artifact, driven through the real binary.

use std::process::Command;

use nvpim_obs::Json;

#[test]
fn fig17_manifest_records_analytic_paths_and_no_artifact_section() {
    let path =
        std::env::temp_dir().join(format!("nvpim-repro-manifest-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig17", "--iters", "4", "--jobs", "2", "--manifest"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("repro runs");
    assert!(status.success(), "repro fig17 exited with {status}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    let manifest = nvpim_obs::json::parse(&text).expect("manifest parses");
    let config = manifest.get("config").expect("manifest config section");

    let Some(Json::Obj(paths)) = config.get("analytic_paths") else {
        panic!("manifest names each cell's analytic path: {text}")
    };
    assert_eq!(paths.len(), 18, "one path per balancing configuration");
    assert_eq!(paths.get("StxSt").and_then(Json::as_str), Some("closed_form"));
    assert_eq!(paths.get("RaxRa+Hw").and_then(Json::as_str), Some("fallback"));
    assert!(config.get("artifacts").is_none(), "no artifact-store section: {text}");
}
