//! The qualitative findings of the paper's evaluation (§5), asserted as
//! integration tests: which strategy helps which workload, and why.

use nvpim::prelude::*;
use nvpim::workloads::convolution::Convolution;
use nvpim::workloads::dot_product::DotProduct;
use nvpim::workloads::parallel_mul::ParallelMul;

fn improvements(wl: &nvpim::workloads::Workload, iterations: u64) -> Vec<(BalanceConfig, f64)> {
    let sim = EnduranceSimulator::new(SimConfig::paper().with_iterations(iterations));
    let model = LifetimeModel::mtj();
    let baseline = sim.run(wl, BalanceConfig::baseline());
    BalanceConfig::all()
        .into_iter()
        .map(|c| (c, model.improvement(&sim.run(wl, c), &baseline)))
        .collect()
}

fn lookup(data: &[(BalanceConfig, f64)], name: &str) -> f64 {
    let config: BalanceConfig = name.parse().expect("valid config");
    data.iter().find(|(c, _)| *c == config).expect("present").1
}

/// "Multiplication has no imbalance between lanes (columns), so it only
/// benefits from within-lane (row) balancing strategies. Specifically,
/// St × Ra and St × Bs do not provide any benefit."
#[test]
fn multiplication_ignores_column_strategies() {
    let wl = ParallelMul::new(ArrayDims::new(512, 32), 16).build();
    let data = improvements(&wl, 1500);
    assert!((lookup(&data, "StxRa") - 1.0).abs() < 1e-9);
    assert!((lookup(&data, "StxBs") - 1.0).abs() < 1e-9);
    assert!(lookup(&data, "RaxSt") > 1.3, "row shuffling must help");
    assert!(lookup(&data, "RaxSt+Hw") > 1.0);
}

/// "Since convolution is write-heavy in every fourth column, byte shifting
/// (Bs) the columns does not help (St × Bs provides no benefit): shifting
/// columns by an integer number of bytes re-maps write-heavy columns to
/// other write-heavy columns." Random column shuffling, in contrast, does
/// help.
#[test]
fn convolution_byte_shift_columns_useless_random_helps() {
    let wl = Convolution::new(ArrayDims::new(512, 64), 4, 3, 8).build();
    let data = improvements(&wl, 1500);
    let st_bs = lookup(&data, "StxBs");
    let st_ra = lookup(&data, "StxRa");
    assert!((st_bs - 1.0).abs() < 0.02, "byte-shifted columns land on other hot columns: {st_bs}");
    assert!(st_ra > st_bs + 0.02, "random columns must beat byte-shift: {st_ra} vs {st_bs}");
}

/// "Dot-product, which has a large imbalance in both rows and columns,
/// shows significant improvement from load-balancing in both dimensions."
#[test]
fn dot_product_benefits_in_both_dimensions() {
    let wl = DotProduct::new(ArrayDims::new(512, 64), 64, 16).build();
    let data = improvements(&wl, 1500);
    assert!(lookup(&data, "RaxSt") > 1.1, "rows help");
    assert!(lookup(&data, "StxRa") > 1.1, "columns help");
    assert!(lookup(&data, "StxBs") > 1.05, "byte-shifted columns help here");
    let both = lookup(&data, "RaxRa");
    assert!(both >= lookup(&data, "RaxSt") && both >= lookup(&data, "StxRa") - 0.05);
}

/// Hardware re-mapping alone improves every benchmark (it levels the
/// within-lane workspace without any recompilation).
#[test]
fn hardware_remapping_always_helps_alone() {
    for wl in [
        ParallelMul::new(ArrayDims::new(512, 16), 8).build(),
        Convolution::new(ArrayDims::new(512, 16), 4, 3, 4).build(),
        DotProduct::new(ArrayDims::new(512, 16), 16, 8).build(),
    ] {
        let data = improvements(&wl, 1200);
        let hw = lookup(&data, "StxSt+Hw");
        assert!(hw > 1.02, "{}: Hw alone gives {hw}", wl.name());
    }
}

/// Table 3's utilization ordering: multiplication (100%) > convolution >
/// dot-product (~65%).
#[test]
fn lane_utilization_ordering() {
    let mul = ParallelMul::paper().build().lane_utilization(ArchStyle::PresetOutput);
    let conv = Convolution::paper().build().lane_utilization(ArchStyle::PresetOutput);
    let dot = DotProduct::paper().build().lane_utilization(ArchStyle::PresetOutput);
    assert!((mul - 1.0).abs() < 1e-9, "mul {mul}");
    assert!(conv < mul && conv > dot, "conv {conv} between mul {mul} and dot {dot}");
    assert!(dot > 0.5 && dot < 0.85, "dot {dot} near the paper's 65.2%");
}

/// §5's re-compilation finding: more frequent re-mapping shows diminishing
/// returns.
#[test]
fn remap_frequency_diminishing_returns() {
    use nvpim::core::sweep;
    let wl = ParallelMul::new(ArrayDims::new(512, 16), 8).build();
    let points = sweep::remap_frequency_sweep_analytic(
        &wl,
        "RaxSt".parse().unwrap(),
        SimConfig::paper().with_iterations(8_000),
        LifetimeModel::mtj(),
        &[1000, 100, 10],
        0,
    );
    let gain_coarse = points[1].lifetime_iterations / points[0].lifetime_iterations;
    let gain_fine = points[2].lifetime_iterations / points[1].lifetime_iterations;
    assert!(gain_coarse > 1.0);
    assert!(gain_fine < gain_coarse, "returns must diminish: {gain_coarse} then {gain_fine}");
}
