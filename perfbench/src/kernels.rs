//! Per-call cost of the planning kernels at the shapes Fig. 3 produces:
//! a 3-antenna receiver's 3x3 zero-forcing matrix, a 3-antenna joiner's
//! 2x3 nulling constraint, the 4x4 matvec and a 48-bin rate pick.

use crate::report::{time_per_op, Report};
use nplus::link::{zf_sinr_slices_into, ZfWorkspace};
use nplus_linalg::soa::{null_space_into, pinv_into, NullspaceWorkspace, PinvWorkspace};
use nplus_linalg::{CMatrixSoA, CVector};
use nplus_phy::select_rate;
use nplus_testkit::fixtures::random_matrix;
use std::hint::black_box;

/// Shortest batch of a kernel timing, seconds.
const BATCH_S: f64 = 0.01;

/// Median ns per call of `f`.
fn ns_per_op(f: impl FnMut()) -> f64 {
    1e9 * time_per_op(BATCH_S, f)
}

fn col(rows: usize, rng: &mut rand::rngs::StdRng) -> CVector {
    random_matrix(rows, 1, rng).col(0)
}

/// Measures every kernel and pushes its `*_ns` row.
pub fn measure(report: &mut Report) {
    let mut rng = nplus_testkit::rng(0xF163);

    let zf = CMatrixSoA::from_aos(&random_matrix(3, 3, &mut rng));
    let mut pinv_ws = PinvWorkspace::default();
    let pinv_ns = ns_per_op(|| {
        black_box(pinv_into(black_box(&zf), &mut pinv_ws).is_ok());
    });

    let constraint = CMatrixSoA::from_aos(&random_matrix(2, 3, &mut rng));
    let mut ns_ws = NullspaceWorkspace::default();
    let mut basis = Vec::new();
    let null_ns = ns_per_op(|| {
        black_box(null_space_into(
            black_box(&constraint),
            &mut ns_ws,
            &mut basis,
        ));
    });

    let m4 = CMatrixSoA::from_aos(&random_matrix(4, 4, &mut rng));
    let x4 = col(4, &mut rng);
    let mut y4 = CVector::zeros(4);
    let matvec_ns = ns_per_op(|| {
        black_box(&m4).mul_vec_into(black_box(&x4), &mut y4);
        black_box(&y4);
    });

    let wanted = [col(3, &mut rng)];
    let known = [col(3, &mut rng), col(3, &mut rng)];
    let residual = [col(3, &mut rng)];
    let mut zf_ws = ZfWorkspace::default();
    let mut sinrs = Vec::new();
    let zf_ns = ns_per_op(|| {
        zf_sinr_slices_into(
            black_box(&wanted),
            black_box(&known),
            black_box(&residual),
            1e-3,
            &mut zf_ws,
            &mut sinrs,
        );
        black_box(&sinrs);
    });

    // Per-bin SNRs spread over the MCS ladder (3 to 30 dB, linear).
    let snrs: Vec<f64> = (0..48)
        .map(|k| 10f64.powf((3.0 + 27.0 * k as f64 / 47.0) / 10.0))
        .collect();
    let esnr_ns = ns_per_op(|| {
        black_box(select_rate(black_box(&snrs)));
    });

    report.push("linalg.pinv_ns", pinv_ns, "ns", "soa::pinv_into, 3x3");
    report.push(
        "linalg.null_space_ns",
        null_ns,
        "ns",
        "soa::null_space_into, 2x3",
    );
    report.push(
        "linalg.matvec4_ns",
        matvec_ns,
        "ns",
        "CMatrixSoA::mul_vec_into, 4x4",
    );
    report.push(
        "core.zf_sinr_ns",
        zf_ns,
        "ns",
        "zf_sinr_slices_into, 3 antennas, 1 wanted + 2 known",
    );
    report.push(
        "phy.esnr_ns",
        esnr_ns,
        "ns",
        "select_rate (effective_snr_db x 8 MCS) over 48 bins",
    );
}
