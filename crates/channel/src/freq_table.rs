//! Precomputed per-subcarrier frequency responses of a MIMO link.
//!
//! The protocol simulator evaluates the same pure channel matrices
//! thousands of times per run (round × stream × subcarrier × interferer).
//! [`FreqResponseTable`] performs that evaluation exactly once per
//! occupied subcarrier — a single pass over the FIR taps with the DFT
//! twiddles computed once per bin and shared across all antenna pairs —
//! and then serves `&CMatrix` lookups.
//!
//! The table is **bit-for-bit identical** to calling
//! [`MimoLink::channel_matrix`] per bin: the accumulation order per
//! antenna pair is the same (`acc += tap[d] · e^{-j2πkd/N}` in tap
//! order, then one amplitude scale), only the twiddle evaluation is
//! hoisted out of the pair loop, so the engine can read every true
//! channel from tables — the property the bench crate's `soa_parity`
//! suite checks on every installed link of generated topologies.

use crate::mimo::MimoLink;
use nplus_linalg::{CMatrix, CMatrixSoA, Complex64};

/// Frequency responses of one [`MimoLink`], evaluated once for a fixed
/// set of FFT bins (normally the occupied subcarriers).
///
/// Matrices are stored in split (structure-of-arrays) layout so the
/// engine's precoder/ZF-SINR hot path consumes them without conversion;
/// the build still runs the exact interleaved tap accumulation below and
/// converts value-for-value, so lookups remain bit-identical to
/// [`MimoLink::channel_matrix`].
#[derive(Debug, Clone)]
pub struct FreqResponseTable {
    /// One `N_rx × M_tx` matrix per requested bin, in request order.
    matrices: Vec<CMatrixSoA>,
}

impl FreqResponseTable {
    /// Evaluates the link's `N_rx × M_tx` matrices for every bin in
    /// `bins` on an `n_fft` grid.
    ///
    /// The taps of every antenna pair are traversed once per bin; the
    /// per-delay twiddle factors are computed once per bin and reused
    /// across all pairs (the per-pair arithmetic stays identical to
    /// [`MimoLink::channel_matrix`], so results match bitwise).
    pub fn new(link: &MimoLink, bins: &[usize], n_fft: usize) -> Self {
        let (n_rx, n_tx) = (link.n_rx(), link.n_tx());
        let amplitude = link.amplitude();
        let max_taps = (0..n_rx)
            .flat_map(|rx| (0..n_tx).map(move |tx| (rx, tx)))
            .map(|(rx, tx)| link.pair(rx, tx).taps.len())
            .max()
            .unwrap_or(1);

        let mut twiddles: Vec<Complex64> = Vec::with_capacity(max_taps);
        let mut matrices = Vec::with_capacity(bins.len());
        for &k in bins {
            twiddles.clear();
            for d in 0..max_taps {
                let ang = -2.0 * std::f64::consts::PI * (k * d) as f64 / n_fft as f64;
                twiddles.push(Complex64::cis(ang));
            }
            let mut h = CMatrix::zeros(n_rx, n_tx);
            for rx in 0..n_rx {
                for tx in 0..n_tx {
                    let taps = &link.pair(rx, tx).taps;
                    let mut acc = Complex64::ZERO;
                    for (d, &t) in taps.iter().enumerate() {
                        acc += t * twiddles[d];
                    }
                    h[(rx, tx)] = acc.scale(amplitude);
                }
            }
            matrices.push(CMatrixSoA::from_aos(&h));
        }
        FreqResponseTable { matrices }
    }

    /// The channel matrix of the `pos`-th requested bin (position in the
    /// `bins` slice given to [`FreqResponseTable::new`], *not* the raw
    /// FFT bin index), in split storage.
    pub fn matrix(&self, pos: usize) -> &CMatrixSoA {
        &self.matrices[pos]
    }

    /// All matrices, in bin-request order.
    pub fn matrices(&self) -> &[CMatrixSoA] {
        &self.matrices
    }

    /// The same table with every matrix entry scaled by the real
    /// `factor` — the frequency-domain image of rescaling the link
    /// amplitude, used by slow mobility to re-derive the links incident
    /// to a moved node without re-drawing their taps.
    pub fn scaled(&self, factor: f64) -> Self {
        FreqResponseTable {
            matrices: self.matrices.iter().map(|m| m.scale_re(factor)).collect(),
        }
    }
}

// Tables are read concurrently by parallel sweep workers (one channel
// cache per job, shared across that job's protocol runs); keep them
// `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FreqResponseTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fading::DelayProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_channel_matrix_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n_tx, n_rx, profile) in [
            (1, 1, DelayProfile::los()),
            (2, 3, DelayProfile::nlos()),
            (4, 4, DelayProfile::nlos()),
        ] {
            let link = MimoLink::sample(n_tx, n_rx, 1.7, &profile, &mut rng);
            let bins: Vec<usize> = (0..64).step_by(3).collect();
            let table = FreqResponseTable::new(&link, &bins, 64);
            for (pos, &k) in bins.iter().enumerate() {
                let direct = link.channel_matrix(k, 64);
                let cached = table.matrix(pos);
                for r in 0..n_rx {
                    for c in 0..n_tx {
                        // Bitwise equality, not approximate: the cached
                        // path must be indistinguishable from recompute.
                        assert_eq!(
                            cached.get(r, c).re.to_bits(),
                            direct[(r, c)].re.to_bits(),
                            "bin {k} entry ({r},{c}) re"
                        );
                        assert_eq!(
                            cached.get(r, c).im.to_bits(),
                            direct[(r, c)].im.to_bits(),
                            "bin {k} entry ({r},{c}) im"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn covers_requested_bins_in_order() {
        let link = MimoLink::flat(2, 2, 1.0);
        let bins = vec![5usize, 1, 40];
        let table = FreqResponseTable::new(&link, &bins, 64);
        assert_eq!(table.matrices().len(), 3);
        assert_eq!(table.matrix(0).shape(), (2, 2));
    }

    #[test]
    fn respects_amplitude() {
        let mut rng = StdRng::seed_from_u64(3);
        let link = MimoLink::sample(2, 2, 1.0, &DelayProfile::nlos(), &mut rng);
        let half = link.with_amplitude(0.5);
        let bins = vec![10usize];
        let t1 = FreqResponseTable::new(&link, &bins, 64);
        let t2 = FreqResponseTable::new(&half, &bins, 64);
        assert!(t2
            .matrix(0)
            .to_aos()
            .approx_eq(&t1.matrix(0).scale_re(0.5).to_aos(), 1e-12));
    }
}
