//! SoA ≡ AoS bitwise parity at the channel-table level, plus thread
//! invariance of the whole policy registry on top of those tables.
//!
//! The engine reads every true channel from a [`ChannelCache`] of
//! precomputed split-complex (SoA) tables; it has no other channel
//! path. The first property pins those tables to the AoS evaluation of
//! each `MimoLink` bit for bit, and pins absent links to `None` in the
//! cache and in the medium alike. The second sweeps every registered
//! policy over the same generated scenario families and requires the
//! statistics not to depend on the worker-thread count. Scenarios are
//! drawn from the generator family, including the sparse procedural
//! `city:` world.

use nplus::policy::BUILTIN_POLICY_NAMES;
use nplus::sim::{Scenario, SimConfig, SweepSpec, SweepStats};
use nplus_channel::environment::{environment_from_name, ChannelEnvironment, SIGCOMM11_INDOOR};
use nplus_linalg::CMatrixSoA;
use nplus_medium::{build_environment_topology, ChannelCache};
use nplus_phy::params::occupied_subcarrier_indices;
use nplus_testkit::generator::ScenarioGenerator;
use nplus_testkit::spec::city_scenario;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of generated scenario kinds [`generated`] knows.
const KINDS: u8 = 5;

/// Bitwise equality of two sweep-stat lists: every float must match
/// exactly.
fn stats_bitwise_eq(a: &[SweepStats], b: &[SweepStats]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.policy == y.policy
                && x.n_runs == y.n_runs
                && x.mean_total_mbps.to_bits() == y.mean_total_mbps.to_bits()
                && x.ci95_total_mbps.to_bits() == y.ci95_total_mbps.to_bits()
                && x.mean_per_flow_mbps.len() == y.mean_per_flow_mbps.len()
                && x.mean_per_flow_mbps
                    .iter()
                    .zip(&y.mean_per_flow_mbps)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
                && x.mean_dof.to_bits() == y.mean_dof.to_bits()
                && x.mean_fairness.to_bits() == y.mean_fairness.to_bits()
        })
}

/// One generated scenario and the registry name of the environment it
/// runs in (`None` = the default indoor world).
fn generated(kind: u8, gen_seed: u64) -> (Scenario, Option<&'static str>) {
    let mut generator = ScenarioGenerator::new(gen_seed);
    match kind {
        0 => (generator.n_pairs(2), None),
        1 => (generator.n_pairs(3), None),
        2 => (generator.hidden_terminal(3), None),
        3 => (generator.dense(8), None),
        // The sparse city world: links below the power floor are absent,
        // exercising the typed no-such-link path of the SoA cache.
        _ => (city_scenario(16), Some("multi_cell")),
    }
}

/// The seeds a generated case sweeps (and draws its topologies from).
fn seeds_for(gen_seed: u64) -> [u64; 2] {
    [gen_seed, gen_seed ^ 0xBEEF]
}

/// Builds the all-policy spec for one generated scenario, at the
/// default round count.
fn spec_for(kind: u8, gen_seed: u64) -> SweepSpec {
    let (scenario, environment) = generated(kind, gen_seed);
    let mut spec = SweepSpec::new(scenario).seeds(seeds_for(gen_seed));
    if let Some(env) = environment {
        spec = spec.environment_named(env).expect("builtin environment");
    }
    for name in BUILTIN_POLICY_NAMES {
        spec = spec.policy_named(name).expect("builtin policy");
    }
    spec
}

/// Whether two SoA matrices have the same shape and bit-identical real
/// and imaginary parts.
fn soa_bitwise_eq(a: &CMatrixSoA, b: &CMatrixSoA) -> bool {
    let bits_eq = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
    a.shape() == b.shape()
        && (0..a.rows())
            .all(|i| bits_eq(a.row_re(i), b.row_re(i)) && bits_eq(a.row_im(i), b.row_im(i)))
}

/// Draws each seed's topology exactly as a sweep job does, builds the
/// engine's channel cache on the occupied bins, and checks every
/// directed node pair against the medium: an installed link's cached
/// matrix equals the SoA conversion of its AoS evaluation bit for bit
/// on every bin, and an absent link is `None` in both.
fn check_tables_against_aos(kind: u8, gen_seed: u64) {
    let (scenario, env_name) = generated(kind, gen_seed);
    let env: &dyn ChannelEnvironment = match env_name {
        Some(name) => environment_from_name(name).expect("builtin environment"),
        None => &SIGCOMM11_INDOOR,
    };
    let cfg = SimConfig::default();
    let fft_len = cfg.ofdm.fft_len;
    let bins = occupied_subcarrier_indices();
    let n = scenario.antennas.len();
    let testbed = env
        .testbed(n)
        .expect("generated scenario fits its environment");
    for seed in seeds_for(gen_seed) {
        let topo = build_environment_topology(
            env,
            &testbed,
            &scenario.antennas,
            cfg.ofdm.bandwidth_hz,
            seed,
            &mut StdRng::seed_from_u64(seed),
        )
        .expect("generated scenario fits its environment");
        let cache = ChannelCache::build(&topo, &bins, fft_len);
        for from in 0..n {
            for to in 0..n {
                let Some(link) = topo.medium.link(topo.nodes[from], topo.nodes[to]) else {
                    assert!(
                        cache.table(from, to).is_none() && cache.matrix(from, to, 0).is_none(),
                        "link {from}->{to} absent from the medium but cached \
                         (kind {kind}, seed {seed})"
                    );
                    continue;
                };
                for (pos, &bin) in bins.iter().enumerate() {
                    let cached = cache.matrix(from, to, pos);
                    assert!(
                        cached.is_some(),
                        "installed link {from}->{to} missing from the cache \
                         (kind {kind}, seed {seed})"
                    );
                    let expected = CMatrixSoA::from_aos(&link.channel_matrix(bin, fft_len));
                    assert!(
                        cached.is_some_and(|m| soa_bitwise_eq(m, &expected)),
                        "link {from}->{to} bin {bin}: SoA table diverged from the AoS \
                         evaluation (kind {kind}, seed {seed})"
                    );
                }
            }
        }
    }
}

proptest! {
    // Table builds are cheap, so every case checks every kind.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn channel_tables_equal_aos_conversion_bitwise(gen_seed in 0u64..1_000) {
        for kind in 0..KINDS {
            check_tables_against_aos(kind, gen_seed);
        }
    }
}

proptest! {
    // Each case runs 5 policies x 2 seeds x 2 thread counts; a small
    // case count already covers every scenario family thanks to the
    // explicit `kind` strategy.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cached SoA sweep (its tables pinned to the AoS conversion by
    /// `channel_tables_equal_aos_conversion_bitwise`) gives bit-identical
    /// statistics at 1 and 2 worker threads.
    #[test]
    fn cached_soa_equals_aos_conversion_across_threads(
        kind in 0u8..KINDS,
        gen_seed in 0u64..1_000,
    ) {
        let serial = spec_for(kind, gen_seed).threads(1).run();
        let threaded = spec_for(kind, gen_seed).threads(2).run();

        prop_assert!(serial.iter().all(|s| s.mean_total_mbps.is_finite()));
        prop_assert!(
            stats_bitwise_eq(&serial, &threaded),
            "cached sweep depends on thread count (kind {kind}, seed {gen_seed})"
        );
    }
}
