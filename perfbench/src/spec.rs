//! Sweep requests as the benchmark generates them, and the values the
//! engine runs them on.

use crate::report::{splitmix, stats_bytes};
use nplus::observer::{NullObserver, RoundObserver, RunIdentity};
use nplus::policy::{policy_from_name, MacPolicy};
use nplus::sim::{
    aggregate_results, CanonicalSpec, RunResult, Scenario, SeedResults, SimConfig, SimEngine,
    SweepSpec, SweepStats,
};
use nplus_channel::environment::{environment_from_name, ChannelEnvironment};
use nplus_channel::placement::Testbed;
use nplus_medium::{build_environment_topology, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sweep in the server's grammar: a scenario spec, an environment,
/// policies, a seed list and a round count.
#[derive(Clone)]
pub struct SweepReq {
    pub scenario: String,
    pub environment: &'static str,
    pub policies: Vec<&'static str>,
    pub seeds: Vec<u64>,
    pub rounds: usize,
}

impl SweepReq {
    /// The request frame's JSON, with `"threads":1`.
    pub fn payload(&self) -> String {
        let policies: Vec<String> = self.policies.iter().map(|p| format!("\"{p}\"")).collect();
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        format!(
            "{{\"cmd\":\"sweep\",\"scenario\":\"{}\",\"environment\":\"{}\",\"policies\":[{}],\
             \"seeds\":[{}],\"rounds\":{},\"threads\":1}}",
            self.scenario,
            self.environment,
            policies.join(","),
            seeds.join(","),
            self.rounds
        )
    }
}

/// `n` consecutive sweep seeds starting at a point drawn from the
/// workload seed and `salt` (below 2^40, so every seed is exact in JSON).
pub fn derived_seeds(workload_seed: u64, salt: u64, n: u64) -> Vec<u64> {
    let mut state = workload_seed ^ salt;
    let base = (splitmix(&mut state) >> 24) & !0xFF;
    (base..base + n).collect()
}

/// A request resolved into the values the engine runs on.
pub struct Resolved {
    pub req: SweepReq,
    pub env: &'static dyn ChannelEnvironment,
    pub scenario: Scenario,
    pub cfg: SimConfig,
    pub testbed: Testbed,
    pub policies: Vec<&'static dyn MacPolicy>,
    pub names: Vec<String>,
    pub canonical: CanonicalSpec,
}

impl Resolved {
    /// Resolves `req` without the server's request parser: the testkit
    /// spec grammar, the registries and `CanonicalSpec`.
    pub fn new(req: &SweepReq) -> Result<Self, String> {
        let env = environment_from_name(req.environment)
            .ok_or_else(|| format!("unknown environment {}", req.environment))?;
        let parsed = nplus_testkit::parse_spec(&req.scenario, env.capacity())?;
        let traffic = parsed.traffic.unwrap_or_default();
        let policies = req
            .policies
            .iter()
            .map(|n| policy_from_name(n).ok_or_else(|| format!("unknown policy {n}")))
            .collect::<Result<Vec<_>, _>>()?;
        let names: Vec<String> = req.policies.iter().map(|n| n.to_string()).collect();
        let canonical = CanonicalSpec::new(
            &parsed.scenario,
            req.environment,
            &names,
            req.seeds.clone(),
            req.rounds,
        )
        .and_then(|c| c.with_traffic(traffic))
        .map_err(|e| e.to_string())?;
        // The config a sweep spec builds for this environment: its
        // hardware profile and join threshold, the request's rounds and
        // traffic, defaults elsewhere.
        let cfg = SimConfig {
            rounds: req.rounds,
            traffic,
            hardware: env.hardware(),
            l_db: env.join_power_l_db(),
            ..SimConfig::default()
        };
        let testbed = env
            .testbed(parsed.scenario.antennas.len())
            .map_err(|e| e.to_string())?;
        Ok(Resolved {
            req: req.clone(),
            env,
            scenario: parsed.scenario,
            cfg,
            testbed,
            policies,
            names,
            canonical,
        })
    }

    /// The sweep spec the server would run, at `threads` threads.
    pub fn spec(&self, threads: usize) -> Result<SweepSpec, String> {
        self.canonical.to_spec(threads).map_err(|e| e.to_string())
    }

    /// Draws the topology of one seed job.
    pub fn topology(&self, seed: u64) -> Result<Topology, String> {
        let mut placement_rng = StdRng::seed_from_u64(seed);
        build_environment_topology(
            self.env,
            &self.testbed,
            &self.scenario.antennas,
            self.cfg.ofdm.bandwidth_hz,
            seed,
            &mut placement_rng,
        )
        .map_err(|e| e.to_string())
    }

    /// One policy run of a seed job, with the job's run stream.
    pub fn run(
        &self,
        engine: &SimEngine,
        policy: &dyn MacPolicy,
        seed: u64,
        observer: &mut dyn RoundObserver,
        identity: Option<RunIdentity>,
    ) -> RunResult {
        let mut run_rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        engine.run_identified(policy, &mut run_rng, observer, identity)
    }

    pub fn aggregate(&self, results: &[SeedResults]) -> Vec<SweepStats> {
        aggregate_results(self.scenario.flows.len(), &self.names, results)
    }

    /// The serial reference: every seed job walked on the calling
    /// thread, untraced.
    pub fn serial_stats(&self) -> Result<Vec<SweepStats>, String> {
        let mut results = Vec::with_capacity(self.req.seeds.len());
        for &seed in &self.req.seeds {
            let topo = self.topology(seed)?;
            let engine = SimEngine::new(&topo, &self.scenario, &self.cfg);
            let per_policy = self
                .policies
                .iter()
                .map(|&p| self.run(&engine, p, seed, &mut NullObserver, None))
                .collect();
            results.push(SeedResults { seed, per_policy });
        }
        Ok(self.aggregate(&results))
    }
}

/// A reference computed for every spec, as statistics and as bytes.
pub struct Reference {
    pub stats: Vec<SweepStats>,
    pub bytes: Vec<u8>,
}

impl Reference {
    pub fn new(stats: Vec<SweepStats>) -> Self {
        let bytes = stats_bytes(&stats);
        Reference { stats, bytes }
    }
}
