//! The three workloads and the traces they replay.
//!
//! Each workload fixes the engine configuration, the trace generator and
//! the schedule of the served run.  Every number here is part of the
//! benchmark's definition: later changes claim against these names, so a
//! change to any of them is a change to the benchmark, not to the program.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtim_core::{FrameworkKind, SimConfig};
use rtim_datagen::social_sim::{SocialSimConfig, SocialSimKind};
use rtim_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use rtim_graph::{RmatConfig, RmatGraph};
use rtim_stream::{Action, UserId};

/// How a workload's action trace is generated from the run seed.
#[derive(Debug, Clone, Copy)]
pub enum TraceKind {
    /// Reddit-like simulated trace: deep cascades (mean depth ≈ 4.6).
    Reddit { users: u32 },
    /// Twitter-like simulated trace (shallow cascades, mean depth ≈ 1.9),
    /// with a churn relabel: every `churn_period / CHURN_GROUPS` actions
    /// one of `CHURN_GROUPS` user groups is retired and replaced by fresh
    /// ids, so the live population stays at `users` while the ids ever
    /// seen grow by `users / churn_period` per action.
    TwitterChurn { users: u32, churn_period: u64 },
    /// SYN-N: follows on an R-MAT graph with exponential response
    /// distance of the given mean (in actions).  The follow graph is the
    /// same for every run (seeded by [`SYN_GRAPH_SEED`]); the run seed
    /// draws the stream on it, so runs differ in their actions, not in
    /// which users are hubs.
    SynN { users: u32, mean_distance: f64 },
}

/// Seed of the SYN-N follow graph.
const SYN_GRAPH_SEED: u64 = 0x5eed_0001;

/// Number of user groups the churn relabel rotates through.
const CHURN_GROUPS: u64 = 16;

/// The social simulator scales its response distances with the length
/// of the stream it generates, so it always generates at least this many
/// actions and the run uses a prefix: the trace's structure does not
/// depend on how long a run is.
const SOCIAL_LENGTH: u64 = 500_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: FrameworkKind,
    pub k: usize,
    pub beta: f64,
    /// Window size N.
    pub window: usize,
    /// Slide length L; every INGEST frame carries exactly one slide.
    pub slide: usize,
    /// Shard-pool worker threads of the served engine.
    pub threads: usize,
    pub trace: TraceKind,
    /// Capacity phase sends a QUERY after every INGEST frame.
    pub query_every_frame: bool,
    /// Persistence with a background snapshot every this many slides;
    /// `None` serves from memory only.
    pub snapshot_every: Option<u64>,
    /// Expected capacity in actions/s on the reference machine; sizes the
    /// capacity phase so it lasts about its share of `--seconds`.
    pub nominal_capacity: f64,
    /// The open-loop rate of INGEST+QUERY pairs per second (a quarter to a
    /// third of the nominal capacity, so a machine running a quarter slower
    /// than usual still does not saturate).  Fixed here, never derived from
    /// the run, so capacity noise cannot set the load under which freshness
    /// is taken.
    pub fresh_rate: f64,
    /// Frames ingested after the recovery snapshot: the journal suffix
    /// every restart replays.
    pub suffix_frames: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sic-deep",
        kind: FrameworkKind::Sic,
        k: 50,
        beta: 0.1,
        window: 4000,
        slide: 500,
        threads: 1,
        trace: TraceKind::Reddit { users: 20_000 },
        query_every_frame: false,
        snapshot_every: None,
        nominal_capacity: 30_000.0,
        fresh_rate: 20.0,
        suffix_frames: 8,
    },
    Workload {
        name: "sic-pool-small",
        kind: FrameworkKind::Sic,
        k: 10,
        beta: 0.5,
        window: 2000,
        slide: 100,
        threads: 2,
        trace: TraceKind::SynN {
            users: 5_000,
            mean_distance: 500.0,
        },
        query_every_frame: true,
        snapshot_every: None,
        nominal_capacity: 150_000.0,
        fresh_rate: 300.0,
        suffix_frames: 40,
    },
    Workload {
        name: "ic-churn-durable",
        kind: FrameworkKind::Ic,
        k: 20,
        beta: 0.1,
        window: 4000,
        slide: 200,
        threads: 1,
        trace: TraceKind::TwitterChurn {
            users: 4_000,
            churn_period: 40_000,
        },
        query_every_frame: false,
        snapshot_every: Some(48),
        nominal_capacity: 18_000.0,
        fresh_rate: 30.0,
        suffix_frames: 44,
    },
];

/// Share of `--seconds` given to the capacity legs and to the open-loop
/// freshness segments; the rest covers set-up, the durable tail and
/// recovery.
pub const CAPACITY_SHARE: f64 = 0.4;
pub const FRESH_SHARE: f64 = 0.4;
/// The timed part of a run is this many rounds of one capacity leg and
/// one freshness segment.  Interleaving spreads both metrics over the
/// whole run, so a slow stretch of the machine hits them alike instead of
/// landing on one phase; capacity and CPU time pool the legs, freshness
/// averages the segments' medians.
pub const ROUNDS: usize = 8;
/// p95 needs at least ten samples beyond it.
pub const MIN_FRESH_PAIRS: usize = 200;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine configuration the server runs.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.k, self.beta, self.window, self.slide).with_threads(self.threads)
    }

    /// How many frames each phase gets for a run of `seconds`.
    pub fn plan(&self, seconds: f64) -> Plan {
        let cap_frames = self.nominal_capacity * seconds * CAPACITY_SHARE / self.slide as f64;
        let fresh = (self.fresh_rate * seconds * FRESH_SHARE).max(MIN_FRESH_PAIRS as f64);
        let segment_frames = (fresh / ROUNDS as f64).ceil() as usize;
        let mut leg_frames = ((cap_frames / ROUNDS as f64).round() as usize).max(1);
        if let Some(every) = self.snapshot_every.map(|e| e as usize) {
            // A round spans a whole number of snapshot periods, so the
            // background snapshots fall at the same places in every round
            // and every capacity leg carries as many of them.
            let round = (leg_frames + segment_frames).div_ceil(every).max(2) * every;
            leg_frames = round - segment_frames;
        }
        Plan {
            leg_frames,
            segment_frames,
            suffix_frames: self.suffix_frames,
        }
    }
    /// Marks the frames the served run queries after: the last frame of
    /// each capacity leg (every frame of it with `query_every_frame`),
    /// every freshness frame, and the last suffix frame.
    pub fn queried(&self, plan: &Plan) -> Vec<bool> {
        let mut queried = vec![false; plan.total_frames()];
        for round in 0..ROUNDS {
            let leg = plan.leg(round);
            if self.query_every_frame {
                queried[leg].fill(true);
            } else {
                queried[leg.end - 1] = true;
            }
            queried[plan.segment(round)].fill(true);
        }
        queried[plan.suffix().end - 1] = true;
        queried
    }

    /// Generates the whole trace for `seed`, cut into one-slide frames.
    /// Action ids run 1.. consecutively, so the server's arrival-order
    /// rebase of a single connection is the identity.
    pub fn frames(&self, plan: &Plan, seed: u64) -> Vec<Vec<Action>> {
        let actions = (plan.total_frames() * self.slide) as u64;
        let trace = match self.trace {
            TraceKind::Reddit { users } => social(SocialSimKind::RedditLike, users, actions, seed),
            TraceKind::TwitterChurn {
                users,
                churn_period,
            } => {
                let mut t = social(SocialSimKind::TwitterLike, users, actions, seed);
                churn(&mut t, users, churn_period);
                t
            }
            TraceKind::SynN {
                users,
                mean_distance,
            } => {
                let mut cfg = SyntheticConfig::paper(SyntheticKind::SynN);
                cfg.users = users;
                cfg.actions = actions;
                cfg.lambda = 1.0 / mean_distance;
                let edges = (users as f64 * cfg.avg_degree).round() as usize;
                let graph = RmatGraph::generate(
                    &RmatConfig::new(users, edges),
                    &mut StdRng::seed_from_u64(SYN_GRAPH_SEED),
                );
                cfg.generate_on_graph(&graph, &mut StdRng::seed_from_u64(seed))
                    .actions()
                    .to_vec()
            }
        };
        trace.chunks(self.slide).map(<[Action]>::to_vec).collect()
    }
}

/// Frame counts of one run.  Frame 0 is the set-up frame, then
/// [`ROUNDS`] rounds of a capacity leg and a freshness segment, then the
/// recovery suffix.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub leg_frames: usize,
    pub segment_frames: usize,
    pub suffix_frames: usize,
}

impl Plan {
    pub fn total_frames(&self) -> usize {
        self.suffix().end
    }

    fn round_start(&self, round: usize) -> usize {
        1 + round * (self.leg_frames + self.segment_frames)
    }

    /// Frame range of the capacity leg of `round`.
    pub fn leg(&self, round: usize) -> std::ops::Range<usize> {
        let start = self.round_start(round);
        start..start + self.leg_frames
    }

    /// Frame range of the freshness segment of `round`.
    pub fn segment(&self, round: usize) -> std::ops::Range<usize> {
        let start = self.leg(round).end;
        start..start + self.segment_frames
    }

    pub fn suffix(&self) -> std::ops::Range<usize> {
        let start = self.round_start(ROUNDS);
        start..start + self.suffix_frames
    }
}

/// The first `actions` actions of a simulated trace of at least
/// [`SOCIAL_LENGTH`] actions.
fn social(kind: SocialSimKind, users: u32, actions: u64, seed: u64) -> Vec<Action> {
    let mut cfg = SocialSimConfig::paper(kind);
    cfg.users = users;
    cfg.actions = actions.max(SOCIAL_LENGTH);
    cfg.seed = seed;
    let mut trace = cfg.generate().actions().to_vec();
    trace.truncate(actions as usize);
    trace
}

/// Retires and re-mints user ids at a fixed rate (see
/// [`TraceKind::TwitterChurn`]).
fn churn(actions: &mut [Action], users: u32, period: u64) {
    let users = users as u64;
    for a in actions {
        let u = a.user.0 as u64;
        let group = u % CHURN_GROUPS;
        let epoch = (a.id.0 + group * period / CHURN_GROUPS) / period;
        let relabeled = u + users * epoch;
        a.user = UserId(u32::try_from(relabeled).expect("churned user id fits in u32"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queried_frames_match_the_served_schedule() {
        for w in &WORKLOADS {
            let plan = w.plan(16.0);
            let queried = w.queried(&plan);
            assert_eq!(queried.len(), plan.total_frames());
            assert!(!queried[0], "{}: the set-up frame is not queried", w.name);
            let per_leg = if w.query_every_frame {
                plan.leg_frames
            } else {
                1
            };
            let expected = ROUNDS * (per_leg + plan.segment_frames) + 1;
            assert_eq!(
                queried.iter().filter(|&&q| q).count(),
                expected,
                "{}",
                w.name
            );
            assert!(queried[plan.suffix().end - 1]);
            assert!(!queried[plan.suffix().start]);
        }
    }
}
