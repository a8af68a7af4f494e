//! # chaos — seeded fault-script generator and runner
//!
//! Turns one `u64` seed into a timed script of faults — crashes, restarts,
//! partitions, heals, descheduling pauses, transient link delays, CPU
//! slowdowns — runs it against a protocol cluster, and checks two things
//! afterwards:
//!
//! * **Safety** — the §2.2 atomic-broadcast properties over the delivery
//!   histories of every live replica ([`abcast::check_histories`]). A
//!   violation is fatal for every protocol.
//! * **Convergence** — after the last fault there is a quiescent tail
//!   (40% of the horizon) with a live quorum; by the horizon every live
//!   replica must have delivered at least the longest history observed
//!   *before* the first fault (the pre-fault commit point). Acuerdo must
//!   converge — its rejoin path re-seeds rebooted replicas with the full
//!   retained log — so a miss is fatal; the baselines run without restart
//!   factories (a crashed baseline node stays down) and may safely stall,
//!   so a miss is only reported.
//!
//! The **basic tier** generates schedules under a quorum-preservation
//! budget: at most `f = (n-1)/2` replicas are ever crashed, partitions cut
//! off only a minority and always heal inside the fault window, and every
//! restart / heal / un-scale lands before the quiescent tail begins.
//!
//! The **correlated tier** ([`Tier::Correlated`]) deliberately breaks that
//! budget with the failure shapes volatile replication cannot survive:
//! whole-cluster power failure with staggered reboots, a simultaneous
//! majority crash, and repeated crash-during-recovery. It is meant to run
//! with [`simnet::DurabilityMode::Durable`], where every reboot recovers
//! from its fsync'd persistent log; a [`abcast::DurabilityAuditor`] watches
//! the live delivery histories across every fault boundary and any
//! committed entry that fails to resurface by the horizon is fatal. Run
//! volatile, the same schedules demonstrate the gap durable mode closes —
//! the auditor fires and the report records the loss without judging it.
//!
//! Everything — schedule generation and execution — is deterministic per
//! seed, so a failing run reproduces bit-identically from its printed repro
//! command (`chaos --proto acuerdo --seed N --sched calendar ...`, which
//! echoes every knob the run was judged under, including the event-queue
//! scheduler). The `chaos` bin leans on that for its post-mortem dump: a
//! fatal seed is re-run keeping its trace's [`Trace::Tail`], the last
//! events of every node ([`crate::flight_tail`]), which are written as
//! `flightrec-<seed>.json`.

use abcast::{cluster_with_client, histories, DurabilityAuditor, Replica, Violation, WindowClient};
use acuerdo::{AcuerdoConfig, AcuerdoNode, DisseminationMode};
use derecho::{DerechoConfig, DerechoNode, Mode};
use paxos::{PaxosConfig, PaxosNode};
use raft::{RaftConfig, RaftNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{
    Counter, DurabilityMode, MetricsSnapshot, NodeId, SchedKind, Sim, SimTime, TraceEvent,
};
use std::time::Duration;
use zab::{ZabConfig, ZabNode};

simnet::registry! {
    /// Protocols the chaos harness can drive.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum Proto {
        /// The paper's contribution, with crash-restart rejoin enabled.
        Acuerdo = "acuerdo",
        /// Raft (etcd baseline) over TCP.
        Raft = "raft",
        /// Zab (ZooKeeper baseline) over TCP.
        Zab = "zab",
        /// Multi-Paxos (libpaxos baseline) over TCP.
        Paxos = "paxos",
        /// Derecho (leader mode) over RDMA.
        Derecho = "derecho",
    }
}

impl Proto {
    /// Whether crashed replicas come back in the **basic** tier (a
    /// registered restart factory). Only Acuerdo pairs basic-tier crashes
    /// with restarts — baselines stay down, which keeps them inside their
    /// own fault models. The correlated tier registers restart factories
    /// for every protocol it supports (see [`Proto::correlated_capable`]).
    pub fn restartable(self) -> bool {
        matches!(self, Proto::Acuerdo)
    }

    /// Whether the correlated tier can drive this protocol: it needs both a
    /// restart factory (every correlated scenario reboots replicas) and a
    /// durable-log mode (the tier's whole point is recovery-from-log).
    /// Paxos and Derecho have neither.
    pub fn correlated_capable(self) -> bool {
        matches!(self, Proto::Acuerdo | Proto::Raft | Proto::Zab)
    }
}

simnet::registry! {
    /// Fault-schedule tier: how adversarial the generated script is.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
    pub enum Tier {
        /// Quorum-preserving mixed faults ([`Schedule::generate`]).
        #[default]
        Basic = "basic",
        /// Quorum-breaking correlated faults — power failure, majority crash,
        /// crash-during-recovery ([`Schedule::generate_correlated`]).
        Correlated = "correlated",
    }
}

/// One fault of a schedule. Paired "off" actions (restart after a crash,
/// heal after a partition, un-scale after a CPU slowdown) are separate
/// entries so a schedule is a flat, replayable list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail-stop `node` (loses all volatile state).
    Crash {
        /// The replica to kill.
        node: NodeId,
    },
    /// Reboot a crashed `node` (fresh process via the restart factory).
    Restart {
        /// The replica to reboot.
        node: NodeId,
    },
    /// Cut a minority group off from the rest of the fabric.
    Partition {
        /// The isolated minority (size ≤ f).
        minority: Vec<NodeId>,
    },
    /// Remove the active partition.
    Heal,
    /// Deschedule `node` for `dur` (timers and CPU deliveries wait).
    Pause {
        /// The replica to deschedule.
        node: NodeId,
        /// Pause length.
        dur: Duration,
    },
    /// Add one-way latency on the (src, dst) link for a while.
    LinkDelay {
        /// Link source.
        src: NodeId,
        /// Link destination.
        dst: NodeId,
        /// Extra one-way latency.
        extra: Duration,
        /// How long the extra latency lasts from the fault's start.
        dur: Duration,
    },
    /// Scale `node`'s CPU charges by `milli`/1000 (1000 = back to normal).
    CpuScale {
        /// The replica to slow down (or restore).
        node: NodeId,
        /// Scale factor in thousandths (kept integral so schedules are `Eq`).
        milli: u32,
    },
    /// Power-fail `nodes` at one instant: every listed replica fail-stops
    /// and its persistent log is truncated to the last fsync'd barrier
    /// (volatile state and un-synced appends are gone). The whole cluster
    /// at once models a rack-level outage; a subset models a correlated
    /// majority crash.
    PowerFailure {
        /// The replicas that lose power together.
        nodes: Vec<NodeId>,
    },
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Crash { node } => format!("crash n{node}"),
            Fault::Restart { node } => format!("restart n{node}"),
            Fault::Partition { minority } => format!("partition {minority:?}"),
            Fault::Heal => "heal".to_string(),
            Fault::Pause { node, dur } => format!("pause n{node} {}us", dur.as_micros()),
            Fault::LinkDelay {
                src,
                dst,
                extra,
                dur,
            } => format!(
                "delay {src}->{dst} +{}us for {}us",
                extra.as_micros(),
                dur.as_micros()
            ),
            Fault::CpuScale { node, milli } => format!("cpu n{node} x{:.1}", *milli as f64 / 1e3),
            Fault::PowerFailure { nodes } => format!("power-fail {nodes:?}"),
        }
    }
}

/// A fault at a point in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

/// A complete, replayable fault script for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// The generating seed (also seeds the simulation).
    pub seed: u64,
    /// Replica count the script was generated for.
    pub n: usize,
    /// Total virtual run length.
    pub horizon: SimTime,
    /// Faults in firing order.
    pub faults: Vec<TimedFault>,
}

impl Schedule {
    /// Generate the script for `seed`: 2–5 primary faults inside the fault
    /// window `[20%, 60%)` of the horizon, each drawn from the mix the
    /// quorum budget currently allows. The tail 40% stays fault-free so the
    /// cluster can converge before it is judged.
    pub fn generate(seed: u64, n: usize, horizon: SimTime, restartable: bool) -> Schedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let f = (n - 1) / 2;
        let win_start = horizon.as_nanos() / 5;
        let win_end = horizon.as_nanos() * 3 / 5;
        let clamp = |ns: u64| SimTime::from_nanos(ns.min(win_end));

        let mut faults: Vec<TimedFault> = Vec::new();
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut partitioned = false;
        let primary = rng.random_range(2usize..=5);
        for _ in 0..primary {
            let at_ns = rng.random_range(win_start..win_end);
            let at = SimTime::from_nanos(at_ns);
            match rng.random_range(0u32..6) {
                0 if f >= 1 && crashed.len() < f => {
                    // Crash a not-yet-crashed replica; pair with a restart
                    // when the protocol can take one.
                    let node = rng.random_range(0..n);
                    if crashed.contains(&node) {
                        continue;
                    }
                    crashed.push(node);
                    faults.push(TimedFault {
                        at,
                        fault: Fault::Crash { node },
                    });
                    if restartable {
                        let back = clamp(at_ns + rng.random_range(500_000u64..3_000_000));
                        faults.push(TimedFault {
                            at: back,
                            fault: Fault::Restart { node },
                        });
                    }
                }
                1 if f >= 1 && !partitioned => {
                    partitioned = true;
                    let m = rng.random_range(1usize..=f);
                    let mut minority = Vec::with_capacity(m);
                    while minority.len() < m {
                        let node = rng.random_range(0..n);
                        if !minority.contains(&node) {
                            minority.push(node);
                        }
                    }
                    faults.push(TimedFault {
                        at,
                        fault: Fault::Partition { minority },
                    });
                    let heal = clamp(at_ns + rng.random_range(1_000_000u64..8_000_000));
                    faults.push(TimedFault {
                        at: heal.max(at),
                        fault: Fault::Heal,
                    });
                }
                2 => {
                    let node = rng.random_range(0..n);
                    let dur = Duration::from_micros(rng.random_range(300u64..2_000));
                    faults.push(TimedFault {
                        at,
                        fault: Fault::Pause { node, dur },
                    });
                }
                3 => {
                    let src = rng.random_range(0..n);
                    let mut dst = rng.random_range(0..n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    faults.push(TimedFault {
                        at,
                        fault: Fault::LinkDelay {
                            src,
                            dst,
                            extra: Duration::from_micros(rng.random_range(20u64..200)),
                            dur: Duration::from_micros(rng.random_range(1_000u64..4_000)),
                        },
                    });
                }
                4 => {
                    let node = rng.random_range(0..n);
                    let milli = rng.random_range(1_500u32..4_000);
                    faults.push(TimedFault {
                        at,
                        fault: Fault::CpuScale { node, milli },
                    });
                    let restore = clamp(at_ns + rng.random_range(2_000_000u64..6_000_000));
                    faults.push(TimedFault {
                        at: restore.max(at),
                        fault: Fault::CpuScale { node, milli: 1_000 },
                    });
                }
                _ => {
                    // Mild scheduler hiccup as the fallback fault.
                    let node = rng.random_range(0..n);
                    faults.push(TimedFault {
                        at,
                        fault: Fault::Pause {
                            node,
                            dur: Duration::from_micros(rng.random_range(100u64..800)),
                        },
                    });
                }
            }
        }
        // Stable sort: paired on/off entries share relative order on ties.
        faults.sort_by_key(|tf| tf.at);
        Schedule {
            seed,
            n,
            horizon,
            faults,
        }
    }

    /// Generate a **correlated** script for `seed`: one of three
    /// quorum-breaking scenarios, rotated by `seed % 3`:
    ///
    /// * `0` — **whole-cluster power failure**: every replica loses power at
    ///   one instant (persistent logs truncate to the last fsync), then
    ///   reboots staggered, in a seed-shuffled order;
    /// * `1` — **simultaneous majority crash**: `f+1 ..= n-1` replicas
    ///   fail-stop at the same timestamp, leaving at least one survivor but
    ///   no quorum, then reboot staggered;
    /// * `2` — **repeated crash-during-recovery**: one victim is crashed,
    ///   rebooted, and crashed again shortly after each recovery begins, for
    ///   2–3 cycles.
    ///
    /// All offsets are fractions of the horizon so the same scenario shape
    /// holds for a 50 ms Acuerdo run and a 600 ms Raft run, and every
    /// reboot lands no later than the 60% mark — the 40% quiescent tail is
    /// the cluster's recovery budget before the durability auditor and the
    /// convergence check judge it.
    pub fn generate_correlated(seed: u64, n: usize, horizon: SimTime) -> Schedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD15C_FA11);
        let h = horizon.as_nanos();
        let f = (n - 1) / 2;
        let win_end = h * 3 / 5;
        let clamp = |ns: u64| SimTime::from_nanos(ns.min(win_end));
        // A per-mille fraction of the horizon, drawn uniformly.
        fn frac(rng: &mut SmallRng, h: u64, lo: u64, hi: u64) -> u64 {
            h / 1000 * rng.random_range(lo..hi)
        }
        fn shuffled(rng: &mut SmallRng, n: usize) -> Vec<NodeId> {
            let mut order: Vec<NodeId> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            order
        }

        let mut faults: Vec<TimedFault> = Vec::new();
        match seed % 3 {
            0 => {
                let at = frac(&mut rng, h, 200, 350);
                faults.push(TimedFault {
                    at: SimTime::from_nanos(at),
                    fault: Fault::PowerFailure {
                        nodes: (0..n).collect(),
                    },
                });
                let base = frac(&mut rng, h, 20, 60);
                for (k, node) in shuffled(&mut rng, n).into_iter().enumerate() {
                    let stagger = frac(&mut rng, h, 5, 20);
                    faults.push(TimedFault {
                        at: clamp(at + base + k as u64 * stagger),
                        fault: Fault::Restart { node },
                    });
                }
            }
            1 => {
                let at = frac(&mut rng, h, 200, 400);
                let m = rng.random_range(f + 1..n);
                let victims: Vec<NodeId> = shuffled(&mut rng, n).into_iter().take(m).collect();
                for &node in &victims {
                    faults.push(TimedFault {
                        at: SimTime::from_nanos(at),
                        fault: Fault::Crash { node },
                    });
                }
                let base = frac(&mut rng, h, 20, 60);
                for (k, &node) in victims.iter().enumerate() {
                    let stagger = frac(&mut rng, h, 5, 20);
                    faults.push(TimedFault {
                        at: clamp(at + base + k as u64 * stagger),
                        fault: Fault::Restart { node },
                    });
                }
            }
            _ => {
                let victim = rng.random_range(0..n);
                let mut at = frac(&mut rng, h, 200, 300);
                for _ in 0..rng.random_range(2usize..=3) {
                    faults.push(TimedFault {
                        at: clamp(at),
                        fault: Fault::Crash { node: victim },
                    });
                    let back = at + frac(&mut rng, h, 30, 80);
                    faults.push(TimedFault {
                        at: clamp(back),
                        fault: Fault::Restart { node: victim },
                    });
                    // Next crash lands shortly after this recovery begins.
                    at = back + frac(&mut rng, h, 10, 30);
                }
            }
        }
        // Stable sort: a crash and its restart clamped to the same instant
        // keep their push order, so the victim always ends the script up.
        faults.sort_by_key(|tf| tf.at);
        Schedule {
            seed,
            n,
            horizon,
            faults,
        }
    }

    /// When the first fault fires (the pre-fault commit point is sampled
    /// here), or the horizon for an empty script.
    pub fn first_fault_at(&self) -> SimTime {
        self.faults.first().map(|tf| tf.at).unwrap_or(self.horizon)
    }
}

impl TimedFault {
    /// Fire this fault on `sim` *now* (callers advance the clock to
    /// [`TimedFault::at`] first; [`Schedule`] replay does this in `drive`).
    /// `n` is the replica count, needed to complement a partition minority.
    pub fn apply<M: 'static>(&self, sim: &mut Sim<M>, n: usize) {
        apply(sim, n, self)
    }
}

fn apply<M: 'static>(sim: &mut Sim<M>, n: usize, tf: &TimedFault) {
    let now = sim.now();
    match &tf.fault {
        Fault::Crash { node } => sim.crash(*node),
        Fault::Restart { node } => sim.restart_at(*node, now),
        Fault::Partition { minority } => {
            let rest: Vec<NodeId> = (0..n).filter(|i| !minority.contains(i)).collect();
            sim.partition(vec![minority.clone(), rest], now);
        }
        Fault::Heal => sim.heal(now),
        Fault::Pause { node, dur } => sim.pause_at(*node, now, *dur),
        Fault::LinkDelay {
            src,
            dst,
            extra,
            dur,
        } => sim.add_link_latency(*src, *dst, *extra, now + *dur),
        Fault::CpuScale { node, milli } => sim.set_cpu_scale(*node, *milli as f64 / 1e3),
        Fault::PowerFailure { nodes } => sim.power_failure(nodes),
    }
}

/// Outcome of one seeded chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Protocol driven.
    pub proto: Proto,
    /// Seed (schedule + simulation).
    pub seed: u64,
    /// Fault-schedule tier the script came from.
    pub tier: Tier,
    /// Durability mode the protocol ran under.
    pub durability: DurabilityMode,
    /// Event-queue scheduler the simulation ran on.
    pub sched: SchedKind,
    /// Acuerdo payload topology the run used (star fan-out or ring).
    pub dissemination: DisseminationMode,
    /// Client payload bytes per request.
    pub payload: usize,
    /// The executed script.
    pub schedule: Schedule,
    /// Longest history at the first fault (entries every live replica must
    /// eventually cover).
    pub pre_fault_commits: usize,
    /// Shortest live history at the horizon.
    pub final_min: usize,
    /// Longest live history at the horizon.
    pub final_max: usize,
    /// Live replicas at the horizon.
    pub live_nodes: usize,
    /// Safety verdict (`None` = all §2.2 properties hold).
    pub safety: Option<Violation>,
    /// Durability verdict from the cross-fault [`DurabilityAuditor`]:
    /// `Some` when a committed entry failed to resurface in any live
    /// history by the horizon. Fatal only in durable mode — volatile runs
    /// record the loss as the gap durable mode closes.
    pub durability_violation: Option<Violation>,
    /// Whether every live replica covered the pre-fault commit point.
    pub converged: bool,
    /// Cluster-wide counter snapshot.
    pub metrics: MetricsSnapshot,
}

impl ChaosReport {
    /// Whether this run fails the harness: any safety violation, a lost
    /// committed entry in durable mode, or — for Acuerdo, whose rejoin path
    /// must always recover — a convergence miss. The one carve-out is
    /// Acuerdo under a **correlated volatile** run: a whole-cluster power
    /// failure with volatile logs cannot converge by construction (that is
    /// the demonstration the tier exists for), so only safety is judged
    /// there.
    pub fn fatal(&self) -> bool {
        let acuerdo_must_converge = self.tier == Tier::Basic || self.durability.is_durable();
        self.safety.is_some()
            || (self.durability.is_durable() && self.durability_violation.is_some())
            || (self.proto == Proto::Acuerdo && acuerdo_must_converge && !self.converged)
    }

    /// The verdict word of the `chaos` bin's line. A fatal run names its
    /// cause: the violated property, or `stall` for a convergence miss.
    pub fn verdict(&self) -> String {
        if self.fatal() {
            let cause = match (&self.safety, &self.durability_violation) {
                (Some(v), _) => v.name(),
                (None, Some(v)) if self.durability.is_durable() => v.name(),
                _ => "stall",
            };
            format!("FAIL {cause}")
        } else if self.durability_violation.is_some() {
            "lost".into() // volatile run: committed entries gone, by design
        } else if !self.converged {
            "stall".into() // baseline without a rejoin path: safe but behind
        } else {
            "ok".into()
        }
    }

    /// The command reproducing this exact run. Every knob that shapes the
    /// execution is echoed — in particular `--sched`, so a seed that failed
    /// on one event-queue scheduler reproduces under the same one.
    pub fn repro(&self) -> String {
        let mut cmd = format!(
            "chaos --proto {} --seed {} --max-time-ms {} --sched {}",
            self.proto.name(),
            self.seed,
            self.schedule.horizon.as_nanos() / 1_000_000,
            self.sched.name()
        );
        if self.schedule.n != CHAOS_N {
            cmd.push_str(&format!(" --nodes {}", self.schedule.n));
        }
        if self.tier != Tier::Basic {
            cmd.push_str(&format!(" --tier {}", self.tier.name()));
        }
        if self.durability.is_durable() {
            cmd.push_str(&format!(" --durability {}", self.durability.name()));
        }
        if self.dissemination != DisseminationMode::Star {
            cmd.push_str(&format!(" --dissemination {}", self.dissemination.name()));
        }
        if self.payload != PAYLOAD {
            cmd.push_str(&format!(" --payload {}", self.payload));
        }
        cmd
    }

    /// One hand-rolled JSON record for the `--metrics-out` sidecar.
    pub fn to_json(&self) -> String {
        let faults: Vec<String> = self
            .schedule
            .faults
            .iter()
            .map(|tf| {
                format!(
                    "\"{:.0}us {}\"",
                    tf.at.as_micros_f64(),
                    simnet::json_escape(&tf.fault.describe())
                )
            })
            .collect();
        let verdict = |v: &Option<Violation>| match v {
            None => "null".to_string(),
            Some(v) => format!("\"{}\"", simnet::json_escape(&format!("{v:?}"))),
        };
        // Only a non-default topology or payload is echoed, so default
        // documents keep their historical shape byte-for-byte.
        let mut knobs = if self.dissemination == DisseminationMode::Star {
            String::new()
        } else {
            format!("\"dissemination\":\"{}\",", self.dissemination.name())
        };
        if self.payload != PAYLOAD {
            knobs.push_str(&format!("\"payload_bytes\":{},", self.payload));
        }
        format!(
            "{{\"proto\":\"{}\",\"seed\":{},\"tier\":\"{}\",\"durability\":\"{}\",\
             \"sched\":\"{}\",{knobs}\"faults\":[{}],\
             \"pre_fault_commits\":{},\"final_min\":{},\"final_max\":{},\
             \"live_nodes\":{},\"safety\":{},\"durability_violation\":{},\
             \"converged\":{},\"metrics\":{}}}",
            self.proto.name(),
            self.seed,
            self.tier.name(),
            self.durability.name(),
            self.sched.name(),
            faults.join(","),
            self.pre_fault_commits,
            self.final_min,
            self.final_max,
            self.live_nodes,
            verdict(&self.safety),
            verdict(&self.durability_violation),
            self.converged,
            self.metrics.to_json()
        )
    }
}

/// Replica count every chaos cluster uses (f = 2: room for a crash *and* a
/// minority partition in one script).
pub const CHAOS_N: usize = 5;

const WINDOW: usize = 8;
/// Client payload bytes per request unless [`ChaosOpts::payload`] says
/// otherwise.
pub const PAYLOAD: usize = 32;

/// Everything that shapes one chaos run. [`ChaosOpts::new`] gives the
/// historical defaults (basic tier, volatile, calendar queue, untraced, at
/// [`CHAOS_N`] replicas); override fields for the correlated/durable
/// matrix.
#[derive(Clone, Debug)]
pub struct ChaosOpts {
    /// Protocol to drive.
    pub proto: Proto,
    /// Seed (schedule + simulation).
    pub seed: u64,
    /// Total virtual run length.
    pub horizon: SimTime,
    /// Replica count.
    pub n: usize,
    /// Fault-schedule tier.
    pub tier: Tier,
    /// Durability mode for protocols that support one (Acuerdo, Raft, Zab;
    /// Paxos and Derecho have no durable-log mode and ignore it).
    pub durability: DurabilityMode,
    /// Event-queue scheduler for the simulation.
    pub sched: SchedKind,
    /// Acuerdo payload topology (star fan-out or ring forwarding; the
    /// baselines have no ring mode and ignore it).
    pub dissemination: DisseminationMode,
    /// Client payload bytes per request ([`PAYLOAD`] by default).
    pub payload: usize,
    /// What to record of the trace timeline.
    pub trace: Trace,
}

/// What a chaos run keeps of its trace timeline ([`ChaosRun::trace`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trace {
    /// Nothing: counters only.
    Off,
    /// The whole timeline.
    Timeline,
    /// Its flight-recorder tail ([`crate::flight_tail`]), folded in every
    /// millisecond of virtual time: what `flight_tail` cuts from the whole
    /// timeline, held in the memory of a tail and one slice.
    Tail,
}

impl ChaosOpts {
    /// Defaults matching the original harness: basic tier, volatile,
    /// calendar queue, [`CHAOS_N`] replicas, untraced.
    pub fn new(proto: Proto, seed: u64, horizon: SimTime) -> ChaosOpts {
        ChaosOpts {
            proto,
            seed,
            horizon,
            n: CHAOS_N,
            tier: Tier::Basic,
            durability: DurabilityMode::Volatile,
            sched: SchedKind::default(),
            dissemination: DisseminationMode::Star,
            payload: PAYLOAD,
            trace: Trace::Off,
        }
    }

    /// Same defaults switched to the correlated tier in durable mode — the
    /// configuration the correlated scenarios are designed to pass under.
    pub fn correlated_durable(proto: Proto, seed: u64, horizon: SimTime) -> ChaosOpts {
        ChaosOpts {
            tier: Tier::Correlated,
            durability: DurabilityMode::Durable,
            ..ChaosOpts::new(proto, seed, horizon)
        }
    }
}

/// What one [`run_chaos`] produced.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// The judged outcome.
    pub report: ChaosReport,
    /// What [`ChaosOpts::trace`] asked to keep of the fault timeline.
    /// Tracing only toggles recording, so the report is bit-identical to
    /// the untraced run at the same seed: a failing seed's post-mortem dump
    /// (`flightrec-<seed>.json`, [`crate::flight_tail`]) is the tail of a
    /// traced replay.
    pub trace: Vec<TraceEvent>,
}

/// Virtual time between two folds of a [`Trace::Tail`] timeline.
const FOLD_EVERY: Duration = Duration::from_millis(1);

/// Run `sim` up to `to`. With `tail`, take the timeline every
/// [`FOLD_EVERY`] and fold it into the flight-recorder tail: the run then
/// holds one slice of timeline beyond the tail, not the whole of it. A
/// deadline splits no event, so the slices run exactly the events one
/// `run_until(to)` would.
fn advance<M: 'static>(sim: &mut Sim<M>, to: SimTime, tail: &mut Option<Vec<TraceEvent>>) {
    let Some(tail) = tail else {
        sim.run_until(to);
        return;
    };
    loop {
        let at = to.min(sim.now() + FOLD_EVERY);
        sim.run_until(at);
        tail.append(&mut sim.take_trace());
        *tail = crate::flight_tail(tail);
        if at >= to {
            return;
        }
    }
}

/// The one chaos body: build `R`'s cluster, arm the client's retransmit
/// timer (and, where replicas reboot through `R`'s rejoiner, its broadcast
/// fallback), replay the script, run out the quiescent tail, and judge.
///
/// A [`DurabilityAuditor`] rides along: its committed high-water mark is
/// ratcheted from the live histories right before each fault fires, and the
/// horizon observation judges whether every committed entry resurfaced.
/// Mid-run observations never judge — a replica that just rebooted is live
/// with an empty delivery log and only re-delivers as recovery proceeds, so
/// a shortfall between a restart and the tail is expected in-flight state.
fn drive<R: Replica>(opts: &ChaosOpts, cfg: &R::Config, rto: Duration, restarts: bool) -> ChaosRun {
    let schedule = match opts.tier {
        Tier::Basic => {
            Schedule::generate(opts.seed, opts.n, opts.horizon, opts.proto.restartable())
        }
        Tier::Correlated => Schedule::generate_correlated(opts.seed, opts.n, opts.horizon),
    };
    let warmup = Duration::from_micros(100);
    let (mut sim, ids, client) =
        cluster_with_client::<R>(opts.seed, cfg, WINDOW, opts.payload, warmup);
    sim.set_scheduler(opts.sched);
    sim.set_tracing(opts.trace != Trace::Off);
    let mut tail = (opts.trace == Trace::Tail).then(Vec::new);
    let c = sim.node_mut::<WindowClient<R::Wire>>(client);
    c.retransmit = Some(rto);
    if restarts {
        // A rebooted cluster's leadership may have moved: let the client
        // fall back to broadcasting.
        c.replicas = ids.clone();
        abcast::enable_restarts::<R>(&mut sim, cfg, &ids);
    }

    let mut auditor = DurabilityAuditor::new();
    advance(&mut sim, schedule.first_fault_at(), &mut tail);
    let pre = histories::<R>(&sim, &ids)
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    for tf in &schedule.faults {
        if tf.at > sim.now() {
            advance(&mut sim, tf.at, &mut tail);
        }
        let _ = auditor.observe(&histories::<R>(&sim, &ids));
        apply(&mut sim, schedule.n, tf);
    }
    advance(&mut sim, schedule.horizon, &mut tail);
    let hs = histories::<R>(&sim, &ids);
    let durability_violation = auditor.observe(&hs).err();
    if durability_violation.is_some() {
        // Book the loss in the run's own metrics so `trace-report` and the
        // JSON sidecar surface it alongside the protocol counters.
        sim.bump_counter(0, Counter::AuditCommitLost, 1);
    }

    let final_min = hs.iter().map(Vec::len).min().unwrap_or(0);
    let report = ChaosReport {
        proto: opts.proto,
        seed: opts.seed,
        tier: opts.tier,
        durability: opts.durability,
        sched: opts.sched,
        dissemination: opts.dissemination,
        payload: opts.payload,
        pre_fault_commits: pre,
        final_min,
        final_max: hs.iter().map(Vec::len).max().unwrap_or(0),
        live_nodes: hs.len(),
        safety: abcast::check_histories(&hs, None).err(),
        durability_violation,
        converged: !hs.is_empty() && final_min >= pre,
        schedule,
        metrics: sim.metrics(),
    };
    ChaosRun {
        report,
        trace: tail.unwrap_or_else(|| sim.take_trace()),
    }
}

/// Run one seeded chaos script and judge it.
///
/// The Acuerdo cluster retains its log and registers restart factories so
/// rebooted replicas rejoin through the recovery-diff path; its client
/// retransmits and falls back to broadcasting when the leader dies.
/// Baselines run their stock configuration (preset leader, no restarts) —
/// crashed replicas stay down and the run may stall safely.
///
/// The correlated tier requires a [`Proto::correlated_capable`] protocol —
/// every correlated scenario reboots replicas, and the tier exists to
/// exercise recovery-from-log (panics otherwise). Under it, Raft and Zab
/// also get restart factories and their clients the broadcast fallback, so
/// a rebooted cluster whose leadership moved can still make progress.
pub fn run_chaos(opts: &ChaosOpts) -> ChaosRun {
    let &ChaosOpts {
        proto,
        n,
        durability,
        dissemination,
        ..
    } = opts;
    let correlated = opts.tier == Tier::Correlated;
    assert!(
        !correlated || proto.correlated_capable(),
        "the correlated tier needs a restart factory and a durable-log mode; {} has neither",
        proto.name()
    );
    let ms = Duration::from_millis;
    match proto {
        Proto::Acuerdo => {
            let cfg = AcuerdoConfig {
                retain_log: durability == DurabilityMode::Volatile,
                durability,
                dissemination,
                ..AcuerdoConfig::stable(n)
            };
            drive::<AcuerdoNode>(opts, &cfg, ms(1), true)
        }
        Proto::Raft => {
            let cfg = RaftConfig { n, durability };
            drive::<RaftNode>(opts, &cfg, ms(2), correlated)
        }
        Proto::Zab => {
            let cfg = ZabConfig { n, durability };
            drive::<ZabNode>(opts, &cfg, ms(2), correlated)
        }
        Proto::Paxos => {
            let cfg = PaxosConfig { n };
            drive::<PaxosNode>(opts, &cfg, ms(2), false)
        }
        // `sized` keeps the n=5 chaos geometry bit-identical (1MiB rings
        // below 17 members) while bounding registered memory for the
        // chaos-at-scale smoke sizes. Evicted members are outside the
        // virtual-synchrony contract, so their histories are not judged.
        Proto::Derecho => {
            drive::<DerechoNode>(opts, &DerechoConfig::sized(n, Mode::Leader), ms(2), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_quorum_preserving() {
        for seed in 0..50 {
            let a = Schedule::generate(seed, 5, SimTime::from_millis(50), true);
            let b = Schedule::generate(seed, 5, SimTime::from_millis(50), true);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.faults.is_empty(), "seed {seed} generated no faults");
            // Sorted by time, quorum budget respected, window respected.
            let mut crashes = 0;
            let win_end = SimTime::from_nanos(SimTime::from_millis(50).as_nanos() * 3 / 5);
            for w in a.faults.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            for tf in &a.faults {
                assert!(tf.at <= win_end, "fault after the quiescent tail began");
                match &tf.fault {
                    Fault::Crash { .. } => crashes += 1,
                    Fault::Partition { minority } => assert!(minority.len() <= 2),
                    _ => {}
                }
            }
            assert!(crashes <= 2, "seed {seed}: {crashes} crashes with f=2");
            // Restartable schedules pair every crash with a restart.
            let restarts = a
                .faults
                .iter()
                .filter(|tf| matches!(tf.fault, Fault::Restart { .. }))
                .count();
            assert_eq!(restarts, crashes, "seed {seed}: unpaired crash");
        }
    }

    #[test]
    fn a_replay_folding_its_tail_dumps_what_the_whole_timeline_would() {
        let opts = ChaosOpts::new(Proto::Acuerdo, 1, SimTime::from_millis(10));
        let traced = |trace| {
            run_chaos(&ChaosOpts {
                trace,
                ..opts.clone()
            })
        };
        let (whole, replay) = (traced(Trace::Timeline), traced(Trace::Tail));
        assert_eq!(replay.report.to_json(), whole.report.to_json());
        assert!(
            whole.trace.len() > 4 * replay.trace.len(),
            "{} of {} kept",
            replay.trace.len(),
            whole.trace.len()
        );
        assert_eq!(replay.trace, crate::flight_tail(&whole.trace));
    }

    #[test]
    fn acuerdo_survives_a_smoke_batch() {
        for seed in 1..=5 {
            let r = run_chaos(&ChaosOpts::new(
                Proto::Acuerdo,
                seed,
                SimTime::from_millis(50),
            ))
            .report;
            assert!(r.safety.is_none(), "seed {seed}: {:?}", r.safety);
            assert!(
                r.converged,
                "seed {seed}: min {} < pre {} ({:?})",
                r.final_min, r.pre_fault_commits, r.schedule.faults
            );
        }
    }

    #[test]
    fn baselines_stay_safe_under_chaos() {
        for proto in [Proto::Raft, Proto::Derecho] {
            for seed in 1..=3 {
                let r = run_chaos(&ChaosOpts::new(proto, seed, SimTime::from_millis(50))).report;
                assert!(
                    r.safety.is_none(),
                    "{} seed {seed}: {:?}",
                    proto.name(),
                    r.safety
                );
            }
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let r = run_chaos(&ChaosOpts::new(Proto::Acuerdo, 3, SimTime::from_millis(30))).report;
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"proto\":\"acuerdo\""));
        assert!(j.contains("\"seed\":3"));
        assert!(j.contains("\"tier\":\"basic\""));
        assert!(j.contains("\"durability\":\"volatile\""));
        assert!(j.contains("\"sched\":\"calendar\""));
        assert!(j.contains("\"metrics\":{"));
    }

    #[test]
    fn correlated_schedules_are_deterministic_and_restart_everyone() {
        for seed in 0..30u64 {
            let a = Schedule::generate_correlated(seed, 5, SimTime::from_millis(50));
            let b = Schedule::generate_correlated(seed, 5, SimTime::from_millis(50));
            assert_eq!(a, b, "seed {seed} not deterministic");
            let win_end = SimTime::from_nanos(SimTime::from_millis(50).as_nanos() * 3 / 5);
            for w in a.faults.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            // Every downed replica comes back, and comes back in time for
            // the quiescent tail to judge the recovery.
            let mut down: Vec<NodeId> = Vec::new();
            for tf in &a.faults {
                assert!(tf.at <= win_end, "seed {seed}: fault after the tail began");
                match &tf.fault {
                    Fault::Crash { node } => down.push(*node),
                    Fault::PowerFailure { nodes } => down.extend(nodes),
                    Fault::Restart { node } => {
                        let i = down
                            .iter()
                            .position(|d| d == node)
                            .expect("restart w/o crash");
                        down.remove(i);
                    }
                    other => panic!("seed {seed}: unexpected correlated fault {other:?}"),
                }
            }
            assert!(down.is_empty(), "seed {seed}: {down:?} never restarted");
            // The scenario rotation actually breaks quorum in two of three
            // shapes; the third keeps it but re-crashes mid-recovery.
            match seed % 3 {
                0 => assert!(a.faults.iter().any(
                    |tf| matches!(&tf.fault, Fault::PowerFailure { nodes } if nodes.len() == 5)
                )),
                1 => {
                    let crashes = a
                        .faults
                        .iter()
                        .filter(|tf| matches!(tf.fault, Fault::Crash { .. }))
                        .count();
                    assert!((3..=4).contains(&crashes), "seed {seed}: {crashes} crashes");
                }
                _ => {
                    let crashes: Vec<_> = a
                        .faults
                        .iter()
                        .filter_map(|tf| match &tf.fault {
                            Fault::Crash { node } => Some(*node),
                            _ => None,
                        })
                        .collect();
                    assert!(crashes.len() >= 2, "seed {seed}: single crash only");
                    assert!(crashes.windows(2).all(|w| w[0] == w[1]), "several victims");
                }
            }
        }
    }

    #[test]
    fn correlated_durable_acuerdo_smoke() {
        for seed in 0..6u64 {
            let opts =
                ChaosOpts::correlated_durable(Proto::Acuerdo, seed, SimTime::from_millis(50));
            let r = run_chaos(&opts).report;
            assert!(r.safety.is_none(), "seed {seed}: {:?}", r.safety);
            assert!(
                r.durability_violation.is_none(),
                "seed {seed}: {:?}",
                r.durability_violation
            );
            assert!(
                r.converged,
                "seed {seed}: min {} < pre {} ({:?})",
                r.final_min, r.pre_fault_commits, r.schedule.faults
            );
        }
    }

    #[test]
    fn volatile_power_failure_loses_commits_durable_does_not() {
        // Seed 3 rotates into the whole-cluster power-failure scenario
        // (3 % 3 == 0). Volatile, every replica reboots empty: the committed
        // prefix sampled before the outage cannot resurface and the
        // durability auditor must fire. Durable, the same schedule recovers
        // every fsync'd entry and the auditor must stay silent.
        let volatile = ChaosOpts {
            tier: Tier::Correlated,
            ..ChaosOpts::new(Proto::Acuerdo, 3, SimTime::from_millis(50))
        };
        let rv = run_chaos(&volatile).report;
        assert!(rv.pre_fault_commits > 0, "nothing committed pre-fault");
        assert!(
            matches!(
                rv.durability_violation,
                Some(Violation::CommittedEntryLost { .. })
            ),
            "volatile power failure kept the committed prefix: {:?}",
            rv.durability_violation
        );
        assert!(!rv.fatal(), "volatile loss is recorded, not judged");
        assert!(rv.metrics.total(Counter::AuditCommitLost) > 0);
        assert!(crate::audit_fired(&rv.metrics), "audit_fired missed it");

        let durable = ChaosOpts {
            durability: DurabilityMode::Durable,
            ..volatile
        };
        let rd = run_chaos(&durable).report;
        assert!(rd.safety.is_none(), "{:?}", rd.safety);
        assert!(
            rd.durability_violation.is_none(),
            "durable mode lost a committed entry: {:?}",
            rd.durability_violation
        );
    }

    #[test]
    fn verdict_names_a_fatal_runs_cause() {
        let ok = ChaosReport {
            proto: Proto::Acuerdo,
            seed: 1,
            tier: Tier::Basic,
            durability: DurabilityMode::Volatile,
            sched: SchedKind::default(),
            dissemination: DisseminationMode::default(),
            payload: PAYLOAD,
            schedule: Schedule::generate(1, 3, SimTime::from_millis(20), true),
            pre_fault_commits: 10,
            final_min: 10,
            final_max: 10,
            live_nodes: 3,
            safety: None,
            durability_violation: None,
            converged: true,
            metrics: MetricsSnapshot::default(),
        };
        let order = Violation::OrderMismatch {
            node_a: 0,
            node_b: 1,
            position: 4,
        };
        let lost = Violation::CommittedEntryLost {
            position: 4,
            committed_len: 10,
        };
        let stalled = ChaosReport {
            converged: false,
            ..ok.clone()
        };
        let cases = [
            (ok.clone(), "ok"),
            (
                ChaosReport {
                    safety: Some(order.clone()),
                    durability_violation: Some(lost.clone()),
                    ..ok.clone()
                },
                "FAIL OrderMismatch",
            ),
            (
                ChaosReport {
                    durability: DurabilityMode::Durable,
                    durability_violation: Some(lost.clone()),
                    ..ok.clone()
                },
                "FAIL CommittedEntryLost",
            ),
            (
                ChaosReport {
                    durability_violation: Some(lost),
                    ..ok.clone()
                },
                "lost",
            ),
            (stalled.clone(), "FAIL stall"),
            (
                ChaosReport {
                    proto: Proto::Raft,
                    ..stalled
                },
                "stall",
            ),
        ];
        for (r, want) in cases {
            assert_eq!(
                r.verdict(),
                want,
                "{:?}/{:?}",
                r.safety,
                r.durability_violation
            );
        }
    }

    #[test]
    fn correlated_repro_echoes_every_knob() {
        let opts = ChaosOpts {
            sched: SchedKind::Heap,
            ..ChaosOpts::correlated_durable(Proto::Raft, 7, SimTime::from_millis(600))
        };
        let r = run_chaos(&opts).report;
        let repro = r.repro();
        assert!(repro.contains("--proto raft"), "{repro}");
        assert!(repro.contains("--seed 7"), "{repro}");
        assert!(repro.contains("--sched heap"), "{repro}");
        assert!(repro.contains("--tier correlated"), "{repro}");
        assert!(repro.contains("--durability durable"), "{repro}");
        // And the basic volatile default stays terse apart from --sched.
        let basic = run_chaos(&ChaosOpts::new(Proto::Acuerdo, 1, SimTime::from_millis(30)))
            .report
            .repro();
        assert!(basic.contains("--sched calendar"), "{basic}");
        assert!(!basic.contains("--tier"), "{basic}");
        assert!(!basic.contains("--durability"), "{basic}");
        assert!(!basic.contains("--payload"), "{basic}");
        let large = ChaosReport {
            payload: 8192,
            ..run_chaos(&ChaosOpts::new(Proto::Acuerdo, 1, SimTime::from_millis(30))).report
        };
        assert!(
            large.repro().ends_with(" --payload 8192"),
            "{}",
            large.repro()
        );
        assert!(large.to_json().contains("\"payload_bytes\":8192,"));
    }
}
