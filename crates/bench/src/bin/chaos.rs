//! Seeded chaos runs: generate a fault script per seed, execute it, check
//! safety and post-quiescence convergence, and print failing seeds as repro
//! commands.
//!
//! ```text
//! cargo run --release -p bench --bin chaos -- --proto acuerdo --seeds 200
//! cargo run --release -p bench --bin chaos -- --proto raft --seeds 25 --max-time-ms 50
//! cargo run --release -p bench --bin chaos -- --proto acuerdo --seed 17     # one repro
//! cargo run --release -p bench --bin chaos -- --proto all --seeds 10 --metrics-out chaos.json
//! cargo run --release -p bench --bin chaos -- --dissemination ring --nodes 16 --payload 8192 --seeds 12
//! ```
//!
//! A fatal seed also leaves `flightrec-<seed>.json`: the last events of
//! every node, cut from the run's own trace (`--trace-out`) or from a
//! traced replay of the seed.
//!
//! Exit status: 0 when every run passed, 1 on any safety violation (all
//! protocols) or convergence failure (Acuerdo only — baselines without a
//! rejoin path may safely stall and are merely reported), 2 on a usage
//! error or a traced replay that judged differently from its run.

use acuerdo::DisseminationMode;
use bench::chaos::{
    run_chaos, ChaosOpts, ChaosReport, ChaosRun, Proto, Tier, Trace, CHAOS_N, PAYLOAD,
};
use bench::cli::{dissemination, parsed, scheduler, value};
use bench::{flight_tail, write_flightrec, write_metrics_file};
use simnet::{DurabilityMode, SchedKind, SimTime, TraceEvent};
use std::process::exit;

struct Args {
    protos: Vec<Proto>,
    seed: Option<u64>,
    seeds: u64,
    nodes: usize,
    max_time_ms: u64,
    tier: Tier,
    durability: DurabilityMode,
    sched: SchedKind,
    dissemination: DisseminationMode,
    payload: usize,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn usage() {
    eprintln!(
        "usage: chaos [--proto acuerdo|raft|zab|paxos|derecho|all] [--seed N]\n\
         \x20            [--seeds N] [--nodes N] [--max-time-ms MS]\n\
         \x20            [--tier basic|correlated] [--durability volatile|durable]\n\
         \x20            [--dissemination star|ring]   (acuerdo payload topology)\n\
         \x20            [--payload BYTES]   (client payload per request, default 32)\n\
         \x20            [--sched heap|calendar] [--metrics-out FILE]\n\
         \x20            [--trace-out FILE]   (single --proto + --seed only)\n\
         \n\
         The correlated tier (power failure / majority crash / crash-during-\n\
         recovery) drives acuerdo, raft and zab only, and is meant to run\n\
         with --durability durable; volatile correlated runs record the\n\
         committed entries the reboots lose instead of failing on them."
    );
}

fn parse_args() -> Args {
    let mut out = Args {
        protos: vec![Proto::Acuerdo],
        seed: None,
        seeds: 20,
        nodes: CHAOS_N,
        max_time_ms: 50,
        tier: Tier::Basic,
        durability: DurabilityMode::Volatile,
        sched: SchedKind::default(),
        dissemination: DisseminationMode::Star,
        payload: PAYLOAD,
        metrics_out: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--proto" => {
                let v = value(&mut args, "--proto", "protocol name");
                out.protos = if v == "all" {
                    Proto::ALL.to_vec()
                } else {
                    match Proto::from_name(&v) {
                        Some(p) => vec![p],
                        None => {
                            eprintln!("unknown protocol {v}");
                            exit(2);
                        }
                    }
                };
            }
            "--seed" => out.seed = Some(parsed(&mut args, "--seed", "number")),
            "--seeds" => {
                out.seeds = parsed(&mut args, "--seeds", "number");
                if out.seeds == 0 {
                    // No run, no verdict: "0 failed" would read as a pass.
                    eprintln!("--seeds needs a count of at least 1");
                    exit(2);
                }
            }
            "--nodes" => {
                out.nodes = parsed(&mut args, "--nodes", "replica count");
                if out.nodes < 3 {
                    eprintln!("--nodes needs a cluster of at least 3");
                    exit(2);
                }
            }
            "--max-time-ms" => {
                out.max_time_ms = parsed(&mut args, "--max-time-ms", "number");
                if out.max_time_ms == 0 {
                    // The fault window is a share of the horizon: empty at 0.
                    eprintln!("--max-time-ms needs a horizon of at least 1 ms");
                    exit(2);
                }
            }
            "--tier" => {
                let v = value(&mut args, "--tier", "tier name");
                out.tier = Tier::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown tier {v}");
                    exit(2);
                });
            }
            "--durability" => {
                let v = value(&mut args, "--durability", "mode");
                out.durability = DurabilityMode::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown durability mode {v}");
                    exit(2);
                });
            }
            "--dissemination" => {
                out.dissemination = dissemination(&mut args);
            }
            "--payload" => out.payload = parsed(&mut args, "--payload", "byte count"),
            "--sched" => out.sched = scheduler(&mut args),
            "--metrics-out" => out.metrics_out = Some(value(&mut args, "--metrics-out", "path")),
            "--trace-out" => out.trace_out = Some(value(&mut args, "--trace-out", "path")),
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                exit(2);
            }
        }
    }
    out
}

/// A fatal seed's flight-recorder dump: cut from the run's own timeline
/// when it was traced, else from a traced replay that keeps only the tail.
/// Tracing never moves a run, so the replay must judge exactly as the run
/// did; exits 2 if not.
fn flight(opts: &ChaosOpts, r: &ChaosReport, events: &[TraceEvent]) -> Vec<TraceEvent> {
    if opts.trace == Trace::Timeline {
        return flight_tail(events);
    }
    let replay = run_chaos(&ChaosOpts {
        trace: Trace::Tail,
        ..opts.clone()
    });
    if replay.report.to_json() != r.to_json() {
        eprintln!(
            "  traced replay of seed {} diverged from the run it repeats",
            opts.seed
        );
        exit(2);
    }
    replay.trace
}

fn main() {
    let mut args = parse_args();
    let horizon = SimTime::from_millis(args.max_time_ms);
    let seed_list: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (1..=args.seeds).collect(),
    };
    if args.trace_out.is_some() && (args.protos.len() != 1 || args.seed.is_none()) {
        // A Chrome trace document holds one run; require an exact repro.
        eprintln!("--trace-out needs a single --proto and an explicit --seed");
        exit(2);
    }
    if args.tier == Tier::Correlated {
        // Drop the protocols the correlated tier cannot drive (no restart
        // factory, no durable log) rather than panicking mid-matrix.
        let before = args.protos.len();
        args.protos.retain(|p| p.correlated_capable());
        if args.protos.len() < before {
            eprintln!("note: correlated tier skips paxos/derecho (no restart/durable-log path)");
        }
        if args.protos.is_empty() {
            eprintln!("no correlated-capable protocol selected");
            exit(2);
        }
    }

    let mut records = Vec::new();
    let mut fatal = 0usize;
    let mut stalled = 0usize;
    for &proto in &args.protos {
        for &seed in &seed_list {
            let opts = ChaosOpts {
                n: args.nodes,
                tier: args.tier,
                durability: args.durability,
                sched: args.sched,
                dissemination: args.dissemination,
                payload: args.payload,
                trace: if args.trace_out.is_some() {
                    Trace::Timeline
                } else {
                    Trace::Off
                },
                ..ChaosOpts::new(proto, seed, horizon)
            };
            let ChaosRun {
                report: r,
                trace: events,
            } = run_chaos(&opts);
            if let Some(path) = &args.trace_out {
                bench::cli::write(path, bench::chrome::write(&events, &[]));
                println!("wrote {path} ({} events)", events.len());
            }
            println!(
                "chaos {:8} seed {:4}: {:2} faults  pre={:<5} final=[{}..{}] live={}  {}",
                proto.name(),
                seed,
                r.schedule.faults.len(),
                r.pre_fault_commits,
                r.final_min,
                r.final_max,
                r.live_nodes,
                r.verdict()
            );
            if r.fatal() {
                fatal += 1;
                if let Some(v) = &r.safety {
                    eprintln!("  safety violation: {v:?}");
                }
                if let Some(v) = &r.durability_violation {
                    eprintln!("  durability violation: {v:?}");
                }
                eprintln!("  repro: {}", r.repro());
                let flight = flight(&opts, &r, &events);
                match write_flightrec(".", seed, &flight) {
                    Ok(p) => eprintln!("  flight recorder: {p} ({} events)", flight.len()),
                    Err(e) => eprintln!("  flight recorder dump failed: {e}"),
                }
            } else if !r.converged {
                stalled += 1;
            }
            records.push(r.to_json());
        }
    }

    if let Some(path) = &args.metrics_out {
        let base = seed_list.first().copied().unwrap_or(0);
        write_metrics_file(path, "chaos", base, &records);
        println!("wrote {path}");
    }

    let total = records.len();
    println!("{total} runs: {fatal} failed, {stalled} safely stalled");
    if fatal > 0 {
        exit(1);
    }
}
