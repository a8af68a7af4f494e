//! A real-thread runner for the same sans-IO [`Process`] state machines the
//! discrete-event engine drives.
//!
//! Each node gets its own OS thread, a crossbeam channel as its "NIC", and a
//! local timer wheel. Time is the wall clock; `use_cpu` charges are ignored
//! (real CPU is real); [`DeliveryClass`](crate::DeliveryClass) is ignored
//! (channels deliver when they deliver). This runner exists to demonstrate
//! that the protocol implementations are genuinely sans-IO — the exact same
//! `AcuerdoNode` that produces the paper's figures deterministically under
//! `Sim` also runs live on a multicore box — and as scaffolding for anyone
//! porting the protocols onto a real RDMA transport.
//!
//! Non-goals: determinism (use [`Sim`](crate::Sim)) and performance modeling
//! (channel latency is not RoCE latency).

use crate::ctx::Ctx;
use crate::engine::Process;
use crate::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A node not yet started: its inbox plus the process to run.
type PendingNode<M> = (Receiver<(NodeId, M)>, Box<dyn Process<M> + Send>);

/// A handle to a cluster of protocol nodes running on real threads.
pub struct ThreadedRunner<M: Send + 'static> {
    senders: Vec<Sender<(NodeId, M)>>,
    pending: Vec<Option<PendingNode<M>>>,
    handles: Vec<JoinHandle<Box<dyn Process<M> + Send>>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    seed: u64,
}

#[derive(PartialEq, Eq)]
struct TimerEntry {
    at: Instant,
    token: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // min-heap
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M: Send + 'static> Default for ThreadedRunner<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> ThreadedRunner<M> {
    /// Create an empty runner.
    pub fn new() -> Self {
        ThreadedRunner {
            senders: Vec::new(),
            pending: Vec::new(),
            handles: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            epoch: Instant::now(),
            seed: 0x5eed,
        }
    }

    /// Register a node; ids are assigned in registration order (matching the
    /// `Sim` convention that replicas occupy `0..n`). Threads start on
    /// [`ThreadedRunner::start`].
    pub fn add_node(&mut self, proc: Box<dyn Process<M> + Send>) -> NodeId {
        let id = self.senders.len();
        let (tx, rx) = unbounded();
        self.senders.push(tx);
        self.pending.push(Some((rx, proc)));
        id
    }

    /// Inject a message into the cluster from outside (e.g. a driver thread
    /// acting as the client's network).
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) {
        let _ = self.senders[to].send((from, msg));
    }

    /// Spawn one thread per registered node and run their event loops.
    pub fn start(&mut self) {
        let n = self.senders.len();
        for id in 0..n {
            let (rx, mut proc) = self.pending[id].take().expect("already started");
            let senders = self.senders.clone();
            let stop = self.stop.clone();
            let epoch = self.epoch;
            let seed = self.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let handle = std::thread::Builder::new()
                .name(format!("node-{id}"))
                .spawn(move || {
                    run_node(id, &mut proc, rx, senders, stop, epoch, seed);
                    proc
                })
                .expect("spawn node thread");
            self.handles.push(handle);
        }
    }

    /// Stop all threads and return the node state machines for inspection
    /// (downcast with [`ThreadedRunner::node_as`]).
    pub fn stop(mut self) -> Vec<Box<dyn Process<M> + Send>> {
        self.stop.store(true, Ordering::SeqCst);
        self.handles
            .drain(..)
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }

    /// Downcast a stopped node to its concrete type.
    pub fn node_as<T: 'static>(nodes: &[Box<dyn Process<M> + Send>], id: NodeId) -> Option<&T> {
        let any: &dyn Any = nodes[id].as_ref();
        any.downcast_ref::<T>()
    }
}

fn run_node<M: Send + 'static>(
    id: NodeId,
    proc: &mut Box<dyn Process<M> + Send>,
    rx: Receiver<(NodeId, M)>,
    senders: Vec<Sender<(NodeId, M)>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Each thread owns a probe with tracing off: protocol count()/trace()
    // calls stay valid on real threads and fill its counters, which nothing
    // reads (non-goal: see above).
    let mut probe = crate::trace::Probe::new();
    // Likewise a thread-local scratch log: durable-mode protocols can append
    // and fsync, but there is no crash model on real threads.
    let mut disk = crate::disk::DurableLog::default();
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let now_sim = |epoch: Instant| {
        crate::SimTime::from_nanos(epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
    };

    // on_start
    {
        let mut ctx = Ctx::new(
            now_sim(epoch),
            id,
            1.0,
            &mut rng,
            &mut probe,
            &mut disk,
            Vec::new(),
        );
        proc.on_start(&mut ctx);
        apply_effects(id, ctx, &senders, &mut timers, epoch);
    }

    while !stop.load(Ordering::Relaxed) {
        // Fire due timers.
        let now = Instant::now();
        while timers.peek().is_some_and(|t| t.at <= now) {
            let t = timers.pop().expect("peeked");
            let mut ctx = Ctx::new(
                now_sim(epoch),
                id,
                1.0,
                &mut rng,
                &mut probe,
                &mut disk,
                Vec::new(),
            );
            proc.on_timer(&mut ctx, t.token);
            apply_effects(id, ctx, &senders, &mut timers, epoch);
        }
        // Deliver messages until the next timer is due.
        let wait = timers
            .peek()
            .map(|t| t.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(1))
            .min(Duration::from_millis(1));
        // On timeout the loop simply re-checks timers and the stop flag.
        if let Ok((from, msg)) = rx.recv_timeout(wait) {
            let mut ctx = Ctx::new(
                now_sim(epoch),
                id,
                1.0,
                &mut rng,
                &mut probe,
                &mut disk,
                Vec::new(),
            );
            proc.on_message(&mut ctx, from, msg);
            apply_effects(id, ctx, &senders, &mut timers, epoch);
            // Drain whatever else is queued (receiver-side batching).
            while let Ok((from, msg)) = rx.try_recv() {
                let mut ctx = Ctx::new(
                    now_sim(epoch),
                    id,
                    1.0,
                    &mut rng,
                    &mut probe,
                    &mut disk,
                    Vec::new(),
                );
                proc.on_message(&mut ctx, from, msg);
                apply_effects(id, ctx, &senders, &mut timers, epoch);
            }
        }
    }
}

fn apply_effects<M: Send>(
    id: NodeId,
    ctx: Ctx<'_, M>,
    senders: &[Sender<(NodeId, M)>],
    timers: &mut BinaryHeap<TimerEntry>,
    _epoch: Instant,
) {
    for eff in ctx.effects {
        match eff {
            crate::ctx::Effect::Send { dst, msg, .. } => {
                if dst < senders.len() {
                    let _ = senders[dst].send((id, msg));
                }
            }
            crate::ctx::Effect::Timer { delay, token, .. } => {
                timers.push(TimerEntry {
                    at: Instant::now() + delay,
                    token,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, DeliveryClass, Process};
    use std::time::Duration;

    struct Counter {
        peer: NodeId,
        sent: u64,
        received: u64,
        lead: bool,
    }

    impl Process<u64> for Counter {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.lead {
                ctx.send(self.peer, DeliveryClass::Cpu, 16, 0);
                self.sent += 1;
            }
            ctx.set_timer(Duration::from_millis(1), 7);
        }
        fn on_message(&mut self, ctx: &mut Ctx<u64>, from: NodeId, msg: u64) {
            self.received += 1;
            if msg < 10_000 {
                ctx.send(from, DeliveryClass::Cpu, 16, msg + 1);
                self.sent += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<u64>, token: u64) {
            assert_eq!(token, 7);
            ctx.set_timer(Duration::from_millis(1), 7);
        }
    }

    #[test]
    fn ping_pong_across_real_threads() {
        let mut runner: ThreadedRunner<u64> = ThreadedRunner::new();
        let a = runner.add_node(Box::new(Counter {
            peer: 1,
            sent: 0,
            received: 0,
            lead: true,
        }));
        let b = runner.add_node(Box::new(Counter {
            peer: 0,
            sent: 0,
            received: 0,
            lead: false,
        }));
        runner.start();
        std::thread::sleep(Duration::from_millis(150));
        let nodes = runner.stop();
        let ca = ThreadedRunner::node_as::<Counter>(&nodes, a).unwrap();
        let cb = ThreadedRunner::node_as::<Counter>(&nodes, b).unwrap();
        assert!(ca.received > 100, "only {} round trips", ca.received);
        assert!(cb.received > 100);
        // Conservation: everything received was sent by the other side.
        assert!(ca.received <= cb.sent);
        assert!(cb.received <= ca.sent);
    }

    #[test]
    fn timers_fire_repeatedly() {
        struct Ticker {
            ticks: u64,
        }
        impl Process<()> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(Duration::from_millis(2), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<()>, _: u64) {
                self.ticks += 1;
                ctx.set_timer(Duration::from_millis(2), 0);
            }
        }
        let mut runner: ThreadedRunner<()> = ThreadedRunner::new();
        let t = runner.add_node(Box::new(Ticker { ticks: 0 }));
        runner.start();
        std::thread::sleep(Duration::from_millis(100));
        let nodes = runner.stop();
        let ticks = ThreadedRunner::node_as::<Ticker>(&nodes, t).unwrap().ticks;
        assert!((20..=80).contains(&ticks), "ticks {ticks}");
    }

    #[test]
    fn external_injection_reaches_nodes() {
        struct Sink {
            got: Vec<u64>,
        }
        impl Process<u64> for Sink {
            fn on_message(&mut self, _: &mut Ctx<u64>, _: NodeId, msg: u64) {
                self.got.push(msg);
            }
        }
        let mut runner: ThreadedRunner<u64> = ThreadedRunner::new();
        let s = runner.add_node(Box::new(Sink { got: vec![] }));
        runner.start();
        for i in 0..50 {
            runner.send(99, s, i);
        }
        std::thread::sleep(Duration::from_millis(50));
        let nodes = runner.stop();
        let sink = ThreadedRunner::node_as::<Sink>(&nodes, s).unwrap();
        assert_eq!(sink.got.len(), 50);
        // Per-channel FIFO.
        assert!(sink.got.windows(2).all(|w| w[0] < w[1]));
    }
}
