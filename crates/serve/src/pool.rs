//! The worker pool: `N` executors over one shared `PreparedGraph`, fed
//! through a bounded FIFO submission queue, with typed per-query failures
//! and policy-driven admission control.

use std::sync::Arc;

use gcgt_core::Algorithm;
use gcgt_session::{Executor, PreparedGraph};
use gcgt_simt::RunStats;

use crate::error::QueryError;
use crate::queue::BoundedQueue;
use crate::stats::{ServeStats, WorkerReport};
use crate::ServeError;

/// Admission-control and deadline policy of a [`ServePool`].
///
/// The default policy is a no-op — unlimited admission, no deadline — and a
/// pool under the default policy is **bitwise** identical to one with no
/// policy at all (same outputs, same statistics, same trace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServePolicy {
    /// Queries allowed to wait beyond the ones the workers can execute
    /// immediately: the pool admits at most `workers + max_pending` queries
    /// per batch and sheds the rest with
    /// [`QueryError::Shed`]`(`[`ServeError::Overloaded`]`)`. Admission is
    /// decided in submission order over *valid* queries (a query rejected
    /// at validation never consumes an admission slot). `None` admits
    /// everything.
    pub max_pending: Option<usize>,
    /// Per-query latency deadline in simulated milliseconds, checked
    /// against the deterministic FIFO timeline (queue wait + service). A
    /// query completing strictly later is discarded with
    /// [`QueryError::Shed`]`(`[`ServeError::DeadlineExceeded`]`)` — the
    /// work was already spent, so its cost stays in the timeline and the
    /// aggregate sums; only the output is dropped. `None` means no
    /// deadline.
    pub deadline_ms: Option<f64>,
}

/// A pool of worker devices serving queries over one shared, immutable
/// [`PreparedGraph`].
///
/// Each worker owns an [`Executor`]: its own simulated device (structure
/// made resident at spawn) and, for out-of-core graphs, a cold private
/// partition cache per query over the shared partition map — caches are
/// never shared across queries or workers. Queries are submitted through a
/// bounded FIFO queue — the submitting thread blocks when the queue is
/// full, so a burst cannot buffer unboundedly — and every query's output
/// and [`RunStats`] are bitwise identical to a serial
/// [`PreparedGraph::run`], whatever the worker count (see
/// [`crate::stats::ServeStats`] for why the aggregates are deterministic
/// too).
///
/// Failures are per-query and typed: an invalid source, a shed admission,
/// an exhausted fault budget or a panicking query resolves to a
/// [`QueryError`] in its own submission slot while the rest of the batch
/// completes normally — one bad query can never cost the batch.
#[derive(Clone, Debug)]
pub struct ServePool {
    prepared: Arc<PreparedGraph>,
    workers: usize,
    queue_capacity: usize,
    policy: ServePolicy,
}

/// Everything one [`ServePool::serve`] call produced.
#[derive(Clone, Debug)]
pub struct ServeReport<T> {
    /// Per-query outcomes, in submission order: `Ok` outputs are bitwise
    /// identical to serial execution, `Err` explains exactly why that
    /// query produced none.
    pub outputs: Vec<Result<T, QueryError>>,
    /// Per-query simulated statistics, in submission order — bitwise
    /// identical to serial execution (scheduling never changes simulated
    /// work). Slots whose query produced no output hold
    /// [`RunStats::default`].
    pub per_query: Vec<RunStats>,
    /// Which worker really executed each query (`0` for queries that never
    /// dispatched). Scheduling-dependent (like the per-worker
    /// `queries`/`busy_ms` tallies it induces), kept for tracing; no
    /// aggregate statistic is derived from it.
    pub assigned: Vec<usize>,
    /// Per-worker residency and utilization after the drain.
    pub workers: Vec<WorkerReport>,
    /// Deterministic aggregate statistics.
    pub stats: ServeStats,
}

impl ServePool {
    /// A pool of `workers` devices over `prepared`, with a submission
    /// queue bounded at `2 × workers`.
    pub fn new(prepared: Arc<PreparedGraph>, workers: usize) -> Result<Self, ServeError> {
        Self::with_queue_capacity(prepared, workers, 2 * workers)
    }

    /// A pool with an explicit submission-queue bound.
    pub fn with_queue_capacity(
        prepared: Arc<PreparedGraph>,
        workers: usize,
        queue_capacity: usize,
    ) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::ZeroWorkers);
        }
        if queue_capacity == 0 {
            return Err(ServeError::ZeroQueueCapacity);
        }
        Ok(Self {
            prepared,
            workers,
            queue_capacity,
            policy: ServePolicy::default(),
        })
    }

    /// Replaces the pool's [`ServePolicy`] (builder-style).
    pub fn with_policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active admission/deadline policy.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submission-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The shared structure the workers execute over.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// Serves `queries` to completion: validates and admits in submission
    /// order, spawns the workers, feeds the bounded queue, joins, and
    /// reassembles per-query outcomes in submission order. Blocks until
    /// every admitted query is answered.
    ///
    /// The pipeline per query is **validate → admit → execute → deadline**:
    ///
    /// 1. a query whose source is outside the graph resolves to
    ///    [`QueryError::SourceOutOfRange`] without consuming an admission
    ///    slot or a worker;
    /// 2. once `workers + max_pending` valid queries are admitted, the rest
    ///    shed with [`ServeError::Overloaded`];
    /// 3. execution failures — exhausted fault budgets, injected faults,
    ///    corrupt payloads, unexpected panics — are caught on the worker
    ///    and typed via [`QueryError`]; the worker keeps draining (were
    ///    every worker to die, the submitting thread would block forever on
    ///    a full queue), so one bad query never costs the batch;
    /// 4. queries completing past the policy deadline on the deterministic
    ///    FIFO timeline are discarded with [`ServeError::DeadlineExceeded`]
    ///    (the spent cost stays in the aggregates).
    ///
    /// An empty batch is a no-op that still reports the per-worker
    /// baselines (and all-zero aggregate statistics — the guards in
    /// [`ServeStats`] keep every derived ratio finite).
    pub fn serve<A: Algorithm>(&self, queries: &[A]) -> ServeReport<A::Output> {
        let prepared: &PreparedGraph = &self.prepared;
        let total = queries.len();

        // Validate, then admit, in submission order. Slots that fail here
        // are typed immediately and never reach a worker.
        let mut outcomes: Vec<Option<Result<A::Output, QueryError>>> =
            (0..total).map(|_| None).collect();
        let mut executable: Vec<(usize, A)> = Vec::with_capacity(total);
        let nodes = prepared.num_nodes();
        let admit_limit = self.policy.max_pending.map(|p| self.workers + p);
        for (index, query) in queries.iter().enumerate() {
            if let Some(source) = query.source() {
                if source as usize >= nodes {
                    outcomes[index] = Some(Err(QueryError::SourceOutOfRange { source, nodes }));
                    continue;
                }
            }
            if admit_limit.is_some_and(|limit| executable.len() >= limit) {
                outcomes[index] = Some(Err(QueryError::Shed(ServeError::Overloaded)));
                continue;
            }
            executable.push((index, query.clone()));
        }

        let mut per_query = vec![RunStats::default(); total];
        let mut assigned = vec![0usize; total];
        let mut workers: Vec<WorkerReport>;
        if executable.is_empty() {
            // No workers are spawned when nothing is executable: their
            // reports are synthesized from the prepared graph (a fresh
            // worker sits at the structure baseline having served nothing).
            workers = (0..self.workers)
                .map(|worker| WorkerReport {
                    worker,
                    queries: 0,
                    busy_ms: 0.0,
                    allocated: prepared.structure_bytes(),
                    baseline: prepared.structure_bytes(),
                    upload_ms: prepared.upload_ms(),
                })
                .collect();
        } else {
            type Panic = Box<dyn std::any::Any + Send + 'static>;
            type WorkerYield<T> = (
                Vec<(usize, gcgt_session::Run<T>)>,
                Vec<(usize, Panic)>,
                WorkerReport,
            );
            let queue: BoundedQueue<(usize, A)> = BoundedQueue::new(self.queue_capacity);
            let mut finished: Vec<WorkerYield<A::Output>> = Vec::with_capacity(self.workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|worker| {
                        let queue = &queue;
                        scope.spawn(move || {
                            let mut executor = Executor::new(prepared);
                            let mut local = Vec::new();
                            let mut panics: Vec<(usize, Panic)> = Vec::new();
                            while let Some((index, query)) = queue.pop() {
                                // Trace events carry the query's submission
                                // index as track, never the racing worker id —
                                // exported execution traces are identical at
                                // any worker count.
                                executor.set_trace_track(index as u64);
                                // Catch per-query panics so this consumer
                                // keeps draining: were every worker to die,
                                // the submitting thread would block forever
                                // on a full queue. The payload becomes the
                                // query's typed error below.
                                let attempt =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        executor.run(query)
                                    }));
                                match attempt {
                                    Ok(run) => local.push((index, run)),
                                    // The executor is still valid: a query
                                    // runs on a local `query_view` that
                                    // unwinding simply drops, and worker
                                    // state commits only on success — no
                                    // rebuild needed.
                                    Err(payload) => panics.push((index, payload)),
                                }
                            }
                            let report = snapshot(worker, &executor);
                            (local, panics, report)
                        })
                    })
                    .collect();
                for item in executable {
                    queue.push(item);
                }
                queue.close();
                for handle in handles {
                    finished.push(handle.join().expect("serve worker thread died"));
                }
            });

            workers = Vec::with_capacity(self.workers);
            for (local, panics, report) in finished {
                for (index, run) in local {
                    assigned[index] = report.worker;
                    per_query[index] = run.stats;
                    outcomes[index] = Some(Ok(run.output));
                }
                for (index, payload) in panics {
                    assigned[index] = report.worker;
                    outcomes[index] = Some(Err(QueryError::from_panic(payload)));
                }
                workers.push(report);
            }
            workers.sort_by_key(|w| w.worker);
        }

        let mut outputs: Vec<Result<A::Output, QueryError>> = outcomes
            .into_iter()
            .map(|o| o.expect("every query resolves to exactly one outcome"))
            .collect();

        // Aggregate over the surviving queries only: shed/failed slots are
        // invisible to the FIFO timeline and the cost sums. With every
        // query Ok this is bitwise `ServeStats::compute`.
        let counted: Vec<bool> = outputs.iter().map(Result::is_ok).collect();
        let mut stats =
            ServeStats::compute_masked(&per_query, &counted, self.workers, prepared.upload_ms());
        // Deadline pass: the latency is only known once the timeline is
        // replayed. Late queries lose their output, not their cost.
        if let Some(deadline) = self.policy.deadline_ms {
            for i in 0..total {
                if counted[i] && stats.latency_ms[i] > deadline {
                    outputs[i] = Err(QueryError::Shed(ServeError::DeadlineExceeded));
                    stats.deadline_missed += 1;
                    stats.completed -= 1;
                }
            }
        }
        for outcome in &outputs {
            match outcome {
                Ok(_) | Err(QueryError::Shed(ServeError::DeadlineExceeded)) => {}
                Err(QueryError::Shed(_)) => stats.shed += 1,
                Err(_) => stats.failed += 1,
            }
        }

        // Replay the deterministic FIFO timeline to the observer: one
        // submit → dispatch → complete record per surviving query, on the
        // *timeline* worker (not whichever host thread raced to the queue),
        // so serve spans are as reproducible as everything else. Shed and
        // deadline-missed queries leave a chaos record instead; execution
        // failures already emitted their fault events at the injection
        // site.
        if let Some(obs) = prepared.observer() {
            for (i, outcome) in outputs.iter().enumerate() {
                match outcome {
                    Ok(_) => obs.serve(&gcgt_simt::obs::ServeEvent {
                        query: i as u64,
                        worker: stats.timeline_worker[i] as u64,
                        submit_ms: 0.0,
                        dispatch_ms: stats.queue_wait_ms[i],
                        complete_ms: stats.latency_ms[i],
                    }),
                    Err(QueryError::Shed(ServeError::Overloaded)) => {
                        obs.fault(&gcgt_simt::obs::FaultEvent {
                            track: i as u64,
                            ts_ms: 0.0,
                            domain: "serve",
                            kind: "shed",
                            attempt: 0,
                            backoff_ms: 0.0,
                        })
                    }
                    Err(QueryError::Shed(ServeError::DeadlineExceeded)) => {
                        obs.fault(&gcgt_simt::obs::FaultEvent {
                            track: i as u64,
                            ts_ms: stats.latency_ms[i],
                            domain: "serve",
                            kind: "deadline",
                            attempt: 0,
                            backoff_ms: 0.0,
                        })
                    }
                    Err(_) => {}
                }
            }
        }
        ServeReport {
            outputs,
            per_query,
            assigned,
            workers,
            stats,
        }
    }
}

fn snapshot(worker: usize, executor: &Executor<'_>) -> WorkerReport {
    WorkerReport {
        worker,
        queries: executor.queries_served(),
        busy_ms: executor.busy_ms(),
        allocated: executor.allocated(),
        baseline: executor.baseline(),
        upload_ms: executor.upload_ms(),
    }
}
