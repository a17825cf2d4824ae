//! Aggregate serving statistics, computed **deterministically** from
//! per-query costs.
//!
//! Real worker threads race for queue items, but no reported number depends
//! on that race: each query's [`RunStats`] are bitwise those of a serial
//! run (see `gcgt_session::Executor`), and the latency/throughput figures
//! come from a simulated FIFO dispatch timeline replayed host-side — all
//! queries arrive at t = 0 in submission order and each goes to the
//! earliest-free worker (ties to the lowest id). Same queries, same worker
//! count → same statistics, every run, regardless of host scheduling. This
//! mirrors how the rest of the workspace treats host threads: an execution
//! substrate, never an input to the model.

use gcgt_simt::RunStats;

/// Aggregate statistics of one [`crate::ServePool::serve`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeStats {
    /// Queries submitted (whatever their outcome).
    pub queries: u64,
    /// Queries that produced an output: they occupy timeline slots and are
    /// the denominator of every mean and percentile. Without a policy or
    /// fault plan this always equals [`ServeStats::queries`].
    pub completed: u64,
    /// Queries refused at admission ([`crate::ServeError::Overloaded`]).
    /// Shed queries never run: they cost nothing on the timeline.
    pub shed: u64,
    /// Queries whose FIFO-timeline latency exceeded the policy deadline.
    /// Their outputs are discarded but the work was spent, so their cost
    /// stays in the timeline, `work_ms` and the percentiles.
    pub deadline_missed: u64,
    /// Queries that failed with a typed [`crate::QueryError`] other than
    /// shedding: invalid sources, exhausted fault budgets, injected or
    /// internal failures.
    pub failed: u64,
    /// Workers in the pool.
    pub workers: usize,
    /// Structure uploads paid — one per worker (zero workers never
    /// happens; zero for streaming graphs, which upload on demand).
    pub uploads: u32,
    /// Host→device upload milliseconds paid across all workers.
    pub upload_ms: f64,
    /// Total simulated execution time across queries (sum of per-query
    /// `est_ms`) — the *work*, conserved whatever the worker count.
    pub work_ms: f64,
    /// Total streamed partition-transfer milliseconds across queries.
    pub transfer_ms: f64,
    /// Total sharded frontier-exchange milliseconds across queries (zero
    /// unless the prepared graph is sharded over multiple devices).
    pub exchange_ms: f64,
    /// Total kernel launches across queries.
    pub launches: u64,
    /// Simulated wall-clock of the pool: when the last worker finishes its
    /// last query on the deterministic FIFO timeline.
    pub makespan_ms: f64,
    /// Median simulated query latency (queue wait + service) on the FIFO
    /// timeline.
    pub p50_ms: f64,
    /// 95th-percentile simulated query latency.
    pub p95_ms: f64,
    /// 99th-percentile simulated query latency.
    pub p99_ms: f64,
    /// Per-query queue wait (submission → dispatch on the FIFO timeline),
    /// submission order. All queries arrive at t = 0, so this is the
    /// dispatch time itself.
    pub queue_wait_ms: Vec<f64>,
    /// Per-query service time (`est_ms + transfer_ms + exchange_ms`),
    /// submission order.
    pub service_ms: Vec<f64>,
    /// Per-query latency on the FIFO timeline, submission order. Computed
    /// as `queue_wait_ms[i] + service_ms[i]`, so the decomposition is
    /// **bitwise** exact: wait + service reassembles the latency with no
    /// rounding gap (a property the proptest suite pins down).
    pub latency_ms: Vec<f64>,
    /// The deterministic-timeline worker each query dispatches to,
    /// submission order. This is the *modeled* assignment (earliest-free,
    /// ties to lowest id) — which host thread really raced to pop the query
    /// is irrelevant to every reported number.
    pub timeline_worker: Vec<usize>,
    /// Per-worker busy milliseconds on the FIFO timeline. Queries dispatch
    /// back-to-back from t = 0, so a worker's busy time is also its finish
    /// time; the sum over workers equals `work + transfer + exchange`
    /// (conservation, up to float association).
    pub worker_busy_ms: Vec<f64>,
    /// Median queue wait.
    pub queue_p50_ms: f64,
    /// 95th-percentile queue wait.
    pub queue_p95_ms: f64,
    /// 99th-percentile queue wait.
    pub queue_p99_ms: f64,
    /// Median service time.
    pub service_p50_ms: f64,
    /// 95th-percentile service time.
    pub service_p95_ms: f64,
    /// 99th-percentile service time.
    pub service_p99_ms: f64,
}

impl ServeStats {
    /// Builds the aggregate from per-query statistics (submission order)
    /// and the per-worker upload cost. Deterministic; guards every
    /// division against an empty batch.
    ///
    /// Public so property tests can drive the FIFO-timeline decomposition
    /// directly from synthetic [`RunStats`]; the serving pool is the only
    /// production caller.
    pub fn compute(per_query: &[RunStats], workers: usize, upload_each_ms: f64) -> Self {
        Self::compute_masked(
            per_query,
            &vec![true; per_query.len()],
            workers,
            upload_each_ms,
        )
    }

    /// [`ServeStats::compute`] with an outcome mask: only `counted[i]`
    /// queries enter the FIFO timeline, the cost sums and the percentiles;
    /// uncounted slots (shed or failed queries) report zero wait/service/
    /// latency on timeline worker 0. With an all-`true` mask this is
    /// **bitwise** [`ServeStats::compute`] — same float operations in the
    /// same order — which is how an empty fault plan and a no-op policy
    /// stay perfectly neutral.
    ///
    /// The outcome counters beyond [`ServeStats::completed`] (`shed`,
    /// `deadline_missed`, `failed`) are zero here; the pool fills them from
    /// the typed per-query errors.
    ///
    /// # Panics
    /// Panics if `per_query` and `counted` differ in length.
    pub fn compute_masked(
        per_query: &[RunStats],
        counted: &[bool],
        workers: usize,
        upload_each_ms: f64,
    ) -> Self {
        assert_eq!(
            per_query.len(),
            counted.len(),
            "one mask entry per submitted query"
        );
        let costs: Vec<f64> = per_query
            .iter()
            .zip(counted)
            .filter(|&(_, &c)| c)
            .map(|(s, _)| s.est_ms + s.transfer_ms + s.exchange_ms)
            .collect();
        let timeline = fifo_timeline(&costs, workers);
        let mut sorted = timeline.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mut sorted_waits = timeline.starts.clone();
        sorted_waits.sort_by(|a, b| a.partial_cmp(b).expect("waits are finite"));
        let mut sorted_service = costs.clone();
        sorted_service.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
        // Scatter the compact timeline back to submission order: uncounted
        // slots keep zeros (they never dispatched).
        let mut queue_wait_ms = vec![0.0; per_query.len()];
        let mut service_ms = vec![0.0; per_query.len()];
        let mut latency_ms = vec![0.0; per_query.len()];
        let mut timeline_worker = vec![0usize; per_query.len()];
        let mut slot = 0;
        for (i, &c) in counted.iter().enumerate() {
            if c {
                queue_wait_ms[i] = timeline.starts[slot];
                service_ms[i] = costs[slot];
                latency_ms[i] = timeline.latencies[slot];
                timeline_worker[i] = timeline.assignment[slot];
                slot += 1;
            }
        }
        let masked = |f: fn(&RunStats) -> f64| -> f64 {
            per_query
                .iter()
                .zip(counted)
                .filter(|&(_, &c)| c)
                .map(|(s, _)| f(s))
                .sum()
        };
        ServeStats {
            queries: per_query.len() as u64,
            completed: costs.len() as u64,
            shed: 0,
            deadline_missed: 0,
            failed: 0,
            workers,
            uploads: if upload_each_ms > 0.0 {
                workers as u32
            } else {
                0
            },
            upload_ms: upload_each_ms * workers as f64,
            work_ms: masked(|s| s.est_ms),
            transfer_ms: masked(|s| s.transfer_ms),
            exchange_ms: masked(|s| s.exchange_ms),
            launches: per_query
                .iter()
                .zip(counted)
                .filter(|&(_, &c)| c)
                .map(|(s, _)| s.launches)
                .sum(),
            makespan_ms: timeline.makespan_ms,
            p50_ms: percentile(&sorted, 0.50),
            p95_ms: percentile(&sorted, 0.95),
            p99_ms: percentile(&sorted, 0.99),
            queue_p50_ms: percentile(&sorted_waits, 0.50),
            queue_p95_ms: percentile(&sorted_waits, 0.95),
            queue_p99_ms: percentile(&sorted_waits, 0.99),
            service_p50_ms: percentile(&sorted_service, 0.50),
            service_p95_ms: percentile(&sorted_service, 0.95),
            service_p99_ms: percentile(&sorted_service, 0.99),
            queue_wait_ms,
            service_ms,
            latency_ms,
            timeline_worker,
            worker_busy_ms: timeline.busy,
        }
    }

    /// Mean worker utilization on the FIFO timeline:
    /// `Σ worker_busy / (workers × makespan)`, in `[0, 1]`; 0 for an empty
    /// batch.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ms <= 0.0 || self.workers == 0 {
            0.0
        } else {
            self.worker_busy_ms.iter().sum::<f64>() / (self.workers as f64 * self.makespan_ms)
        }
    }

    /// Mean simulated service time per **completed** query
    /// (`est_ms + transfer_ms + exchange_ms`, excluding queue wait); 0 when
    /// nothing completed — never a division by zero.
    pub fn mean_query_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            (self.work_ms + self.transfer_ms + self.exchange_ms) / self.completed as f64
        }
    }

    /// Simulated goodput in **completed** queries per second
    /// (`completed / makespan`); 0 for an empty batch or zero-cost queries.
    /// Shed and failed queries never inflate throughput.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.makespan_ms / 1e3)
        }
    }

    /// How much faster the pool finishes than one worker doing everything
    /// serially (`(work + transfer + exchange) / makespan`); 1.0 for an
    /// empty batch.
    pub fn speedup(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            1.0
        } else {
            (self.work_ms + self.transfer_ms + self.exchange_ms) / self.makespan_ms
        }
    }
}

/// One worker's view of a drained pool.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerReport {
    /// Worker id, `0..workers`.
    pub worker: usize,
    /// Queries this worker actually executed. Real assignment: this and
    /// [`WorkerReport::busy_ms`] vary with host scheduling — every
    /// aggregate [`ServeStats`] number is computed from the deterministic
    /// timeline instead.
    pub queries: u64,
    /// Simulated milliseconds this worker spent executing the queries it
    /// really raced to pop (scheduling-dependent, like `queries`).
    pub busy_ms: f64,
    /// Device bytes still allocated after the drain.
    pub allocated: usize,
    /// The worker's post-upload baseline — `allocated` must equal this
    /// after every drain (the alloc-audit contract).
    pub baseline: usize,
    /// Host→device upload paid by this worker at spawn.
    pub upload_ms: f64,
}

struct Timeline {
    /// Per-query completion time (= latency, since all arrive at t = 0),
    /// submission order.
    latencies: Vec<f64>,
    /// Per-query dispatch time (= queue wait), submission order.
    starts: Vec<f64>,
    /// Per-query timeline worker, submission order.
    assignment: Vec<usize>,
    /// Per-worker busy milliseconds (= finish time: no idle gaps exist when
    /// everything arrives at t = 0).
    busy: Vec<f64>,
    makespan_ms: f64,
}

/// Replays the deterministic dispatch: queries in submission order, each to
/// the earliest-free worker, ties to the lowest worker id.
fn fifo_timeline(costs: &[f64], workers: usize) -> Timeline {
    let mut clocks = vec![0.0f64; workers.max(1)];
    let mut latencies = Vec::with_capacity(costs.len());
    let mut starts = Vec::with_capacity(costs.len());
    let mut assignment = Vec::with_capacity(costs.len());
    for &cost in costs {
        // Strict `<` keeps ties on the lowest worker id.
        let mut next = 0;
        for (i, &clock) in clocks.iter().enumerate().skip(1) {
            if clock < clocks[next] {
                next = i;
            }
        }
        // `start + cost` is the same sum the pre-decomposition code wrote as
        // `clocks[next] += cost` — latencies stay bitwise identical, and
        // wait + service == latency holds exactly by construction.
        let start = clocks[next];
        let latency = start + cost;
        clocks[next] = latency;
        starts.push(start);
        latencies.push(latency);
        assignment.push(next);
    }
    Timeline {
        makespan_ms: clocks.iter().cloned().fold(0.0, f64::max),
        latencies,
        starts,
        assignment,
        busy: clocks,
    }
}

/// Nearest-rank percentile over an **ascending-sorted** slice.
///
/// Boundary convention (pinned by unit tests):
///
/// * empty slice → `0.0` (never a panic or NaN);
/// * single element → that element, for every `q`;
/// * `q = 1.0` → the maximum (`sorted[len - 1]`), exactly;
/// * `q = 0.0` → the minimum (the rank clamps up to 1);
/// * otherwise the nearest-rank definition `sorted[⌈q·len⌉ - 1]`.
///
/// This is the only percentile implementation in the workspace — the bench
/// crate's tables consume these aggregates rather than re-deriving their
/// own, so the convention cannot drift between layers.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(est: f64, transfer: f64, exchange: f64) -> RunStats {
        RunStats {
            est_ms: est,
            launches: 1,
            transfer_ms: transfer,
            exchange_ms: exchange,
            ..RunStats::default()
        }
    }

    #[test]
    fn all_true_mask_is_bitwise_compute() {
        let queries = vec![rs(4.0, 0.5, 0.0), rs(3.0, 0.0, 0.25), rs(2.0, 0.125, 0.0)];
        let plain = ServeStats::compute(&queries, 2, 1.5);
        let masked = ServeStats::compute_masked(&queries, &[true, true, true], 2, 1.5);
        assert_eq!(plain, masked);
        assert_eq!(plain.completed, 3);
        assert_eq!(plain.work_ms.to_bits(), masked.work_ms.to_bits());
        assert_eq!(plain.makespan_ms.to_bits(), masked.makespan_ms.to_bits());
    }

    #[test]
    fn masked_slots_are_invisible_to_the_timeline() {
        let queries = vec![rs(4.0, 0.0, 0.0), rs(99.0, 0.0, 0.0), rs(2.0, 0.0, 0.0)];
        let s = ServeStats::compute_masked(&queries, &[true, false, true], 1, 0.0);
        // The failed query occupies no timeline slot and sums nothing…
        assert_eq!(s.queries, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.work_ms, 6.0);
        assert_eq!(s.makespan_ms, 6.0);
        assert_eq!(s.latency_ms, vec![4.0, 0.0, 6.0]);
        assert_eq!(s.queue_wait_ms, vec![0.0, 0.0, 4.0]);
        // …and is exactly what compute over the surviving queries says.
        let survivors = ServeStats::compute(&[queries[0], queries[2]], 1, 0.0);
        assert_eq!(s.makespan_ms.to_bits(), survivors.makespan_ms.to_bits());
        assert_eq!(s.p99_ms.to_bits(), survivors.p99_ms.to_bits());
        assert_eq!(
            s.mean_query_ms().to_bits(),
            survivors.mean_query_ms().to_bits()
        );
    }

    #[test]
    fn fifo_timeline_packs_earliest_free_worker() {
        // Costs 4,3,2,1 on 2 workers: w0 gets 4, w1 gets 3, then w1 (free
        // at 3) gets 2 → 5, then w0 (free at 4) gets 1 → 5.
        let t = fifo_timeline(&[4.0, 3.0, 2.0, 1.0], 2);
        assert_eq!(t.latencies, vec![4.0, 3.0, 5.0, 5.0]);
        assert_eq!(t.starts, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(t.assignment, vec![0, 1, 1, 0]);
        assert_eq!(t.busy, vec![5.0, 5.0]);
        assert_eq!(t.makespan_ms, 5.0);
        // One worker serializes: prefix sums.
        let t = fifo_timeline(&[4.0, 3.0, 2.0, 1.0], 1);
        assert_eq!(t.latencies, vec![4.0, 7.0, 9.0, 10.0]);
        assert_eq!(t.starts, vec![0.0, 4.0, 7.0, 9.0]);
        assert_eq!(t.makespan_ms, 10.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_boundary_convention() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // q = 1.0 is exactly the maximum; q = 0.0 clamps up to the minimum.
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // A single element answers every quantile.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        // Empty input answers 0 for every quantile, including the edges.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        // Nearest-rank on a tiny slice: ⌈0.5·2⌉ = 1 → first element.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
    }

    #[test]
    fn decomposition_reassembles_latency_bitwise() {
        let queries = vec![
            rs(4.0, 0.5, 0.0),
            rs(3.0, 0.0, 0.25),
            rs(2.0, 0.125, 0.0),
            rs(1.0, 0.0, 0.0),
            rs(0.5, 0.25, 0.125),
        ];
        for workers in 1..=4 {
            let s = ServeStats::compute(&queries, workers, 0.0);
            assert_eq!(s.queue_wait_ms.len(), queries.len());
            for i in 0..queries.len() {
                // Exact, not approximate: the timeline computes latency as
                // wait + service, so the decomposition has no rounding gap.
                assert_eq!(
                    (s.queue_wait_ms[i] + s.service_ms[i]).to_bits(),
                    s.latency_ms[i].to_bits(),
                    "query {i} at {workers} workers"
                );
                assert!(s.timeline_worker[i] < workers);
            }
            // Busy time is conserved across worker counts (float grouping
            // differs, hence epsilon): the pool never invents work.
            let busy: f64 = s.worker_busy_ms.iter().sum();
            let total = s.work_ms + s.transfer_ms + s.exchange_ms;
            assert!((busy - total).abs() < 1e-9);
            assert!(s.utilization() > 0.0 && s.utilization() <= 1.0 + 1e-12);
        }
        // Single worker: waits are the prefix sums, service percentiles
        // come from the sorted service times.
        let s = ServeStats::compute(&queries, 1, 0.0);
        assert_eq!(s.queue_wait_ms[0], 0.0);
        assert!(s.queue_p99_ms >= s.queue_p50_ms);
        assert_eq!(s.service_p50_ms, 2.125);
        assert_eq!(s.service_p99_ms, 4.5);
    }

    #[test]
    fn empty_batch_has_zero_stats_and_guarded_ratios() {
        let s = ServeStats::compute(&[], 4, 1.5);
        assert_eq!(s.queries, 0);
        assert_eq!(s.work_ms, 0.0);
        assert_eq!(s.makespan_ms, 0.0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.mean_query_ms(), 0.0);
        assert_eq!(s.throughput_qps(), 0.0);
        assert_eq!(s.speedup(), 1.0);
        assert!(s.mean_query_ms().is_finite());
    }
}
