//! Open-loop arrival generation bound to a trace (§7.1).
//!
//! "At every step, the workload generator reads the number of requests from
//! the trace to set the target number of requests/sec … and maintains the
//! offered load as close as possible to the specified target." We realize
//! that as a Poisson arrival process whose rate follows the trace minute by
//! minute.

use crate::dist::exponential;
use crate::traces::Trace;
use crate::Workload;
use dasr_engine::{Engine, RequestSpec, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives a workload through a trace, generating Poisson arrivals one
/// minute at a time — lazily with [`arrivals`](Self::arrivals), or as a
/// batch with [`arrivals_for_minute`](Self::arrivals_for_minute).
pub struct TraceDriver<W: Workload> {
    trace: Trace,
    workload: W,
    rng: StdRng,
}

impl<W: Workload> TraceDriver<W> {
    /// Creates a driver; all randomness derives from `seed`.
    pub fn new(trace: Trace, workload: W, seed: u64) -> Self {
        Self {
            trace,
            workload,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The trace being driven.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The workload's name.
    pub fn workload_name(&self) -> &'static str {
        self.workload.name()
    }

    /// Number of minutes in the trace.
    pub fn minutes(&self) -> usize {
        self.trace.minutes()
    }

    /// The arrivals for `minute` (0-based) as a lazy stream of
    /// `(arrival_time, spec)` pairs in time order. Each item is drawn when
    /// it is pulled; exhausting the stream draws exactly what
    /// [`arrivals_for_minute`](Self::arrivals_for_minute) draws, so the
    /// driver's random stream continues identically either way.
    pub fn arrivals(&mut self, minute: usize) -> MinuteArrivals<'_, W> {
        let rate = self.trace.target_rps(minute);
        MinuteArrivals {
            rng: &mut self.rng,
            workload: &mut self.workload,
            rate,
            start_us: minute as u64 * 60_000_000,
            // A silent minute never draws.
            t: (rate < 1e-3).then_some(f64::INFINITY),
        }
    }

    /// Generates the arrivals for `minute` (0-based) without an engine —
    /// returns `(arrival_time, spec)` pairs.
    pub fn arrivals_for_minute(&mut self, minute: usize) -> Vec<(SimTime, RequestSpec)> {
        self.arrivals(minute).collect()
    }

    /// Submits the arrivals for `minute` directly into `engine`.
    ///
    /// # Panics
    /// Panics if the engine's clock is already past the start of `minute`.
    pub fn submit_minute(&mut self, minute: usize, engine: &mut Engine) -> usize {
        let arrivals = self.arrivals_for_minute(minute);
        let n = arrivals.len();
        for (at, spec) in arrivals {
            engine.submit_at(at, spec);
        }
        n
    }
}

/// One minute of open-loop arrivals, drawn on demand (see
/// [`TraceDriver::arrivals`]).
///
/// Draw order: a gap; then, while the arrival time is inside the minute, a
/// request spec and the next gap. The gap that first lands past 60 s ends
/// the stream.
pub struct MinuteArrivals<'a, W: Workload> {
    rng: &'a mut StdRng,
    workload: &'a mut W,
    rate: f64,
    start_us: u64,
    /// Seconds into the minute of the next arrival; `None` until the first
    /// gap is drawn.
    t: Option<f64>,
}

impl<W: Workload> Iterator for MinuteArrivals<'_, W> {
    type Item = (SimTime, RequestSpec);

    fn next(&mut self) -> Option<Self::Item> {
        // Exponential gaps in seconds at `rate` events/s.
        let t = match self.t {
            Some(t) => t,
            None => exponential(self.rng, self.rate),
        };
        self.t = Some(t);
        if t >= 60.0 {
            return None;
        }
        let at = SimTime::from_micros(self.start_us + (t * 1_000_000.0) as u64);
        let spec = self.workload.next_request(self.rng);
        self.t = Some(t + exponential(self.rng, self.rate));
        Some((at, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuio::{CpuIoConfig, CpuIoWorkload};
    use rand::Rng;

    fn driver(rps: f64) -> TraceDriver<CpuIoWorkload> {
        TraceDriver::new(
            Trace::new("t", vec![rps; 10]),
            CpuIoWorkload::new(CpuIoConfig::small()),
            42,
        )
    }

    #[test]
    fn arrival_count_tracks_rate() {
        let mut d = driver(50.0);
        let total: usize = (0..10).map(|m| d.arrivals_for_minute(m).len()).sum();
        // 50 rps * 600 s = 30000 expected; Poisson sd ~ 173.
        assert!(
            (29_000..31_000).contains(&total),
            "got {total} arrivals for 50 rps x 10 min"
        );
    }

    #[test]
    fn arrivals_fall_within_their_minute() {
        let mut d = driver(20.0);
        let arrivals = d.arrivals_for_minute(3);
        for (at, _) in &arrivals {
            let us = at.as_micros();
            assert!((180_000_000..240_000_000).contains(&us), "at {us}");
        }
    }

    #[test]
    fn arrivals_are_sorted() {
        let mut d = driver(100.0);
        let arrivals = d.arrivals_for_minute(0);
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn zero_rate_minute_is_silent() {
        let mut d = driver(0.0);
        assert!(d.arrivals_for_minute(0).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let collect = || {
            let mut d = driver(30.0);
            d.arrivals_for_minute(0)
                .into_iter()
                .map(|(t, s)| (t, s.ops.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn stream_draws_what_the_batch_draws() {
        // Same seed, one driver batching and one streaming over several
        // minutes (including a silent one): identical items, and the rng
        // ends each minute in the same state.
        let trace = Trace::new("t", vec![40.0, 0.0, 75.0, 5.0]);
        let mk = || TraceDriver::new(trace.clone(), CpuIoWorkload::new(CpuIoConfig::small()), 9);
        let (mut batch, mut lazy) = (mk(), mk());
        for minute in 0..4 {
            let want = batch.arrivals_for_minute(minute);
            let got: Vec<_> = lazy.arrivals(minute).collect();
            assert_eq!(got.len(), want.len(), "minute {minute}");
            for ((ga, gs), (wa, ws)) in got.iter().zip(&want) {
                assert_eq!(ga, wa);
                assert_eq!(gs.ops, ws.ops);
            }
        }
        assert_eq!(batch.rng.gen::<u64>(), lazy.rng.gen::<u64>());
    }

    #[test]
    fn exhausted_stream_stays_exhausted() {
        let mut d = driver(30.0);
        let mut s = d.arrivals(0);
        while s.next().is_some() {}
        assert!(s.next().is_none());
        assert!(s.next().is_none());
    }

    #[test]
    fn submit_minute_feeds_engine() {
        use dasr_containers::ResourceVector;
        use dasr_engine::EngineConfig;

        let mut d = driver(10.0);
        let mut engine = Engine::new(
            EngineConfig::default(),
            ResourceVector::new(2.0, 256.0, 400.0, 20.0),
        );
        let n = d.submit_minute(0, &mut engine);
        engine.run_until(SimTime::from_mins(1));
        let stats = engine.end_interval();
        assert_eq!(stats.arrivals as usize, n);
        assert!(stats.completed > 0);
    }
}
