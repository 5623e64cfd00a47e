//! Deterministic, seed-driven arrival processes.
//!
//! Two regimes cover the evaluation space of datacenter co-scheduling
//! work (Octopus-Man's latency-critical streams, Hipster's mixed QoS
//! traffic): an open-loop Poisson process (independent tenants) and a
//! bursty regime that replays coordinated traffic spikes — a trace-like
//! pattern of Poisson burst starts, each releasing a volley of jobs.
//! Same seed ⇒ byte-identical stream.
//!
//! Streams can be consumed two ways. The batch path
//! ([`ArrivalProcess::generate`]) materialises a `Vec<JobSpec>`. The
//! resident path pulls jobs one at a time through an [`ArrivalCursor`]
//! — [`GenCursor`] regenerates the *exact same* sequence lazily in
//! O(1) memory (traffic warps applied per pull), [`SliceCursor`] wraps
//! a materialised slice, and [`TraceCursor`] streams a line-delimited
//! external trace file. Cursor positions are checkpointable
//! ([`ArrivalCursor::save`]), which is what lets the resident kernel
//! resume mid-stream bit-identically.

use crate::chaos::{traffic_breakpoints, TrafficClause};
use crate::checkpoint::{CheckpointError, CursorState};
use crate::job::{taxon_of, JobClass, JobSpec, Taxon};
use astro_workloads::{InputSize, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// How jobs arrive over time.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Open-loop Poisson: exponential inter-arrival times at `rate`
    /// jobs per second.
    Poisson {
        /// Mean arrival rate, jobs per second.
        rate_jobs_per_s: f64,
    },
    /// Bursty replay: burst starts form a Poisson process of rate
    /// `rate / burst`, and each burst releases `burst` jobs spread
    /// uniformly over `spread_s` seconds. The long-run rate matches the
    /// Poisson regime; the short-run pressure does not.
    Bursty {
        /// Long-run mean arrival rate, jobs per second.
        rate_jobs_per_s: f64,
        /// Jobs per burst.
        burst: usize,
        /// Width of one burst, seconds.
        spread_s: f64,
    },
}

impl ArrivalProcess {
    /// Label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// Generate `n` jobs drawn uniformly from `pool`, with arrival times
    /// from this process and SLO tightness uniform in `slo_tightness`.
    /// Everything is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// The tightness range must be positive and finite: every job's SLO
    /// is `tightness × best-cold-wall`, and a non-positive SLO would
    /// otherwise flow through the metrics layer as a ratio of 0.0 —
    /// silently sorting as the *best* p99 latency/SLO ratio in the
    /// fleet. Rejected here, at stream construction, in the same spirit
    /// as the kernel's churn/chaos schedule validation.
    pub fn generate(
        &self,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
    ) -> Vec<JobSpec> {
        validate_stream(pool, slo_tightness);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA1217_F1EE7);
        // Classify each pool entry once (module construction is not free).
        let taxa: Vec<Taxon> = pool.iter().map(|w| taxon_of(&(w.build)(size))).collect();

        let mut arrivals = self.arrival_times(n, &mut rng);
        arrivals.sort_by(f64::total_cmp);

        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival_s)| {
                let k = rng.gen_range(0..pool.len());
                let (lo, hi) = slo_tightness;
                let slo = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                JobSpec {
                    id: i as u32,
                    workload: pool[k],
                    taxon: taxa[k],
                    arrival_s,
                    slo_tightness: slo,
                    seed: seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                }
            })
            .collect()
    }

    /// [`generate`](Self::generate), then warp arrival times through a
    /// set of chaos [`TrafficClause`]s (flash crowds, diurnal swell).
    ///
    /// The warp is an inverse-CDF redistribution over the piecewise-
    /// constant intensity the clauses describe: job count, stream order,
    /// per-job workload/SLO/seed draws and the horizon (last arrival)
    /// are all preserved — only *when* each job lands moves, with
    /// proportionally more of the stream concentrated where the
    /// intensity multiplier is high. With no clauses the stream is
    /// byte-identical to [`generate`](Self::generate)'s.
    pub fn generate_shaped(
        &self,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) -> Vec<JobSpec> {
        let mut jobs = self.generate(n, pool, size, slo_tightness, seed);
        if traffic.is_empty() || jobs.is_empty() {
            return jobs;
        }
        let horizon = jobs.last().unwrap().arrival_s;
        if horizon <= 0.0 {
            return jobs;
        }
        // Piecewise-constant multiplier m(u) over horizon fraction
        // u ∈ [0, 1], as (start, multiplier) segments; cumulative
        // weight table W so W[j] = ∫₀^{segs[j].0} m.
        let segs = traffic_breakpoints(traffic);
        let mut cum = Vec::with_capacity(segs.len() + 1);
        cum.push(0.0);
        for j in 0..segs.len() {
            let end = if j + 1 < segs.len() {
                segs[j + 1].0
            } else {
                1.0
            };
            cum.push(cum[j] + segs[j].1 * (end - segs[j].0));
        }
        let total = *cum.last().unwrap();
        // Each original time maps through W⁻¹: the fraction of jobs a
        // window [a, b] receives becomes (W(b) − W(a)) / W(1). Times
        // are sorted and the map is monotone, so one forward pointer
        // suffices and the stream stays sorted.
        let mut j = 0;
        for job in &mut jobs {
            let target = (job.arrival_s / horizon).clamp(0.0, 1.0) * total;
            if target >= total {
                // The stream's last arrival defines the horizon; pin it
                // exactly rather than round-tripping through W⁻¹.
                job.arrival_s = horizon;
                continue;
            }
            while j + 1 < segs.len() && cum[j + 1] <= target {
                j += 1;
            }
            let q = segs[j].0 + (target - cum[j]) / segs[j].1;
            job.arrival_s = (q * horizon).min(horizon);
        }
        jobs
    }

    fn arrival_times(&self, n: usize, rng: &mut SmallRng) -> Vec<f64> {
        let mut times = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_jobs_per_s } => {
                assert!(rate_jobs_per_s > 0.0);
                let mut t = 0.0;
                for _ in 0..n {
                    t += exponential(rng, rate_jobs_per_s);
                    times.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate_jobs_per_s,
                burst,
                spread_s,
            } => {
                assert!(rate_jobs_per_s > 0.0 && burst > 0);
                let burst_rate = rate_jobs_per_s / burst as f64;
                let mut t = 0.0;
                while times.len() < n {
                    t += exponential(rng, burst_rate);
                    for _ in 0..burst.min(n - times.len()) {
                        times.push(t + rng.gen_range(0.0..spread_s.max(1e-9)));
                    }
                }
            }
        }
        times
    }
}

/// Exponential variate with the given rate, by inversion.
fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Shared stream validation (batch and cursor construction): non-empty
/// pool, positive finite ordered SLO tightness.
fn validate_stream(pool: &[Workload], slo_tightness: (f64, f64)) {
    assert!(!pool.is_empty(), "workload pool must not be empty");
    let (lo, hi) = slo_tightness;
    assert!(
        lo > 0.0 && lo.is_finite() && hi.is_finite() && hi >= lo,
        "invalid arrival stream: SLO tightness range ({lo}, {hi}) must be positive, \
         finite and ordered — a job with slo_s <= 0 can never meet its deadline and \
         would corrupt the SLO-ratio metrics"
    );
}

/// A pull-based job stream: the resident kernel's replacement for a
/// materialised `Vec<JobSpec>`. Implementations promise that the pull
/// sequence is **bitwise identical** to the batch sequence the same
/// configuration would have materialised (ids, arrival times, seeds,
/// SLO draws — everything), and that a [`save`](ArrivalCursor::save)d
/// position restored with [`load`](ArrivalCursor::load) resumes that
/// exact sequence.
pub trait ArrivalCursor {
    /// Pulls the next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// Total jobs this stream delivers over its lifetime.
    fn total(&self) -> usize;

    /// Jobs already pulled.
    fn position(&self) -> usize;

    /// The distinct workloads the stream can emit, first-appearance
    /// order (the kernel compiles stock binaries and calibrates replay
    /// tiers for exactly these).
    fn workloads(&self) -> Vec<Workload>;

    /// Snapshots the stream position for a checkpoint.
    fn save(&self) -> CursorState;

    /// Restores a [`save`](ArrivalCursor::save)d position. Structurally
    /// impossible states (position past the end, oversized merge heap)
    /// are rejected with a [`CheckpointError`], never applied.
    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError>;
}

/// An [`ArrivalCursor`] over an already-materialised job slice — the
/// adapter that runs the batch entry points through the resident
/// kernel, so both paths share one loop.
pub struct SliceCursor<'a> {
    jobs: &'a [JobSpec],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// Wraps a materialised stream.
    pub fn new(jobs: &'a [JobSpec]) -> Self {
        SliceCursor { jobs, pos: 0 }
    }
}

impl ArrivalCursor for SliceCursor<'_> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let j = self.jobs.get(self.pos).copied()?;
        self.pos += 1;
        Some(j)
    }

    fn total(&self) -> usize {
        self.jobs.len()
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        let mut out: Vec<Workload> = Vec::new();
        for j in self.jobs {
            if !out.iter().any(|w| w.name == j.workload.name) {
                out.push(j.workload);
            }
        }
        out
    }

    fn save(&self) -> CursorState {
        CursorState {
            pos: self.pos as u64,
            ..CursorState::default()
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        if s.pos as usize > self.jobs.len() {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        self.pos = s.pos as usize;
        Ok(())
    }
}

/// The lazy traffic-warp table: piecewise-constant intensity segments
/// and their cumulative weights, exactly as
/// [`ArrivalProcess::generate_shaped`] builds them.
struct WarpTable {
    /// `(start_fraction, multiplier)` segments over `[0, 1]`.
    segs: Vec<(f64, f64)>,
    /// `cum[j] = ∫₀^{segs[j].0} m` plus a final total entry.
    cum: Vec<f64>,
    /// Total weight `∫₀¹ m`.
    total: f64,
}

impl WarpTable {
    fn new(traffic: &[TrafficClause]) -> Self {
        let segs = traffic_breakpoints(traffic);
        let mut cum = Vec::with_capacity(segs.len() + 1);
        cum.push(0.0);
        for j in 0..segs.len() {
            let end = if j + 1 < segs.len() {
                segs[j + 1].0
            } else {
                1.0
            };
            cum.push(cum[j] + segs[j].1 * (end - segs[j].0));
        }
        let total = *cum.last().unwrap();
        WarpTable { segs, cum, total }
    }
}

/// A streaming [`ArrivalCursor`] over a seeded generator: regenerates
/// the exact sequence [`ArrivalProcess::generate_shaped`] would have
/// materialised, one job per pull, in O(1) memory (O(burst) for the
/// bursty regime's merge heap).
///
/// Two generator streams share one seed expansion: construction
/// fast-forwards a clone of the seeded RNG through all `n`
/// arrival-time draws (discarding values, recording the horizon), which
/// positions the per-job draw stream exactly where the batch path's
/// post-sort draws begin; a second, freshly seeded RNG then re-draws
/// arrival times lazily. Poisson times are already sorted; bursty times
/// are merged through a min-heap bounded by the burst-base frontier
/// (no future burst can land before the most recent base, and ties are
/// value-equal, so emission order matches the batch sort bitwise).
pub struct GenCursor {
    process: ArrivalProcess,
    n: usize,
    pool: Vec<Workload>,
    taxa: Vec<Taxon>,
    slo_tightness: (f64, f64),
    seed: u64,
    /// Lazy arrival-time regeneration stream.
    rng_t: SmallRng,
    /// Per-job draw stream, positioned after all time draws.
    rng_j: SmallRng,
    /// Jobs emitted so far (also the next job's id).
    pos: usize,
    /// Arrival times drawn from `rng_t` so far.
    drawn: usize,
    /// Running burst base (bursty) / running time (poisson).
    frontier: f64,
    /// Generated-but-not-emitted times (bursty), as non-negative IEEE
    /// bits (bit order == numeric order for non-negative floats).
    heap: BinaryHeap<Reverse<u64>>,
    /// Last arrival of the full stream (known at construction).
    horizon: f64,
    /// Lazy warp, when traffic clauses are active.
    warp: Option<WarpTable>,
    /// Forward segment pointer of the warp (arrivals are emitted in
    /// sorted order, so it only moves right — same as the batch path).
    warp_seg: usize,
}

impl GenCursor {
    /// Builds a cursor equivalent to
    /// [`ArrivalProcess::generate_shaped`]`(n, pool, size, slo_tightness,
    /// seed, traffic)`. Pass no traffic clauses for the plain
    /// [`generate`](ArrivalProcess::generate) sequence.
    ///
    /// # Panics
    ///
    /// On an empty pool or an invalid SLO tightness range, exactly as
    /// the batch path does.
    pub fn new(
        process: ArrivalProcess,
        n: usize,
        pool: &[Workload],
        size: InputSize,
        slo_tightness: (f64, f64),
        seed: u64,
        traffic: &[TrafficClause],
    ) -> Self {
        validate_stream(pool, slo_tightness);
        let taxa: Vec<Taxon> = pool.iter().map(|w| taxon_of(&(w.build)(size))).collect();
        // Fast-forward a clone of the seeded stream through every
        // arrival-time draw — the exact loop `arrival_times` runs —
        // recording only the maximum (the sorted stream's last entry).
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA1217_F1EE7);
        let mut horizon = 0.0f64;
        match process {
            ArrivalProcess::Poisson { rate_jobs_per_s } => {
                assert!(rate_jobs_per_s > 0.0);
                let mut t = 0.0;
                for _ in 0..n {
                    t += exponential(&mut rng, rate_jobs_per_s);
                }
                horizon = t;
            }
            ArrivalProcess::Bursty {
                rate_jobs_per_s,
                burst,
                spread_s,
            } => {
                assert!(rate_jobs_per_s > 0.0 && burst > 0);
                let burst_rate = rate_jobs_per_s / burst as f64;
                let mut t = 0.0;
                let mut len = 0usize;
                while len < n {
                    t += exponential(&mut rng, burst_rate);
                    for _ in 0..burst.min(n - len) {
                        let v = t + rng.gen_range(0.0..spread_s.max(1e-9));
                        if v > horizon {
                            horizon = v;
                        }
                        len += 1;
                    }
                }
            }
        }
        let warp = if !traffic.is_empty() && n > 0 && horizon > 0.0 {
            Some(WarpTable::new(traffic))
        } else {
            None
        };
        GenCursor {
            process,
            n,
            pool: pool.to_vec(),
            taxa,
            slo_tightness,
            seed,
            rng_t: SmallRng::seed_from_u64(seed ^ 0xA1217_F1EE7),
            rng_j: rng,
            pos: 0,
            drawn: 0,
            frontier: 0.0,
            heap: BinaryHeap::new(),
            horizon,
            warp,
            warp_seg: 0,
        }
    }

    /// The next arrival time in sorted order (caller guarantees
    /// `pos < n`).
    fn next_time(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate_jobs_per_s } => {
                self.frontier += exponential(&mut self.rng_t, rate_jobs_per_s);
                self.drawn += 1;
                self.frontier
            }
            ArrivalProcess::Bursty {
                rate_jobs_per_s,
                burst,
                spread_s,
            } => {
                let burst_rate = rate_jobs_per_s / burst as f64;
                loop {
                    if let Some(&Reverse(min_bits)) = self.heap.peek() {
                        // Every not-yet-generated job lands at or after
                        // the current burst base, so a pending time at
                        // or before the frontier is globally minimal
                        // (ties are value-equal and therefore
                        // order-insensitive).
                        if self.drawn >= self.n || f64::from_bits(min_bits) <= self.frontier {
                            self.heap.pop();
                            return f64::from_bits(min_bits);
                        }
                    }
                    debug_assert!(self.drawn < self.n, "heap empty with stream unfinished");
                    self.frontier += exponential(&mut self.rng_t, burst_rate);
                    for _ in 0..burst.min(self.n - self.drawn) {
                        let v = self.frontier + self.rng_t.gen_range(0.0..spread_s.max(1e-9));
                        self.heap.push(Reverse(v.to_bits()));
                        self.drawn += 1;
                    }
                }
            }
        }
    }

    /// Applies the lazy traffic warp: the same W⁻¹ map
    /// [`ArrivalProcess::generate_shaped`] applies post-hoc, with the
    /// same monotone forward pointer.
    fn warp_time(&mut self, raw: f64) -> f64 {
        let Some(w) = &self.warp else { return raw };
        let target = (raw / self.horizon).clamp(0.0, 1.0) * w.total;
        if target >= w.total {
            return self.horizon;
        }
        while self.warp_seg + 1 < w.segs.len() && w.cum[self.warp_seg + 1] <= target {
            self.warp_seg += 1;
        }
        let q = w.segs[self.warp_seg].0 + (target - w.cum[self.warp_seg]) / w.segs[self.warp_seg].1;
        (q * self.horizon).min(self.horizon)
    }
}

impl ArrivalCursor for GenCursor {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.pos >= self.n {
            return None;
        }
        let raw = self.next_time();
        let arrival_s = self.warp_time(raw);
        let k = self.rng_j.gen_range(0..self.pool.len());
        let (lo, hi) = self.slo_tightness;
        let slo = if hi > lo {
            self.rng_j.gen_range(lo..hi)
        } else {
            lo
        };
        let i = self.pos;
        self.pos += 1;
        Some(JobSpec {
            id: i as u32,
            workload: self.pool[k],
            taxon: self.taxa[k],
            arrival_s,
            slo_tightness: slo,
            seed: self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
        })
    }

    fn total(&self) -> usize {
        self.n
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        self.pool.clone()
    }

    fn save(&self) -> CursorState {
        let mut heap_bits: Vec<u64> = self.heap.iter().map(|r| r.0).collect();
        heap_bits.sort_unstable();
        CursorState {
            pos: self.pos as u64,
            rng_t: self.rng_t.state(),
            rng_j: self.rng_j.state(),
            heap_bits,
            frontier_bits: self.frontier.to_bits(),
            drawn: self.drawn as u64,
            warp_seg: self.warp_seg as u64,
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        if s.pos > self.n as u64 || s.drawn > self.n as u64 || s.pos > s.drawn {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        if s.heap_bits.len() as u64 != s.drawn - s.pos {
            return Err(CheckpointError::Corrupt(
                "cursor merge heap inconsistent with position",
            ));
        }
        if let Some(w) = &self.warp {
            if s.warp_seg as usize >= w.segs.len() {
                return Err(CheckpointError::Corrupt(
                    "warp segment pointer out of range",
                ));
            }
        } else if s.warp_seg != 0 {
            return Err(CheckpointError::Corrupt(
                "warp segment pointer without warp",
            ));
        }
        self.pos = s.pos as usize;
        self.drawn = s.drawn as usize;
        self.rng_t = SmallRng::from_state(s.rng_t);
        self.rng_j = SmallRng::from_state(s.rng_j);
        self.frontier = f64::from_bits(s.frontier_bits);
        self.heap = s.heap_bits.iter().map(|&b| Reverse(b)).collect();
        self.warp_seg = s.warp_seg as usize;
        Ok(())
    }
}

/// Writes a stream as a line-delimited external trace [`TraceCursor`]
/// can replay. One job per line, space-separated:
/// `workload arrival_bits_hex slo_bits_hex seed class_index signature`
/// — floats as raw IEEE bit patterns, so the round-trip is lossless to
/// the last bit. Job ids are implicit stream positions, exactly as
/// generated streams number them.
pub fn write_trace<W: Write>(mut w: W, jobs: &[JobSpec]) -> io::Result<()> {
    for j in jobs {
        let class_idx = JobClass::ALL
            .iter()
            .position(|c| *c == j.taxon.class)
            .expect("JobClass::ALL covers every class");
        writeln!(
            w,
            "{} {:016x} {:016x} {} {} {}",
            j.workload.name,
            j.arrival_s.to_bits(),
            j.slo_tightness.to_bits(),
            j.seed,
            class_idx,
            j.taxon.signature
        )?;
    }
    Ok(())
}

/// A streaming [`ArrivalCursor`] over a [`write_trace`]-format file:
/// one buffered line per pull, O(1) memory however long the trace is.
///
/// A trace file is untrusted input, so [`TraceCursor::open`] parses
/// and validates every line before the kernel sees any of it: a
/// malformed field, an unknown workload, an out-of-range class, a
/// non-finite, negative or decreasing arrival time, or a non-finite or
/// non-positive SLO tightness is an [`io::ErrorKind::InvalidData`]
/// error naming the line.
pub struct TraceCursor {
    path: PathBuf,
    reader: io::BufReader<std::fs::File>,
    /// File lines read so far, blank ones included (for messages).
    line_no: usize,
    pos: usize,
    total: usize,
    pool: Vec<Workload>,
}

/// Parses and validates one non-empty trace line as stream position
/// `id`, resolving its workload against `pool`.
fn parse_trace_line(line: &str, id: usize, pool: &[Workload]) -> Result<JobSpec, String> {
    let mut f = line.split_whitespace();
    let mut field = |what: &str| f.next().ok_or_else(|| format!("missing {what}"));
    let name = field("workload")?;
    let hex = |what: &str, v: &str| {
        u64::from_str_radix(v, 16).map_err(|e| format!("bad {what} {v:?}: {e}"))
    };
    let arrival_s = f64::from_bits(hex("arrival bits", field("arrival bits")?)?);
    let slo_tightness = f64::from_bits(hex("slo bits", field("slo bits")?)?);
    let seed: u64 = field("seed")?
        .parse()
        .map_err(|e| format!("bad seed: {e}"))?;
    let class_idx: usize = field("class index")?
        .parse()
        .map_err(|e| format!("bad class index: {e}"))?;
    let signature: u8 = field("signature")?
        .parse()
        .map_err(|e| format!("bad signature: {e}"))?;
    if let Some(extra) = f.next() {
        return Err(format!("unexpected trailing field {extra:?}"));
    }
    if !(arrival_s.is_finite() && arrival_s >= 0.0) {
        return Err(format!(
            "arrival time {arrival_s} must be finite and non-negative"
        ));
    }
    if !(slo_tightness.is_finite() && slo_tightness > 0.0) {
        return Err(format!(
            "SLO tightness {slo_tightness} must be finite and positive"
        ));
    }
    let class = *JobClass::ALL
        .get(class_idx)
        .ok_or_else(|| format!("class index {class_idx} out of range"))?;
    let workload = pool
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(JobSpec {
        id: id as u32,
        workload,
        taxon: Taxon { class, signature },
        arrival_s,
        slo_tightness,
        seed,
    })
}

impl TraceCursor {
    /// Opens a trace file, scanning it once to validate every line,
    /// count jobs and collect the distinct workloads (the kernel needs
    /// both up front). Fails with [`io::ErrorKind::InvalidData`] on
    /// the first invalid line.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut total = 0usize;
        let mut pool: Vec<Workload> = Vec::new();
        let mut last_arrival_s = 0.0f64;
        for (ln, line) in io::BufReader::new(std::fs::File::open(path)?)
            .lines()
            .enumerate()
        {
            let line = line?;
            let invalid = |e: String| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace line {}: {e}", ln + 1),
                )
            };
            let Some(name) = line.split_whitespace().next() else {
                continue;
            };
            if !pool.iter().any(|w| w.name == name) {
                let w = astro_workloads::by_name(name)
                    .ok_or_else(|| invalid(format!("unknown workload {name:?}")))?;
                pool.push(w);
            }
            let job = parse_trace_line(&line, total, &pool).map_err(invalid)?;
            if job.arrival_s < last_arrival_s {
                return Err(invalid(format!(
                    "arrival time {} is before the previous job's {last_arrival_s}",
                    job.arrival_s
                )));
            }
            last_arrival_s = job.arrival_s;
            total += 1;
        }
        Ok(TraceCursor {
            path: path.to_path_buf(),
            reader: io::BufReader::new(std::fs::File::open(path)?),
            line_no: 0,
            pos: 0,
            total,
            pool,
        })
    }

    /// Reads the next non-empty line, or `None` at end of file.
    fn next_line(&mut self) -> Option<String> {
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("trace read failed: {e}"));
            if n == 0 {
                return None;
            }
            self.line_no += 1;
            if !line.trim().is_empty() {
                return Some(line);
            }
        }
    }
}

impl ArrivalCursor for TraceCursor {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.pos >= self.total {
            return None;
        }
        let line = self.next_line()?;
        // `open` validated every line, so this fails only if the file
        // was changed underneath the cursor.
        let job = parse_trace_line(&line, self.pos, &self.pool)
            .unwrap_or_else(|e| panic!("trace line {} changed after open: {e}", self.line_no));
        self.pos += 1;
        Some(job)
    }

    fn total(&self) -> usize {
        self.total
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn workloads(&self) -> Vec<Workload> {
        self.pool.clone()
    }

    fn save(&self) -> CursorState {
        CursorState {
            pos: self.pos as u64,
            ..CursorState::default()
        }
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        if s.pos as usize > self.total {
            return Err(CheckpointError::Corrupt("cursor position past stream end"));
        }
        // Reopen and skip: the trace is the source of truth, and a
        // linear re-scan is exact however the file is buffered.
        let file = std::fs::File::open(&self.path)
            .map_err(|_| CheckpointError::Corrupt("trace file vanished before resume"))?;
        self.reader = io::BufReader::new(file);
        self.line_no = 0;
        self.pos = 0;
        for _ in 0..s.pos {
            if self.next_line().is_none() {
                return Err(CheckpointError::Corrupt("trace file shrank before resume"));
            }
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<Workload> {
        ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 100.0,
        };
        let a = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 7);
        let b = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 7);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.workload.name, y.workload.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.slo_tightness, y.slo_tightness);
        }
        let c = p.generate(50, &pool(), InputSize::Test, (3.0, 6.0), 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival_s != y.arrival_s));
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 200.0,
        };
        let jobs = p.generate(400, &pool(), InputSize::Test, (4.0, 4.0), 3);
        let span = jobs.last().unwrap().arrival_s;
        let rate = 400.0 / span;
        assert!((100.0..400.0).contains(&rate), "empirical rate {rate}");
        // Arrivals are sorted.
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let burst = 10;
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 100.0,
            burst,
            spread_s: 0.001,
        };
        let jobs = p.generate(200, &pool(), InputSize::Test, (4.0, 4.0), 11);
        assert_eq!(jobs.len(), 200);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // Most consecutive gaps are tiny (within a burst); a few are big.
        let gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .collect();
        let small = gaps.iter().filter(|&&g| g < 0.002).count();
        assert!(
            small > gaps.len() / 2,
            "expected clustered arrivals, {small}/{} small gaps",
            gaps.len()
        );
    }

    #[test]
    fn shaped_with_no_traffic_is_bit_identical() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 120.0,
        };
        let plain = p.generate(80, &pool(), InputSize::Test, (3.0, 6.0), 5);
        let shaped = p.generate_shaped(80, &pool(), InputSize::Test, (3.0, 6.0), 5, &[]);
        for (a, b) in plain.iter().zip(&shaped) {
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn flash_crowd_concentrates_the_window() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 120.0,
        };
        let traffic = [TrafficClause::FlashCrowd {
            from_frac: 0.4,
            to_frac: 0.6,
            factor: 6.0,
        }];
        let jobs = p.generate_shaped(500, &pool(), InputSize::Test, (3.0, 6.0), 5, &traffic);
        let plain = p.generate(500, &pool(), InputSize::Test, (3.0, 6.0), 5);
        let horizon = plain.last().unwrap().arrival_s;
        assert_eq!(jobs.len(), 500);
        // Horizon, order and per-job draws survive the warp.
        assert_eq!(
            jobs.last().unwrap().arrival_s.to_bits(),
            horizon.to_bits(),
            "warp must preserve the horizon"
        );
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (a, b) in plain.iter().zip(&jobs) {
            assert_eq!(a.workload.name, b.workload.name);
            assert_eq!(a.seed, b.seed);
        }
        // The 20% window should hold far more than 20% of the stream:
        // with factor 6 the expected share is 1.2 / (0.8 + 1.2) = 60%.
        let in_window = jobs
            .iter()
            .filter(|j| {
                let u = j.arrival_s / horizon;
                (0.4..0.6).contains(&u)
            })
            .count();
        assert!(
            in_window > 200,
            "flash window holds {in_window}/500 jobs, expected ~300"
        );
    }

    #[test]
    fn diurnal_preserves_count_horizon_and_order() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let traffic = [TrafficClause::Diurnal {
            cycles: 2.0,
            depth: 0.7,
            steps: 16,
        }];
        let jobs = p.generate_shaped(300, &pool(), InputSize::Test, (3.0, 6.0), 9, &traffic);
        let plain = p.generate(300, &pool(), InputSize::Test, (3.0, 6.0), 9);
        assert_eq!(jobs.len(), 300);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(jobs.iter().all(|j| j.arrival_s >= 0.0));
        assert_eq!(
            jobs.last().unwrap().arrival_s.to_bits(),
            plain.last().unwrap().arrival_s.to_bits()
        );
        // The swell actually moved something.
        assert!(plain
            .iter()
            .zip(&jobs)
            .any(|(a, b)| a.arrival_s.to_bits() != b.arrival_s.to_bits()));
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: SLO tightness range (0, 4)")]
    fn non_positive_slo_tightness_is_rejected() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        // tightness 0 would generate jobs with slo_s == 0 — deadlines
        // that can never be met but used to score a perfect SLO ratio.
        p.generate(10, &pool(), InputSize::Test, (0.0, 4.0), 1);
    }

    #[test]
    #[should_panic(expected = "invalid arrival stream: SLO tightness range (3, inf)")]
    fn non_finite_slo_tightness_is_rejected() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        p.generate(10, &pool(), InputSize::Test, (3.0, f64::INFINITY), 1);
    }

    #[test]
    fn ids_are_stream_positions() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let jobs = p.generate(20, &pool(), InputSize::Test, (3.0, 5.0), 1);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id as usize, i);
        }
    }

    fn assert_same_stream(batch: &[JobSpec], cursor: &mut dyn ArrivalCursor) {
        assert_eq!(cursor.total(), batch.len());
        for (i, want) in batch.iter().enumerate() {
            let got = cursor
                .next_job()
                .unwrap_or_else(|| panic!("cursor ended at {i}"));
            assert_eq!(got.id, want.id, "id at {i}");
            assert_eq!(got.workload.name, want.workload.name, "workload at {i}");
            assert_eq!(got.taxon, want.taxon, "taxon at {i}");
            assert_eq!(
                got.arrival_s.to_bits(),
                want.arrival_s.to_bits(),
                "arrival at {i}"
            );
            assert_eq!(
                got.slo_tightness.to_bits(),
                want.slo_tightness.to_bits(),
                "slo at {i}"
            );
            assert_eq!(got.seed, want.seed, "seed at {i}");
        }
        assert!(cursor.next_job().is_none(), "cursor overruns the stream");
    }

    #[test]
    fn gen_cursor_matches_batch_poisson_and_bursty() {
        let procs = [
            ArrivalProcess::Poisson {
                rate_jobs_per_s: 120.0,
            },
            ArrivalProcess::Bursty {
                rate_jobs_per_s: 150.0,
                burst: 8,
                spread_s: 0.01,
            },
        ];
        for p in procs {
            let batch = p.generate(200, &pool(), InputSize::Test, (3.0, 6.0), 41);
            let mut cur = GenCursor::new(p, 200, &pool(), InputSize::Test, (3.0, 6.0), 41, &[]);
            assert_same_stream(&batch, &mut cur);
        }
    }

    #[test]
    fn gen_cursor_matches_batch_under_traffic_warps() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let traffic = [
            TrafficClause::FlashCrowd {
                from_frac: 0.4,
                to_frac: 0.6,
                factor: 6.0,
            },
            TrafficClause::Diurnal {
                cycles: 2.0,
                depth: 0.7,
                steps: 16,
            },
        ];
        let batch = p.generate_shaped(300, &pool(), InputSize::Test, (3.0, 6.0), 9, &traffic);
        let mut cur = GenCursor::new(p, 300, &pool(), InputSize::Test, (3.0, 6.0), 9, &traffic);
        assert_same_stream(&batch, &mut cur);
    }

    #[test]
    fn gen_cursor_save_load_resumes_exactly() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let batch = p.generate(120, &pool(), InputSize::Test, (3.0, 6.0), 13);
        for cut in [0usize, 1, 37, 119, 120] {
            let mut cur = GenCursor::new(p, 120, &pool(), InputSize::Test, (3.0, 6.0), 13, &[]);
            for _ in 0..cut {
                cur.next_job().unwrap();
            }
            let saved = cur.save();
            let mut resumed = GenCursor::new(p, 120, &pool(), InputSize::Test, (3.0, 6.0), 13, &[]);
            resumed.load(&saved).unwrap();
            assert_same_stream(&batch[cut..], &mut SliceCursor::new(&batch[cut..]));
            for (i, want) in batch[cut..].iter().enumerate() {
                let got = resumed.next_job().unwrap();
                assert_eq!(got.arrival_s.to_bits(), want.arrival_s.to_bits(), "at {i}");
                assert_eq!(got.seed, want.seed);
                assert_eq!(got.id, want.id);
            }
            assert!(resumed.next_job().is_none());
        }
    }

    #[test]
    fn gen_cursor_rejects_impossible_positions() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let mut cur = GenCursor::new(p, 10, &pool(), InputSize::Test, (3.0, 5.0), 1, &[]);
        let mut s = cur.save();
        s.pos = 11;
        assert!(cur.load(&s).is_err());
        let mut s = cur.save();
        s.heap_bits.push(7);
        assert!(cur.load(&s).is_err());
    }

    #[test]
    fn trace_round_trips_losslessly() {
        let p = ArrivalProcess::Bursty {
            rate_jobs_per_s: 150.0,
            burst: 8,
            spread_s: 0.01,
        };
        let batch = p.generate(150, &pool(), InputSize::Test, (3.0, 6.0), 17);
        let dir = std::env::temp_dir().join(format!("astro_trace_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.trace");
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &batch).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let mut cur = TraceCursor::open(&path).unwrap();
        assert_same_stream(&batch, &mut cur);

        // save/load mid-stream.
        let mut cur = TraceCursor::open(&path).unwrap();
        for _ in 0..77 {
            cur.next_job().unwrap();
        }
        let saved = cur.save();
        let mut resumed = TraceCursor::open(&path).unwrap();
        resumed.load(&saved).unwrap();
        for want in &batch[77..] {
            let got = resumed.next_job().unwrap();
            assert_eq!(got.arrival_s.to_bits(), want.arrival_s.to_bits());
            assert_eq!(got.seed, want.seed);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn slice_cursor_is_the_identity_adapter() {
        let p = ArrivalProcess::Poisson {
            rate_jobs_per_s: 50.0,
        };
        let batch = p.generate(20, &pool(), InputSize::Test, (3.0, 5.0), 1);
        let mut cur = SliceCursor::new(&batch);
        assert_eq!(cur.workloads().len(), 2);
        assert_same_stream(&batch, &mut cur);
    }
}
