//! The timing wrappers must be bit-transparent: a traced trial (timed
//! cursor, timed dispatcher, timed steps, recorder on, a checkpoint
//! taken mid-run) reproduces an untraced trial's fingerprint exactly,
//! and so does the checkpoint → fresh kernel → restore → finish leg.
//! Small configurations of both fleet workload shapes keep it quick.

use astro_perfbench::fleet::{
    checkpoint_leg, fingerprint, traced_trial, trial, FleetWorkload, Setup,
};

/// Above the dispatch-index threshold, two shards fanning out.
static INDEXED: FleetWorkload = FleetWorkload {
    name: "indexed-40",
    boards: 40,
    jobs: 400,
    shards: 2,
    workers: 2,
    utilisation: 0.85,
    chaos: false,
};

/// Below the threshold (scan picks), under the chaos schedule with
/// preemption.
static CHAOS: FleetWorkload = FleetWorkload {
    name: "chaos-10",
    boards: 10,
    jobs: 400,
    shards: 1,
    workers: 1,
    utilisation: 0.7,
    chaos: true,
};

fn assert_transparent(w: &'static FleetWorkload, seed: u64) {
    let s = Setup::new(w, seed);
    let (plain, _) = trial(&s);
    let want = fingerprint(&plain);
    assert_eq!(plain.kernel.arrivals, w.jobs as u64);

    let t = traced_trial(&s);
    assert_eq!(
        fingerprint(&t.out),
        want,
        "{}: wrappers perturbed the run",
        w.name
    );
    let k = &t.out.kernel;
    assert!(
        t.pick_ns.len() as u64 >= k.arrivals - k.dropped,
        "{}: every admitted arrival was picked through the timed dispatcher",
        w.name
    );
    assert!(
        t.pull_ns.len() > w.jobs,
        "{}: every arrival was pulled",
        w.name
    );
    assert!(!t.image.is_empty());
    assert_eq!(
        t.arrival_step_ns.len() + t.control_step_ns.len(),
        t.out.kernel.events as usize - t.out.kernel.completions as usize + 1,
        "{}: one timed step per control event plus the final drain",
        w.name
    );

    assert_eq!(
        fingerprint(&checkpoint_leg(&s)),
        want,
        "{}: checkpoint/restore diverged",
        w.name
    );
}

#[test]
fn wrappers_are_bit_transparent_on_the_indexed_sharded_path() {
    assert_transparent(&INDEXED, 3);
}

#[test]
fn wrappers_are_bit_transparent_on_the_chaos_scan_path() {
    assert_transparent(&CHAOS, 5);
}

#[test]
fn different_seeds_give_different_streams() {
    let a = Setup::new(&CHAOS, 1);
    let b = Setup::new(&CHAOS, 2);
    assert_ne!(fingerprint(&trial(&a).0), fingerprint(&trial(&b).0));
}
