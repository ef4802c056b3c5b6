//! The decode boundary: whatever bytes arrive — a wire frame, a store
//! file, a job spec, a counterexample — `decode_*` answers `Ok` or `Err`,
//! never a panic; and the encoding reference in PROTOCOL.md is the one the
//! codec's tables generate.

use proptest::prelude::*;
use st_campaign::store::{
    decode_generator, decode_outcome, decode_scenario, encode_scenario, encoding_reference,
    OutcomeStore,
};
use st_campaign::{
    CertifyTimely, FdAbi, FdDetector, FleetReplayDrive, GeneratorSpec, Scenario, StopRule, Workload,
};
use st_core::{Json, ProcSet, ProcessId, Schedule, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, SpecRng};

/// The committed fixture (`tests/store_fixture.rs`): every shape the codec
/// writes, so damage lands on every decoder arm.
const GOLDEN: &str = include_str!("golden/store_v2.json");

fn generator(text: &str) -> Result<st_sched::GeneratorSpec, String> {
    decode_generator(&Json::parse(text).unwrap())
}

/// ISSUE 15's two daemon-killers: a process index `ProcessId::new` would
/// assert on, as a scalar member and inside a schedule.
#[test]
fn out_of_range_process_indices_are_errors() {
    let err = generator(r#"{"kind": "Figure1", "p1": 5000, "p2": 1, "q": 2}"#).unwrap_err();
    assert_eq!(err, "field \"p1\": process index 5000 out of range");
    let err = generator(r#"{"kind": "Cycle", "period": [0, 70000]}"#).unwrap_err();
    assert_eq!(err, "field \"period\": process index 70000 out of range");
    let plan = r#"{"kind": "CrashAfter", "inner": {"kind": "Bursty", "burst": 1},
                   "plan": [[1024, 7]]}"#;
    assert!(generator(plan).unwrap_err().contains("out of range"));
    // The largest valid index still decodes.
    assert!(generator(r#"{"kind": "Cycle", "period": [0, 1023]}"#).is_ok());
}

/// A weight past `u32::MAX` used to be truncated by an `as` cast.
#[test]
fn oversized_weights_are_errors_not_truncated() {
    let spec = |w: u64| {
        format!(r#"{{"kind": "SeededRandom", "over": null, "seed_offset": 0, "weights": [{w}]}}"#)
    };
    assert!(generator(&spec(u32::MAX as u64)).is_ok());
    let err = generator(&spec(u32::MAX as u64 + 1)).unwrap_err();
    assert!(err.contains("does not fit u32"), "{err}");
}

/// What `drive_adversarially` and the stack under it assert, a decoded
/// spec is refused for, by field: the trivial `t < k` stack, a `t` no task
/// has, nobody left to run.
#[test]
fn adversarial_specs_that_would_panic_a_worker_are_decode_errors() {
    let adversarial = |n: usize, t: usize, k: usize, precrashed: ProcSet| {
        let scenario = Scenario::new(
            "adv",
            Universe::new(n).unwrap(),
            GeneratorSpec::round_robin(),
            Workload::AdversarialAgreement {
                t,
                k,
                inputs: (0..n as u64).collect(),
                policy: TimeoutPolicy::Increment,
                precrashed,
                witness: None,
            },
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let none = ProcSet::EMPTY;
    assert_eq!(adversarial(4, 2, 2, none), Ok(()));
    assert_eq!(
        adversarial(4, 3, 1, ProcSet::from_indices([1, 2, 3])),
        Ok(())
    );

    let err = adversarial(4, 1, 2, none).unwrap_err();
    assert!(
        err.starts_with("field \"k\": ") && err.contains("k = 2 at t = 1"),
        "{err}"
    );
    let err = adversarial(4, 2, 0, none).unwrap_err();
    assert!(err.starts_with("field \"k\": "), "{err}");
    let err = adversarial(4, 4, 2, none).unwrap_err();
    assert!(
        err.starts_with("field \"t\": ") && err.contains("t = 4 at n = 4"),
        "{err}"
    );
    let err = adversarial(4, 0, 1, none).unwrap_err();
    assert!(err.starts_with("field \"t\": "), "{err}");
    let err = adversarial(3, 1, 1, ProcSet::from_indices([0, 1, 2, 5])).unwrap_err();
    assert!(
        err.starts_with("field \"precrashed\": ") && err.contains("none of the 3"),
        "{err}"
    );
}

/// What `SeededRandom::over`/`with_weights`, `SetTimely::new` and
/// `FlappingTimely::new` assert, a decoded spec is refused for, by field —
/// at the root and under every decorator that builds its child.
#[test]
fn generator_specs_that_would_panic_a_worker_are_decode_errors() {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let decode = |n: usize, generator: GeneratorSpec| {
        let scenario = Scenario::new(
            "gen",
            Universe::new(n).unwrap(),
            generator,
            Workload::LeanConvergence {
                t: 1,
                policy: TimeoutPolicy::Increment,
                drive: FleetReplayDrive::Plain,
            },
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let random = |over: Option<ProcSet>, weights: &[u32]| GeneratorSpec::SeededRandom {
        over,
        seed_offset: 0,
        weights: Some(weights.to_vec()),
    };
    let rr = GeneratorSpec::round_robin;
    let (p, q) = (set(&[0]), set(&[0, 1]));
    let timely = |p, q, bound| GeneratorSpec::set_timely(p, q, bound, rr());
    let flapping = |timely_dwell, untimely_dwell| {
        GeneratorSpec::flapping(p, q, 2, rr(), timely_dwell, untimely_dwell)
    };

    // The valid twins: `|over|` weights or `n`, a zero among them, bound 1
    // with Q ⊆ P, a one-point dwell.
    for valid in [
        random(None, &[1, 0, 2, 1]),
        random(Some(set(&[1, 3])), &[0, 5]),
        timely(p, q, 2),
        timely(q, p, 1),
        flapping((1, 1), (3, u64::MAX)),
    ] {
        assert_eq!(decode(4, valid), Ok(()));
    }

    let refused = |generator: GeneratorSpec, path: &str, detail: &str| {
        let err = decode(4, generator).unwrap_err();
        assert!(err.starts_with(path) && err.contains(detail), "{err}");
    };
    let root = "field \"generator\": field ";
    refused(
        random(None, &[1, 1, 1]),
        &format!("{root}\"weights\""),
        "got 3 for 4",
    );
    refused(
        random(Some(set(&[1, 3])), &[1, 1, 1, 1]),
        &format!("{root}\"weights\""),
        "got 4 for 2",
    );
    refused(
        random(None, &[0; 4]),
        &format!("{root}\"weights\""),
        "positive",
    );
    refused(random(Some(set(&[])), &[]), &format!("{root}\"over\""), "");
    refused(timely(set(&[]), q, 2), &format!("{root}\"p\""), "non-empty");
    refused(timely(p, q, 0), &format!("{root}\"bound\""), "bound = 0");
    refused(timely(p, q, 1), &format!("{root}\"bound\""), "bound = 1");
    refused(
        flapping((0, 5), (1, 5)),
        &format!("{root}\"timely_dwell\""),
        "[0, 5]",
    );
    refused(
        flapping((1, 5), (6, 5)),
        &format!("{root}\"untimely_dwell\""),
        "[6, 5]",
    );

    // Recursively: wherever a child is built, it is held to the same.
    let bad = || timely(p, q, 0);
    let pid = ProcessId::new;
    let plan = || CrashPlan::new().crash(pid(1), 5);
    for (wrapped, under) in [
        (GeneratorSpec::set_timely(p, q, 2, bad()), "filler"),
        (
            GeneratorSpec::flapping(p, q, 2, bad(), (1, 2), (1, 2)),
            "filler",
        ),
        (
            GeneratorSpec::Eventually {
                prefix: Box::new(bad()),
                prefix_len: 10,
                body: Box::new(rr()),
            },
            "prefix",
        ),
        (
            GeneratorSpec::Eventually {
                prefix: Box::new(rr()),
                prefix_len: 10,
                body: Box::new(bad()),
            },
            "body",
        ),
        // `crashed` wraps any spec but a `SetTimely`, whose filler it wraps.
        (timely(p, q, 2).crashed(plan()), ""),
        (random(None, &[1]).crashed(plan()), "inner"),
        (
            GeneratorSpec::set_timely(p, q, 2, random(None, &[1])).crashed(plan()),
            "filler\": field \"inner",
        ),
        (GeneratorSpec::gray_failure(bad(), set(&[0]), 2), "inner"),
        (GeneratorSpec::burst_clog(bad(), pid(0), 4, (1, 2)), "inner"),
        (GeneratorSpec::crash_recovery(bad(), pid(0), 4, 8), "inner"),
    ] {
        if under.is_empty() {
            assert_eq!(decode(4, wrapped), Ok(()));
        } else {
            refused(wrapped, &format!("{root}\"{under}\": field \""), "got");
        }
    }
    // A replay's carried spec is never built, so it is not held to this.
    let replayed = GeneratorSpec::replay(bad(), Schedule::from_indices([0, 1]));
    assert_eq!(decode(4, replayed), Ok(()));
}

/// What `RoundRobin::over`, `BurstyRotation::new`, `BurstClog::new` and
/// `CrashRecovery::new` assert, a decoded spec is refused for, by field —
/// at the root and under a decorator.
#[test]
fn round_robin_bursty_clog_and_recovery_specs_that_would_panic_are_decode_errors() {
    let decode = |generator: GeneratorSpec| {
        let scenario = Scenario::new(
            "gen",
            Universe::new(4).unwrap(),
            generator,
            Workload::LeanConvergence {
                t: 1,
                policy: TimeoutPolicy::Increment,
                drive: FleetReplayDrive::Plain,
            },
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let pid = ProcessId::new;
    let rr = GeneratorSpec::round_robin;
    let over = |ix: &[usize]| GeneratorSpec::RoundRobin {
        over: Some(ProcSet::from_indices(ix.iter().copied())),
    };
    let clog = |window, gap| GeneratorSpec::burst_clog(rr(), pid(0), window, gap);
    let recovery = |crash, rejoin| GeneratorSpec::crash_recovery(rr(), pid(0), crash, rejoin);

    // The valid twins: one member, a burst of one, a one-step window and a
    // one-point gap, an empty outage.
    for valid in [
        over(&[2]),
        GeneratorSpec::bursty(1),
        clog(1, (1, 1)),
        recovery(4, 4),
    ] {
        assert_eq!(decode(valid), Ok(()));
    }

    let root = "field \"generator\": field ";
    for (generator, path, detail) in [
        (over(&[]), "\"over\"", "needs a process"),
        (GeneratorSpec::bursty(0), "\"burst\"", "got 0"),
        (clog(0, (1, 2)), "\"window\"", "got 0"),
        (clog(4, (0, 2)), "\"gap\"", "[0, 2]"),
        (clog(4, (3, 2)), "\"gap\"", "[3, 2]"),
        (recovery(9, 8), "\"crash\"", "crash = 9 > rejoin = 8"),
        (
            GeneratorSpec::crash_recovery(GeneratorSpec::bursty(0), pid(1), 1, 2),
            "\"inner\": field \"burst\"",
            "got 0",
        ),
        (
            GeneratorSpec::burst_clog(over(&[]), pid(1), 1, (1, 1)),
            "\"inner\": field \"over\"",
            "",
        ),
    ] {
        let err = decode(generator).unwrap_err();
        assert!(
            err.starts_with(&format!("{root}{path}: ")) && err.contains(detail),
            "{err}"
        );
    }
}

/// What the timeliness analyzer asserts (a positive bound cap) and what the
/// single-word workloads need (`n ≤ 64`: their process sets, Figure 2 at
/// width one, and the analyzer's subset enumeration), a decoded spec is
/// refused for, by field.
#[test]
fn certification_specs_that_would_panic_a_worker_are_decode_errors() {
    let decode = |n: usize, workload: Workload| {
        let scenario = Scenario::new(
            "cert",
            Universe::new(n).unwrap(),
            GeneratorSpec::round_robin(),
            workload,
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let agreement = |n: usize, cap: usize| Workload::Agreement {
        t: 1,
        k: 1,
        inputs: (0..n as u64).collect(),
        policy: TimeoutPolicy::Increment,
        certify: Some(CertifyTimely {
            i: 1,
            j: 2,
            cap,
            prefix_len: 100,
        }),
    };
    let membership = || Workload::FdConvergence {
        k: 1,
        t: 1,
        policy: TimeoutPolicy::Increment,
        abi: FdAbi::MachineSlot,
        detector: FdDetector::SetBased,
        certify_membership: true,
    };
    let adversarial = |n: usize| Workload::AdversarialAgreement {
        t: 1,
        k: 1,
        inputs: (0..n as u64).collect(),
        policy: TimeoutPolicy::Increment,
        precrashed: ProcSet::EMPTY,
        witness: None,
    };

    // The valid twins: the least cap, and every workload at n = 64.
    assert_eq!(decode(4, agreement(4, 1)), Ok(()));
    assert_eq!(decode(64, agreement(64, 8)), Ok(()));
    assert_eq!(decode(64, membership()), Ok(()));
    assert_eq!(decode(64, adversarial(64)), Ok(()));

    let err = decode(4, agreement(4, 0)).unwrap_err();
    assert!(
        err.starts_with("field \"certify\": field \"cap\": ") && err.contains("got 0"),
        "{err}"
    );
    for (workload, name) in [
        (agreement(65, 8), "Agreement"),
        (membership(), "FdConvergence"),
        (adversarial(65), "AdversarialAgreement"),
    ] {
        let err = decode(65, workload).unwrap_err();
        assert!(
            err.starts_with("field \"n\": ") && err.contains(name) && err.contains("n = 65"),
            "{err}"
        );
    }
}

/// What the protocols' constructors assert, a decoded spec is refused for,
/// by field: an agreement task `AgreementTask::new` refuses, either
/// FD-convergence detector outside `1 ≤ k ≤ t ≤ n − 1`, and a BG reduction
/// simulating nobody, more than 64 processes, or a `k = 0` algorithm. Each
/// has a valid twin that round-trips.
#[test]
fn protocol_parameters_that_would_panic_a_worker_are_decode_errors() {
    let decode = |n: usize, workload: Workload| {
        let scenario = Scenario::new(
            "protocol",
            Universe::new(n).unwrap(),
            GeneratorSpec::round_robin(),
            workload,
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let agreement = |n: usize, t: usize, k: usize| Workload::Agreement {
        t,
        k,
        inputs: (0..n as u64).collect(),
        policy: TimeoutPolicy::Increment,
        certify: None,
    };
    let fd = |k: usize, t: usize, detector: FdDetector| Workload::FdConvergence {
        k,
        t,
        policy: TimeoutPolicy::Increment,
        abi: FdAbi::Async,
        detector,
        certify_membership: false,
    };
    let bg = |n_sim: usize, k: usize| Workload::BgReduction {
        n_sim,
        k,
        max_reads: 8,
    };

    // The valid twins, at the edges of each range.
    assert_eq!(decode(4, agreement(4, 1, 1)), Ok(()));
    assert_eq!(decode(4, agreement(4, 3, 4)), Ok(()));
    for detector in [FdDetector::SetBased, FdDetector::ProcessBased] {
        assert_eq!(decode(4, fd(1, 1, detector)), Ok(()));
        assert_eq!(decode(4, fd(3, 3, detector)), Ok(()));
    }
    assert_eq!(decode(3, bg(1, 1)), Ok(()));
    assert_eq!(decode(3, bg(64, 2)), Ok(()));

    let refused = |n: usize, workload: Workload, path: &str, got: &str| {
        let err = decode(n, workload).unwrap_err();
        assert!(
            err.starts_with(&format!("field \"{path}\": ")) && err.contains(got),
            "{err}"
        );
    };
    refused(4, agreement(4, 0, 1), "t", "t = 0 at n = 4");
    refused(4, agreement(4, 4, 1), "t", "t = 4 at n = 4");
    refused(4, agreement(4, 1, 0), "k", "k = 0 at n = 4");
    refused(4, agreement(4, 1, 5), "k", "k = 5 at n = 4");
    for detector in [FdDetector::SetBased, FdDetector::ProcessBased] {
        refused(4, fd(1, 4, detector), "t", "t = 4 at n = 4");
        refused(4, fd(0, 2, detector), "k", "k = 0 at t = 2");
        refused(4, fd(3, 2, detector), "k", "k = 3 at t = 2");
    }
    refused(3, bg(0, 1), "n_sim", "n_sim = 0");
    refused(3, bg(65, 1), "n_sim", "n_sim = 65");
    refused(3, bg(4, 0), "k", "k = 0");
}

/// An agreement spec with other than one input per process (`build_abi`
/// asserts on it in the worker), and an adversarial witness naming
/// a process outside the universe (it never steps, so the certificate would
/// describe another system), are refused by field.
#[test]
fn foreign_inputs_and_witnesses_are_decode_errors() {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let decode = |workload: Workload| {
        let scenario = Scenario::new(
            "agreement",
            Universe::new(4).unwrap(),
            GeneratorSpec::round_robin(),
            workload,
            1_000,
            0,
        );
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let agreement = |inputs: usize| Workload::Agreement {
        t: 1,
        k: 1,
        inputs: (0..inputs as u64).collect(),
        policy: TimeoutPolicy::Increment,
        certify: None,
    };
    let adversarial =
        |inputs: usize, witness: Option<(ProcSet, ProcSet)>| Workload::AdversarialAgreement {
            t: 2,
            k: 2,
            inputs: (0..inputs as u64).collect(),
            policy: TimeoutPolicy::Increment,
            precrashed: ProcSet::EMPTY,
            witness,
        };

    // The valid twins: n inputs, and witnesses inside Π_4 — the whole of
    // it, and an empty `P`.
    assert_eq!(decode(agreement(4)), Ok(()));
    for witness in [
        None,
        Some((set(&[0, 1, 2]), set(&[0, 1, 2, 3]))),
        Some((ProcSet::EMPTY, set(&[3]))),
    ] {
        assert_eq!(decode(adversarial(4, witness)), Ok(()));
    }

    for (workload, name, got) in [
        (agreement(3), "Agreement", "got 3 at n = 4"),
        (agreement(5), "Agreement", "got 5 at n = 4"),
        (
            adversarial(0, None),
            "AdversarialAgreement",
            "got 0 at n = 4",
        ),
    ] {
        let err = decode(workload).unwrap_err();
        assert!(
            err.starts_with("field \"inputs\": ") && err.contains(name) && err.contains(got),
            "{err}"
        );
    }
    for witness in [(set(&[5]), set(&[0, 1, 2, 3])), (set(&[0]), set(&[0, 7]))] {
        let err = decode(adversarial(4, Some(witness))).unwrap_err();
        assert!(
            err.starts_with("field \"witness\": ") && err.contains("outside the 4"),
            "{err}"
        );
    }
}

/// Specs that used to decode and then panic the worker that ran them — a
/// generator's own constructor, a process outside the universe, a
/// detector's range, a SoA slice of zero steps — or run and silently do
/// nothing (a gray process or a recovery victim outside the universe), are
/// refused by field, naming the value. Each rule has a valid twin at the
/// edge of its range that round-trips.
#[test]
fn specs_that_decoded_and_then_panicked_a_worker_are_decode_errors() {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let pid = ProcessId::new;
    let lean = |t: usize, drive: FleetReplayDrive| Workload::LeanConvergence {
        t,
        policy: TimeoutPolicy::Increment,
        drive,
    };
    let decode = |n: usize, generator: GeneratorSpec, workload: Workload| {
        // Not `Scenario::new`: a refused generator's faulty set may not
        // even be defined.
        let scenario = Scenario {
            label: "refused".into(),
            universe: Universe::new(n).unwrap(),
            generator,
            workload,
            stop: StopRule::BudgetOnly,
            budget: 2_000,
            seed: 0,
            faulty: ProcSet::EMPTY,
        };
        decode_scenario(&encode_scenario(&scenario)).map(|decoded| assert_eq!(decoded, scenario))
    };
    let plain = || lean(1, FleetReplayDrive::Plain);
    let rr = GeneratorSpec::round_robin;
    let figure1 = |p1, p2, q| GeneratorSpec::Figure1 {
        p1: pid(p1),
        p2: pid(p2),
        q: pid(q),
    };
    let generalized = |p: &[usize], q: &[usize]| GeneratorSpec::GeneralizedFigure1 {
        p: set(p),
        q: set(q),
    };
    let starvation = |k, base| GeneratorSpec::RotatingStarvation { k, base };
    let fictitious = |i, j, t, k, base| GeneratorSpec::FictitiousCrash { i, j, t, k, base };
    let cycle = |steps: &[usize]| GeneratorSpec::Cycle {
        period: Schedule::from_indices(steps.iter().copied()),
    };
    let rotation = |groups: &[&[usize]], base| GeneratorSpec::AlternatingRotation {
        groups: groups.iter().map(|g| set(g)).collect(),
        base,
    };
    let gray = |gray: &[usize], stretch| GeneratorSpec::gray_failure(rr(), set(gray), stretch);
    let over = |ix: &[usize]| GeneratorSpec::RoundRobin {
        over: Some(set(ix)),
    };
    let timely = |p: &[usize]| GeneratorSpec::set_timely(set(p), set(&[0, 1]), 3, rr());
    let clog = |clogger| GeneratorSpec::burst_clog(rr(), pid(clogger), 4, (1, 2));
    let recovery = |victim| GeneratorSpec::crash_recovery(rr(), pid(victim), 4, 8);
    let wide = |k: usize, t: usize| Workload::WideFdConvergence {
        k,
        t,
        policy: TimeoutPolicy::Increment,
        drive: FleetReplayDrive::Plain,
    };
    let lean_agreement = |t: usize| Workload::LeanAgreement {
        t,
        policy: TimeoutPolicy::Increment,
        drive: FleetReplayDrive::Plain,
    };
    // Past the trivial algorithm, both agreement stacks hold Figure 2.
    let agreement = |k: usize| Workload::Agreement {
        t: 10,
        k,
        inputs: (0..64).collect(),
        policy: TimeoutPolicy::Increment,
        certify: None,
    };
    let adversarial = |k: usize| Workload::AdversarialAgreement {
        t: 10,
        k,
        inputs: (0..64).collect(),
        policy: TimeoutPolicy::Increment,
        precrashed: ProcSet::EMPTY,
        witness: None,
    };

    // (universe, generator, workload) refused at (path, detail); its twin.
    type Case = (usize, GeneratorSpec, Workload);
    let generator_cases: Vec<(Case, &str, &str, Case)> = vec![
        (
            (4, figure1(0, 0, 2), plain()),
            "p2",
            "p1 = p0, p2 = p0",
            (4, figure1(0, 1, 2), plain()),
        ),
        (
            (4, generalized(&[], &[2]), plain()),
            "p",
            "non-empty",
            (4, generalized(&[0], &[2]), plain()),
        ),
        (
            (4, generalized(&[0, 1], &[1, 2]), plain()),
            "q",
            "disjoint",
            (4, generalized(&[0, 1], &[2, 3]), plain()),
        ),
        (
            (4, starvation(0, 8), plain()),
            "k",
            "k = 0 at n = 4",
            (4, starvation(1, 8), plain()),
        ),
        (
            (4, starvation(4, 8), plain()),
            "k",
            "k = 4 at n = 4",
            (4, starvation(3, 8), plain()),
        ),
        (
            (4, starvation(1, 0), plain()),
            "base",
            "got 0",
            (4, starvation(1, 1), plain()),
        ),
        (
            (4, fictitious(2, 1, 3, 2, 8), plain()),
            "j",
            "i = 2, j = 1",
            (4, fictitious(2, 2, 3, 2, 8), plain()),
        ),
        (
            (4, fictitious(1, 1, 2, 0, 8), plain()),
            "k",
            "k = 0 at t = 2",
            (4, fictitious(1, 1, 2, 1, 8), plain()),
        ),
        (
            (4, fictitious(1, 2, 3, 2, 0), plain()),
            "base",
            "got 0",
            (4, fictitious(1, 2, 3, 2, 1), plain()),
        ),
        (
            (4, fictitious(2, 2, 3, 1, 8), plain()),
            "i",
            "i = 2 > k = 1",
            (4, fictitious(1, 1, 3, 1, 8), plain()),
        ),
        (
            (4, fictitious(1, 4, 2, 1, 8), plain()),
            "j",
            "no adversary exists",
            (4, fictitious(1, 2, 2, 1, 8), plain()),
        ),
        // Theorem 27's construction past the single-word wall: its
        // fictitious set would hold p64.
        (
            (65, fictitious(1, 2, 3, 1, 8), plain()),
            "j",
            "past the process-set capacity",
            (65, fictitious(1, 1, 3, 1, 8), plain()),
        ),
        (
            (4, cycle(&[]), plain()),
            "period",
            "empty",
            (4, cycle(&[3]), plain()),
        ),
        (
            (4, rotation(&[], 8), plain()),
            "groups",
            "at least one group",
            (4, rotation(&[&[0]], 8), plain()),
        ),
        (
            (4, rotation(&[&[0], &[]], 8), plain()),
            "groups",
            "group 1",
            (4, rotation(&[&[0], &[1]], 8), plain()),
        ),
        (
            (4, rotation(&[&[0, 1], &[1, 2]], 8), plain()),
            "groups",
            "disjoint",
            (4, rotation(&[&[0, 1], &[2, 3]], 8), plain()),
        ),
        (
            (4, rotation(&[&[0], &[1]], 0), plain()),
            "base",
            "got 0",
            (4, rotation(&[&[0], &[1]], 1), plain()),
        ),
        (
            (4, gray(&[1], 0), plain()),
            "stretch",
            "got 0",
            (4, gray(&[1], 1), plain()),
        ),
        // A process outside the universe: the worker's "generator
        // schedules stay within the universe" expectation fired …
        (
            (4, figure1(0, 1, 5), plain()),
            "q",
            "names p5",
            (4, figure1(0, 1, 3), plain()),
        ),
        (
            (4, generalized(&[0], &[2, 5]), plain()),
            "q",
            "names p5",
            (4, generalized(&[0], &[2, 3]), plain()),
        ),
        (
            (4, over(&[1, 5]), plain()),
            "over",
            "names p5",
            (4, over(&[1, 3]), plain()),
        ),
        (
            (4, timely(&[5]), plain()),
            "p",
            "names p5",
            (4, timely(&[3]), plain()),
        ),
        (
            (4, clog(4), plain()),
            "clogger",
            "names p4",
            (4, clog(3), plain()),
        ),
        (
            (4, rotation(&[&[0], &[4]], 8), plain()),
            "groups",
            "names p4",
            (4, rotation(&[&[0], &[3]], 8), plain()),
        ),
        (
            (4, cycle(&[0, 4]), plain()),
            "period",
            "names p4",
            (4, cycle(&[0, 3]), plain()),
        ),
        // … or nothing happened at all.
        (
            (4, recovery(4), plain()),
            "victim",
            "names p4",
            (4, recovery(3), plain()),
        ),
        (
            (4, gray(&[6], 2), plain()),
            "gray",
            "names p6",
            (4, gray(&[3], 2), plain()),
        ),
    ];
    let workload_cases: Vec<(Case, &str, &str, Case)> = vec![
        (
            (4, rr(), lean(0, FleetReplayDrive::Plain)),
            "t",
            "t = 0 at n = 4",
            (4, rr(), lean(1, FleetReplayDrive::Plain)),
        ),
        (
            (4, rr(), lean(4, FleetReplayDrive::Plain)),
            "t",
            "t = 4 at n = 4",
            (4, rr(), lean(3, FleetReplayDrive::Plain)),
        ),
        (
            (4, rr(), lean_agreement(0)),
            "t",
            "t = 0 at n = 4",
            (4, rr(), lean_agreement(1)),
        ),
        (
            (4, rr(), lean_agreement(4)),
            "t",
            "t = 4 at n = 4",
            (4, rr(), lean_agreement(3)),
        ),
        (
            (4, rr(), wide(0, 1)),
            "k",
            "k = 0 at t = 1",
            (4, rr(), wide(1, 1)),
        ),
        (
            (4, rr(), wide(2, 1)),
            "k",
            "k = 2 at t = 1",
            (4, rr(), wide(1, 1)),
        ),
        (
            (4, rr(), wide(1, 4)),
            "t",
            "t = 4 at n = 4",
            (4, rr(), wide(3, 3)),
        ),
        (
            (256, rr(), wide(8, 8)),
            "k",
            "C(n,k)·n",
            (256, rr(), wide(1, 8)),
        ),
        (
            (64, rr(), agreement(6)),
            "k",
            "C(n,k)·n",
            (64, rr(), agreement(5)),
        ),
        (
            (64, rr(), adversarial(6)),
            "k",
            "C(n,k)·n",
            (64, rr(), adversarial(5)),
        ),
        (
            (4, rr(), lean(1, FleetReplayDrive::Soa { slice_len: 0 })),
            "drive\": field \"slice_len",
            "got 0",
            (4, rr(), lean(1, FleetReplayDrive::Soa { slice_len: 1 })),
        ),
    ];
    let count = generator_cases.len() + workload_cases.len();
    for (cases, root) in [
        (generator_cases, "field \"generator\": "),
        (workload_cases, ""),
    ] {
        for ((n, generator, workload), path, detail, (tn, tg, tw)) in cases {
            let err = decode(n, generator, workload).unwrap_err();
            assert!(
                err.starts_with(&format!("{root}field \"{path}\": ")) && err.contains(detail),
                "{err}"
            );
            assert_eq!(decode(tn, tg, tw), Ok(()), "the twin of {err}");
        }
    }
    assert_eq!(count, 38);
}

/// Every `"kind"` tag the fixture holds — the pool a tag swap draws from.
fn kinds(j: &Json, out: &mut Vec<String>) {
    match j {
        Json::Arr(items) => items.iter().for_each(|c| kinds(c, out)),
        Json::Obj(members) => {
            for (name, value) in members {
                match value {
                    Json::Str(tag) if name == "kind" => out.push(tag.clone()),
                    other => kinds(other, out),
                }
            }
        }
        _ => {}
    }
}

/// One structural injury to the node `j`.
fn injure(j: &mut Json, kinds: &[String], rng: &mut SpecRng) {
    let pick = |rng: &mut SpecRng, len: usize| rng.below(len as u64) as usize;
    *j = match (rng.below(8), &mut *j) {
        (0, _) => Json::Null,
        (1, _) => Json::str("Bogus"),
        (2, _) => Json::arr([]),
        (3, _) => Json::U64(u64::MAX),
        (4, _) => Json::U64(5_000),
        // Truncate an array.
        (5, Json::Arr(items)) => {
            items.truncate(pick(rng, items.len() + 1));
            return;
        }
        // Drop a member.
        (6, Json::Obj(members)) if !members.is_empty() => {
            members.remove(pick(rng, members.len()));
            return;
        }
        // Swap a kind tag (or plant one where a name was expected).
        (_, Json::Obj(members)) if members.iter().any(|(name, _)| name == "kind") => {
            let tag = kinds[pick(rng, kinds.len())].clone();
            members
                .iter_mut()
                .find(|(name, _)| name == "kind")
                .unwrap()
                .1 = Json::Str(tag);
            return;
        }
        _ => Json::Str(kinds[pick(rng, kinds.len())].clone()),
    };
}

/// Injures the `target`-th node of `j` in preorder; `false` when the tree
/// has fewer nodes.
fn injure_at(
    j: &mut Json,
    next: &mut usize,
    target: usize,
    kinds: &[String],
    rng: &mut SpecRng,
) -> bool {
    if *next == target {
        injure(j, kinds, rng);
        return true;
    }
    *next += 1;
    match j {
        Json::Arr(items) => items
            .iter_mut()
            .any(|c| injure_at(c, next, target, kinds, rng)),
        Json::Obj(members) => members
            .iter_mut()
            .any(|(_, c)| injure_at(c, next, target, kinds, rng)),
        _ => false,
    }
}

fn node_count(j: &Json) -> usize {
    1 + match j {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(members) => members.iter().map(|(_, c)| node_count(c)).sum(),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// ROADMAP's panic-free boundary, item (d), for this layer: valid
    /// documents with one to three random injuries decode to `Ok` or
    /// `Err`. A panic anywhere below fails the case.
    #[test]
    fn damaged_documents_never_panic_a_decoder(seed in any::<u64>()) {
        let mut rng = SpecRng::new(seed);
        let store = Json::parse(GOLDEN).unwrap();
        let mut pool = Vec::new();
        kinds(&store, &mut pool);
        let entries = store.get("entries").and_then(Json::as_arr).unwrap();
        let entry = &entries[rng.below(entries.len() as u64) as usize];
        let mut scenario = entry.get("scenario").unwrap().clone();
        let mut outcome = entry.get("outcome").unwrap().clone();
        let mut whole = store.clone();
        for doc in [&mut scenario, &mut outcome, &mut whole] {
            for _ in 0..rng.range(1, 3) {
                let target = rng.below(node_count(doc) as u64) as usize;
                injure_at(doc, &mut 0, target, &pool, &mut rng);
            }
        }
        let _ = decode_scenario(&scenario);
        let _ = decode_outcome(&outcome);
        let _ = OutcomeStore::from_json_str(&whole.to_string());
    }
}

/// PROTOCOL.md's "Scenario and outcome encoding" reference is generated:
/// the block between its `WIRE-REFERENCE` markers is exactly what the
/// codec's tables render (CI's protocol doc-freshness job runs this test).
#[test]
fn protocol_md_carries_the_generated_encoding_reference() {
    let doc = include_str!("../../../PROTOCOL.md");
    let (begin, end) = (
        "<!-- WIRE-REFERENCE:BEGIN -->\n",
        "<!-- WIRE-REFERENCE:END -->",
    );
    let start = doc.find(begin).expect("BEGIN marker in PROTOCOL.md") + begin.len();
    let len = doc[start..].find(end).expect("END marker in PROTOCOL.md");
    let expected = encoding_reference();
    assert!(
        doc[start..start + len] == expected,
        "PROTOCOL.md's encoding reference is stale; replace the block between the \
         WIRE-REFERENCE markers with:\n{expected}"
    );
}
