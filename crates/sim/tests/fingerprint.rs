//! Engine fingerprints: every generator, stepped the way a diagnosis
//! drives it, must emit the same deltas in the same order with the same
//! bits. Each case runs 20 simulated seconds in 250 ms steps with raw
//! capture off, changes two slowdowns and kills the last rank mid-run,
//! and pins the drained event count, the delta count, an FNV-64 over
//! every drained delta in drain order (every field, `seconds` by its
//! bits) and an FNV-64 over the ground-truth totals.
//!
//! A pinned value changes only with a change whose stated purpose is to
//! change what the engine emits; the failure message prints the table
//! to paste over `PINNED`.

use histpc_resources::Fnv64;
use histpc_sim::workloads::{
    OceanWorkload, PoissonVersion, PoissonWorkload, SyntheticWorkload, TesterWorkload,
    WavefrontWorkload, Workload,
};
use histpc_sim::{
    Action, Engine, FuncId, LoopScript, ProcId, ProcessScript, ReqId, SimDuration, SimTime, TagId,
    TotalsKey,
};

/// `(case, events_drained, deltas, fnv over deltas, fnv over totals)`.
const PINNED: &[(&str, u64, u64, u64, u64)] = &[
    (
        "poisson-a",
        538268,
        924,
        0xa72323eb4dadb4a6,
        0xb6400e5a3fefec77,
    ),
    (
        "poisson-b",
        982853,
        931,
        0xadb8f99c5fbc3668,
        0xda00f155d0163b4c,
    ),
    (
        "poisson-c",
        682324,
        1083,
        0x1b007279c6a68f88,
        0xa7355d6939da4ae4,
    ),
    (
        "poisson-d",
        1304671,
        1896,
        0x1978464b31319837,
        0x1decbe048280a59a,
    ),
    ("ocean", 8571, 649, 0xe5d6572f1ae546a8, 0x8587f34fd7415178),
    (
        "tester",
        52570,
        1953,
        0x982a4507f5c3ce7a,
        0x8cd70254888316a1,
    ),
    (
        "wavefront",
        104444,
        945,
        0x084bd38aacb2369b,
        0xb534f24b97bec386,
    ),
    (
        "synthetic-ring-io",
        15272,
        673,
        0x01e7f61a6cc57af5,
        0x079c7730d495c12c,
    ),
    (
        "rendezvous-irecv",
        18563,
        156,
        0xac346b2836d2b1e3,
        0x17eda6ec19f38135,
    ),
];

fn hash_key(h: &mut Fnv64, k: TotalsKey) {
    h.write(&k.proc.0.to_le_bytes());
    h.write(&k.func.0.to_le_bytes());
    h.write(&[k.kind.index() as u8]);
    match k.tag {
        Some(t) => {
            h.write(&[1]);
            h.write(&t.0.to_le_bytes());
        }
        None => h.write(&[0]),
    }
}

fn hash_u64s(h: &mut Fnv64, vs: &[u64]) {
    vs.iter().for_each(|v| h.write(&v.to_le_bytes()));
}

fn hash_totals(e: &Engine) -> u64 {
    let mut h = Fnv64::default();
    let t = e.totals();
    for (k, dur) in t.iter() {
        hash_key(&mut h, k);
        hash_u64s(&mut h, &[dur.as_micros()]);
    }
    for p in 0..e.app().process_count() {
        let p = ProcId(p as u16);
        hash_u64s(&mut h, &[t.proc_end(p).as_micros()]);
        for tag in 0..e.app().tags.len() {
            let tag = TagId(tag as u16);
            hash_u64s(&mut h, &[t.msg_count(p, tag), t.msg_byte_total(p, tag)]);
        }
    }
    h.finish()
}

fn fingerprint(mut e: Engine) -> (u64, u64, u64, u64) {
    let last = ProcId(e.app().process_count() as u16 - 1);
    e.set_raw_capture(false);
    let mut deltas = 0;
    let mut h = Fnv64::default();
    for step in 1..=80u64 {
        match step {
            20 => e.set_slowdown(ProcId(1), 1.7),
            30 => e.set_slowdown(ProcId(0), 1.25),
            40 => e.kill_proc(last),
            _ => {}
        }
        e.run_until(SimTime::from_millis(250 * step));
        for d in e.drain_deltas().deltas {
            hash_key(&mut h, d.key());
            let (s, end) = (d.start.as_micros(), d.end.as_micros());
            hash_u64s(&mut h, &[s, end, d.seconds.to_bits(), d.bytes, d.msgs]);
            deltas += 1;
        }
    }
    (e.events_drained(), deltas, h.finish(), hash_totals(&e))
}

/// Two ranks trading rendezvous-sized messages against posted `Irecv`s:
/// a send that finds a posted receive, an `Irecv` that finds a blocked
/// sender, and waits that complete on both. No shipped generator takes
/// these paths.
fn rendezvous_irecv() -> Engine {
    let wl = SyntheticWorkload::balanced(2, 2, 1.0);
    let (f0, f1, tag, bytes) = (FuncId(0), FuncId(1), TagId(0), 8192);
    let ms = SimDuration::from_millis;
    let p0 = LoopScript::new(None, move |i, acts: &mut Vec<Action>| {
        let req = ReqId(2 * i as u32);
        acts.extend([
            Action::Irecv {
                func: f1,
                from: ProcId(1),
                tag,
                req,
            },
            Action::Compute {
                func: f0,
                dur: ms(1),
            },
            Action::Send {
                func: f1,
                to: ProcId(1),
                tag,
                bytes,
            },
            Action::WaitAll {
                func: f1,
                first: req,
                count: 1,
            },
        ]);
    });
    let p1 = LoopScript::new(None, move |i, acts: &mut Vec<Action>| {
        let req = ReqId(2 * i as u32 + 1);
        acts.extend([
            Action::Compute {
                func: f0,
                dur: ms(3),
            },
            Action::Send {
                func: f1,
                to: ProcId(0),
                tag,
                bytes,
            },
            Action::Irecv {
                func: f1,
                from: ProcId(0),
                tag,
                req,
            },
            Action::Compute {
                func: f0,
                dur: SimDuration::from_micros(500),
            },
            Action::WaitAll {
                func: f1,
                first: req,
                count: 1,
            },
        ]);
    });
    let scripts: Vec<Box<dyn ProcessScript>> = vec![Box::new(p0), Box::new(p1)];
    Engine::new(wl.app_spec(), wl.machine(), scripts)
}

fn cases() -> Vec<(&'static str, Engine)> {
    let poisson = |v| PoissonWorkload::new(v).build_engine();
    vec![
        ("poisson-a", poisson(PoissonVersion::A)),
        ("poisson-b", poisson(PoissonVersion::B)),
        ("poisson-c", poisson(PoissonVersion::C)),
        ("poisson-d", poisson(PoissonVersion::D)),
        ("ocean", OceanWorkload::new().build_engine()),
        ("tester", TesterWorkload::new().build_engine()),
        ("wavefront", WavefrontWorkload::new().build_engine()),
        (
            "synthetic-ring-io",
            SyntheticWorkload::balanced(4, 3, 2.0)
                .with_hotspot(1, 2, 3.0)
                .with_ring(8192)
                .with_io(5, 100_000)
                .build_engine(),
        ),
        ("rendezvous-irecv", rendezvous_irecv()),
    ]
}

#[test]
fn every_generator_emits_its_pinned_deltas() {
    let actual: Vec<_> = cases()
        .into_iter()
        .map(|(name, e)| {
            let (events, deltas, fd, ft) = fingerprint(e);
            (name, events, deltas, fd, ft)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, e, d, fd, ft)| format!("    ({n:?}, {e}, {d}, {fd:#018x}, {ft:#018x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "engine fingerprints moved; now:\n{table}");
}
