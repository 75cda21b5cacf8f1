//! Property-based tests for directive algebra, mapping, the record
//! format, and store crash consistency.

use histpc_consultant::{NodeOutcome, Outcome, PriorityDirective, PriorityLevel, SearchDirectives};
use histpc_history::journal::{JournalEntry, JournalState};
use histpc_history::manifest::{Manifest, ManifestEntry};
use histpc_history::{
    format, frame, intersect, union, ExecutionRecord, ExecutionStore, MappingSet,
};
use histpc_resources::{Focus, ResourceName};
use histpc_sim::SimTime;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per proptest case (cases run many times, so
/// names must not collide within one process).
static STORE_CASE: AtomicUsize = AtomicUsize::new(0);

fn store_scratch() -> std::path::PathBuf {
    let n = STORE_CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("histpc-proptest-store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stages a writer that died tearing `<app>/<label>.record`: its `put`
/// intent left in the journal without an `ok`, and the file cut at
/// `cut` (a fraction of its length, at least one byte short).
fn tear_record(dir: &std::path::Path, app: &str, label: &str, cut: f64) {
    use std::io::Write;
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(histpc_history::journal::JOURNAL_FILE))
        .unwrap();
    writeln!(journal, "put 0000000000000000 record {app} {label}").unwrap();
    let path = dir.join(app).join(format!("{label}.record"));
    let text = std::fs::read_to_string(&path).unwrap();
    let mut at = ((text.len() as f64 * cut) as usize).min(text.len() - 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    std::fs::write(&path, &text[..at]).unwrap();
}

fn stored_record(pairs: usize) -> ExecutionRecord {
    ExecutionRecord {
        app_name: "app".into(),
        app_version: "V".into(),
        label: "r1".into(),
        resources: vec![ResourceName::parse("/Code/a.c/f").unwrap()],
        outcomes: vec![NodeOutcome {
            hypothesis: "CPUbound".into(),
            focus: Focus::whole_program(["Code"]),
            outcome: Outcome::True,
            first_true_at: Some(SimTime(5)),
            concluded_at: Some(SimTime(5)),
            last_value: 0.5,
            samples: 4,
        }],
        thresholds_used: vec![("CPUbound".into(), 0.2)],
        end_time: SimTime(100),
        pairs_tested: pairs,
        unreachable: vec![],
        saturated: vec![],
    }
}

fn segment() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.:-]{0,8}".prop_map(|s| s)
}

fn focus_strategy() -> impl Strategy<Value = Focus> {
    (prop::option::of(segment()), prop::option::of(segment())).prop_map(|(code, proc_)| {
        let mut f = Focus::whole_program(["Code", "Machine", "Process", "SyncObject"]);
        if let Some(c) = code {
            f = f.with_selection(ResourceName::new(["Code".to_string(), c]).unwrap());
        }
        if let Some(p) = proc_ {
            f = f.with_selection(ResourceName::new(["Process".to_string(), p]).unwrap());
        }
        f
    })
}

fn level() -> impl Strategy<Value = PriorityLevel> {
    prop_oneof![Just(PriorityLevel::High), Just(PriorityLevel::Low)]
}

fn hypothesis() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("CPUbound".to_string()),
        Just("ExcessiveSyncWaitingTime".to_string()),
    ]
}

fn directives() -> impl Strategy<Value = SearchDirectives> {
    prop::collection::vec((hypothesis(), focus_strategy(), level()), 0..12).prop_map(|ps| {
        let mut d = SearchDirectives::none();
        for (h, f, l) in ps {
            d.add_priority(PriorityDirective {
                hypothesis: h,
                focus: f,
                level: l,
            });
        }
        d
    })
}

proptest! {
    /// Directive files survive a text round trip exactly.
    #[test]
    fn directive_text_roundtrip(d in directives()) {
        let text = d.to_text();
        let parsed = SearchDirectives::parse(&text).unwrap();
        prop_assert_eq!(parsed.priorities, d.priorities);
    }

    /// A∩B only keeps pairs both agree on; every kept pair exists in A∪B
    /// at an equal-or-promoted level.
    #[test]
    fn intersection_subset_of_union(a in directives(), b in directives()) {
        let i = intersect(&a, &b);
        let u = union(&a, &b);
        prop_assert!(i.priorities.len() <= u.priorities.len());
        for p in &i.priorities {
            let la = a.priority_of(&p.hypothesis, &p.focus);
            let lb = b.priority_of(&p.hypothesis, &p.focus);
            prop_assert_eq!(la, lb);
            prop_assert_eq!(la, p.level);
            let lu = u.priority_of(&p.hypothesis, &p.focus);
            // High stays High; Low may be promoted by the other set.
            if p.level == PriorityLevel::High {
                prop_assert_eq!(lu, PriorityLevel::High);
            } else {
                prop_assert_ne!(lu, PriorityLevel::Medium);
            }
        }
    }

    /// Union is symmetric in the pairs it covers.
    #[test]
    fn union_is_symmetric_in_coverage(a in directives(), b in directives()) {
        let u1 = union(&a, &b);
        let u2 = union(&b, &a);
        let mut k1: Vec<String> = u1.priorities.iter()
            .map(|p| format!("{} {} {:?}", p.hypothesis, p.focus, p.level)).collect();
        let mut k2: Vec<String> = u2.priorities.iter()
            .map(|p| format!("{} {} {:?}", p.hypothesis, p.focus, p.level)).collect();
        k1.sort();
        k2.sort();
        prop_assert_eq!(k1, k2);
    }

    /// High in either input implies High in the union (the paper's rule).
    #[test]
    fn union_high_dominates(a in directives(), b in directives()) {
        let u = union(&a, &b);
        for p in a.priorities.iter().chain(&b.priorities) {
            if p.level == PriorityLevel::High {
                prop_assert_eq!(
                    u.priority_of(&p.hypothesis, &p.focus),
                    PriorityLevel::High
                );
            }
        }
    }

    /// Applying a mapping never panics and leaves non-matching names
    /// unchanged.
    #[test]
    fn mapping_application_is_total(
        names in prop::collection::vec(
            prop::collection::vec(segment(), 1..=3), 1..8),
        from in segment(),
        to in segment(),
    ) {
        let mut m = MappingSet::new();
        m.add(
            ResourceName::new(["Code".to_string(), from.clone()]).unwrap(),
            ResourceName::new(["Code".to_string(), to]).unwrap(),
        );
        for tail in names {
            let mut segs = vec!["Code".to_string()];
            segs.extend(tail);
            let name = ResourceName::new(segs).unwrap();
            let mapped = m.apply_to_name(&name);
            prop_assert_eq!(mapped.hierarchy(), "Code");
            if name.segments().get(1) != Some(&from) {
                prop_assert_eq!(mapped, name);
            }
        }
    }

    /// Mapping files round-trip through text.
    #[test]
    fn mapping_text_roundtrip(pairs in prop::collection::vec((segment(), segment()), 0..8)) {
        let mut m = MappingSet::new();
        for (a, b) in pairs {
            m.add(
                ResourceName::new(["Code".to_string(), a]).unwrap(),
                ResourceName::new(["Code".to_string(), b]).unwrap(),
            );
        }
        let parsed = MappingSet::parse(&m.to_text()).unwrap();
        prop_assert_eq!(parsed, m);
    }

    /// Execution records round-trip through the text format.
    #[test]
    fn record_format_roundtrip(
        outcomes in prop::collection::vec(
            (hypothesis(), focus_strategy(), 0u8..4, 0.0f64..1.0, prop::option::of(0u64..10_000_000)),
            0..10),
        end in 0u64..100_000_000,
        pairs in 0usize..1000,
    ) {
        let rec = ExecutionRecord {
            app_name: "app".into(),
            app_version: "V".into(),
            label: "r1".into(),
            resources: vec![ResourceName::parse("/Code/a.c/f").unwrap()],
            outcomes: outcomes
                .into_iter()
                .map(|(h, f, o, v, t)| {
                    let outcome = match o {
                        0 => Outcome::True,
                        1 => Outcome::False,
                        2 => Outcome::Pruned,
                        _ => Outcome::Untested,
                    };
                    NodeOutcome {
                        hypothesis: h,
                        focus: f,
                        outcome,
                        first_true_at: if outcome == Outcome::True {
                            t.map(SimTime)
                        } else {
                            None
                        },
                        concluded_at: t.map(SimTime),
                        last_value: v,
                        samples: t.unwrap_or(0) % 17,
                    }
                })
                .collect(),
            thresholds_used: vec![("CPUbound".into(), 0.2)],
            end_time: SimTime(end),
            pairs_tested: pairs,
            unreachable: vec![ResourceName::parse("/Machine/n1").unwrap()],
            saturated: vec![ResourceName::parse("/Process/p1").unwrap()],
        };
        let text = format::write_record(&rec);
        let parsed = format::parse_record(&text).unwrap();
        prop_assert_eq!(parsed.outcomes.len(), rec.outcomes.len());
        for (x, y) in parsed.outcomes.iter().zip(&rec.outcomes) {
            prop_assert_eq!(&x.hypothesis, &y.hypothesis);
            prop_assert_eq!(&x.focus, &y.focus);
            prop_assert_eq!(x.outcome, y.outcome);
            prop_assert_eq!(x.first_true_at, y.first_true_at);
            prop_assert_eq!(x.concluded_at, y.concluded_at);
            prop_assert_eq!(x.samples, y.samples);
        }
        prop_assert_eq!(&parsed.unreachable, &rec.unreachable);
        prop_assert_eq!(&parsed.saturated, &rec.saturated);
        prop_assert_eq!(parsed.end_time, rec.end_time);
        prop_assert_eq!(parsed.pairs_tested, rec.pairs_tested);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parsers_never_panic(text in ".{0,200}") {
        let _ = SearchDirectives::parse(&text);
        let _ = MappingSet::parse(&text);
        let _ = format::parse_record(&text);
    }

    /// Checksum framing round-trips any payload, and the decoder is
    /// total on arbitrary input.
    #[test]
    fn frame_roundtrip_and_decode_total(payload in "[ -~\n]{0,300}") {
        let framed = frame::encode(&payload);
        prop_assert_eq!(frame::decode(&framed).unwrap().payload(), payload.as_str());
        let _ = frame::decode(&payload); // must not panic, whatever it is
    }

    /// The tentpole crash-consistency property: tearing a journaled
    /// record write at an arbitrary fraction never lets a parse error
    /// escape `ExecutionStore::open` or `load_all` — the surviving state
    /// is the old record, a salvaged prefix, or a quarantined file — and
    /// after `repair` the store passes `fsck` with zero errors.
    #[test]
    fn torn_record_write_always_recovers(cut in 0.0f64..1.0, pairs in 0usize..1000) {
        let dir = store_scratch();
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&stored_record(pairs)).unwrap();
        tear_record(&dir, "app", "r1", cut);

        let again = ExecutionStore::open(&dir).unwrap();
        let (records, _warnings) = again.load_all_with_warnings("app").unwrap();
        for r in &records {
            prop_assert_eq!(&r.app_name, "app");
            prop_assert_eq!(&r.label, "r1");
        }
        again.repair().unwrap();
        let diags = histpc_history::fsck::fsck(&dir);
        prop_assert!(diags.iter().all(|d| !d.is_error()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The manifest index applied one entry at a time: linear `find` /
/// `retain`, push and re-sort on insert.
#[derive(Default)]
struct LinearManifest {
    entries: Vec<ManifestEntry>,
}

impl LinearManifest {
    fn upsert(&mut self, rel_path: &str, fnv: u64) {
        self.remove(rel_path);
        self.entries.push(ManifestEntry {
            fnv,
            rel_path: rel_path.to_string(),
        });
        // Stable, so that untouched duplicate lines keep their order.
        self.entries.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    }

    fn remove(&mut self, rel_path: &str) {
        self.entries.retain(|e| e.rel_path != rel_path);
    }

    fn lookup(&self, rel_path: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.rel_path == rel_path)
            .map(|e| e.fnv)
    }
}

/// One journal entry: 0 a committed put, 1 a committed delete, 2 a put
/// intent that never got its `ok`.
fn manifest_op() -> impl Strategy<Value = (u8, String, u64)> {
    (0u8..3, "[a-c]/[a-d]{0,2}\\.[rs]", 0u64..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Extending a manifest by a journal in one merge agrees with the
    /// linear reference applying each committed entry in turn: on every
    /// lookup, the entry order, the generation and the bytes of
    /// `to_text()`, starting from a parsed manifest that may hold
    /// duplicate lines. Intents without their `ok` change nothing.
    #[test]
    fn manifest_matches_the_linear_reference(
        seed in prop::collection::vec(("[a-c]/[a-d]{0,2}\\.[rs]", 0u64..4), 0..6),
        ops in prop::collection::vec(manifest_op(), 0..60),
    ) {
        let mut text = String::from("histpc-store v1\ngeneration 3\n");
        for (rel, fnv) in &seed {
            text.push_str(&format!("file {fnv:016x} {rel}\n"));
        }
        let mut fast = Manifest::parse(&text).unwrap();
        let mut slow = LinearManifest {
            entries: fast.entries.clone(),
        };
        let mut journal = JournalState {
            base: Some(3),
            ..JournalState::default()
        };
        for (op, rel, fnv) in &ops {
            let (app, file) = rel.split_once('/').unwrap();
            let (label, ext) = file.rsplit_once('.').unwrap();
            let [ext, app, label] = [ext, app, label].map(str::to_string);
            journal.entries.push(match op {
                1 => JournalEntry::Del { ext, app, label },
                _ => JournalEntry::Put { fnv: *fnv, ext, app, label },
            });
            match op {
                0 => slow.upsert(rel, *fnv),
                1 => slow.remove(rel),
                _ => continue,
            }
            journal.entries.push(JournalEntry::Ok);
        }
        fast.extend(&journal);
        prop_assert_eq!(&fast.entries, &slow.entries);
        let committed = ops.iter().filter(|(op, _, _)| *op < 2).count() as u64;
        prop_assert_eq!(fast.generation, 3 + committed);
        for (_, rel, _) in &ops {
            prop_assert_eq!(fast.lookup(rel), slow.lookup(rel));
        }
        let slow = Manifest {
            generation: fast.generation,
            entries: slow.entries,
        };
        prop_assert_eq!(fast.to_text(), slow.to_text());
    }
}
