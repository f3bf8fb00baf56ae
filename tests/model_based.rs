//! Model-based and failure-injection tests: the simulated structures are
//! checked against simple reference oracles, and error paths are exercised
//! deliberately.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use simcore::{ArchConfig, Cpu, Dep};
use storage::{BufferPool, PageStore};

/// Reference LRU cache: a Vec of line addresses, most-recent last.
struct OracleLru {
    lines: Vec<u64>,
    capacity: usize,
}

impl OracleLru {
    fn access(&mut self, line: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push(line);
            true
        } else {
            if self.lines.len() == self.capacity {
                self.lines.remove(0);
            }
            self.lines.push(line);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fully-associative-equivalent trace (all lines in one set) must
    /// match the reference LRU hit/miss sequence exactly.
    #[test]
    fn cache_matches_oracle_lru(seq in proptest::collection::vec(0u64..16, 1..200)) {
        use simcore::cache::{Cache, Lookup};
        use simcore::CacheConfig;
        // One set, 4 ways: lines must map to the same set, i.e. be
        // congruent modulo set count (1 set ⇒ every line).
        let mut cache = Cache::new(&CacheConfig { size: 4 * 64, ways: 4, latency_cycles: 1 });
        let mut oracle = OracleLru { lines: Vec::new(), capacity: 4 };
        for &line_no in &seq {
            let addr = line_no * 64;
            let got_hit = matches!(cache.access(addr, false), Lookup::Hit { .. });
            if !got_hit {
                cache.fill(addr, false, false);
            }
            let want_hit = oracle.access(line_no);
            prop_assert_eq!(got_hit, want_hit, "divergence at line {}", line_no);
        }
    }

    /// The buffer pool never holds more pages than its capacity, and a
    /// resident page always hits.
    #[test]
    fn buffer_pool_respects_capacity(accesses in proptest::collection::vec(0u32..24, 1..300)) {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut store = PageStore::new(4096);
        let mut pool = BufferPool::new(8 * 4096, 4096);
        let pages: Vec<_> = (0..24).map(|_| store.alloc_page(&mut cpu).unwrap()).collect();
        let mut resident_now: std::collections::HashSet<u32> = Default::default();
        for &a in &accesses {
            let id = pages[a as usize];
            let before = pool.disk_reads;
            pool.access(&mut cpu, &store, id);
            let missed = pool.disk_reads > before;
            if resident_now.contains(&id) {
                prop_assert!(!missed, "resident page {id} missed");
            }
            resident_now.insert(id);
            if resident_now.len() > pool.capacity() {
                // Something was evicted; conservatively rebuild from pool.
                resident_now.retain(|&p| pool.is_resident(p));
            }
            prop_assert!(resident_now.len() <= pool.capacity());
        }
    }

    /// Governor output is always within [min, max], from any state/util.
    #[test]
    fn governor_stays_in_range(cur in 0u8..60, util in 0.0f64..2.0) {
        use simcore::{Governor, PState};
        let g = Governor::new(PState(8), PState(36));
        let next = g.next(PState(cur), util);
        // Rate limiting can keep an out-of-range current near where it was,
        // but a few iterations must converge into range.
        let mut p = next;
        for _ in 0..20 {
            p = g.next(p, util);
        }
        prop_assert!(p.0 >= 8 && p.0 <= 36, "did not converge: {p}");
    }

    /// Chase loads never decrease elapsed cycles, and IPC is bounded by the
    /// widest issue width (4 nops/cycle).
    #[test]
    fn ipc_is_bounded(ops in proptest::collection::vec(0u8..3, 1..200)) {
        use simcore::ExecOp;
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let r = cpu.alloc(1 << 16).unwrap();
        let m = cpu.measure(|c| {
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    0 => c.load(r.addr + (i as u64 * 64) % (1 << 16), Dep::Chase),
                    1 => c.load(r.addr + (i as u64 * 64) % (1 << 16), Dep::Stream),
                    _ => c.exec_n(ExecOp::Nop, 4),
                }
            }
        });
        prop_assert!(m.pmu.ipc() <= 4.01, "IPC {} exceeds issue width", m.pmu.ipc());
        prop_assert!(m.cycles > 0.0);
    }
}

// ---------------------------------------------------------------------
// LSM store against a BTreeMap model
// ---------------------------------------------------------------------

/// One scan must equal the model's `range(from..).take(limit)`.
fn check_scan(
    cpu: &mut Cpu,
    store: &mut nosql::LsmStore,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    from: &[u8],
    limit: usize,
) {
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let from_text = String::from_utf8_lossy(from);
    assert_eq!(
        store.scan(cpu, from, limit),
        want,
        "scan from {from_text:?} limit {limit}"
    );
}

/// Seeded put/delete/flush/compact/scan sequences on 2-4 KB memtables with
/// fanout 2-4, so scans merge the memtable with several overlapping runs:
/// the newest version of a key must win and a deleted key must never show.
/// Each seed ends with the edge cases a random walk may miss: `limit` 0,
/// `from` before the first and past the last key, a range holding only
/// tombstones (in a run and in the memtable), and one key live in the
/// memtable and in every run.
#[test]
fn lsm_scans_match_btreemap_model() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const KEYS: u64 = 96;
    let key = |i: u64| format!("k{i:03}").into_bytes();
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let cfg = nosql::LsmConfig {
            memtable_bytes: rng.gen_range(2..=4u64) * 1024,
            fanout: rng.gen_range(2..=4usize),
            wal_group: 8,
        };
        let mut store = nosql::LsmStore::open(&mut cpu, cfg).unwrap();
        let mut model = BTreeMap::new();
        // An empty store, and the empty run compacting it leaves.
        store.compact(&mut cpu).unwrap();
        check_scan(&mut cpu, &mut store, &model, b"", 10);

        for _ in 0..600 {
            let k = key(rng.gen_range(0..KEYS));
            match rng.gen_range(0..20u32) {
                0..=9 => {
                    let v = vec![rng.gen_range(1..=255u8); rng.gen_range(1..=120usize)];
                    store.put(&mut cpu, &k, &v).unwrap();
                    model.insert(k, v);
                }
                10..=13 => {
                    store.delete(&mut cpu, &k).unwrap();
                    model.remove(&k);
                }
                14 => store.flush(&mut cpu).unwrap(),
                15 => store.compact(&mut cpu).unwrap(),
                _ => {
                    let limit = rng.gen_range(0..=24usize);
                    check_scan(&mut cpu, &mut store, &model, &k, limit);
                }
            }
        }

        check_scan(&mut cpu, &mut store, &model, b"", 0);
        check_scan(&mut cpu, &mut store, &model, b"", KEYS as usize);
        check_scan(&mut cpu, &mut store, &model, b"a", 5);
        check_scan(&mut cpu, &mut store, &model, b"z", 5);

        // Delete the top 16 keys: 8 tombstones land in a run (one run
        // after the compaction, so the flush cannot compact them away),
        // 8 stay in the memtable; older live versions sit below both.
        store.flush(&mut cpu).unwrap();
        store.compact(&mut cpu).unwrap();
        for i in KEYS - 16..KEYS {
            if i == KEYS - 8 {
                store.flush(&mut cpu).unwrap();
            }
            store.delete(&mut cpu, &key(i)).unwrap();
            model.remove(&key(i));
        }
        check_scan(&mut cpu, &mut store, &model, &key(KEYS - 16), 8);
        check_scan(&mut cpu, &mut store, &model, &key(KEYS - 20), 8);

        // One version of one key per run (`fanout` runs, the most that
        // flushing leaves uncompacted), and the newest in the memtable.
        let k = key(KEYS / 2);
        for round in 0..cfg.fanout as u8 {
            let v = vec![b'a' + round; 8];
            store.put(&mut cpu, &k, &v).unwrap();
            model.insert(k.clone(), v);
            store.flush(&mut cpu).unwrap();
            if round == 0 {
                store.compact(&mut cpu).unwrap();
            }
        }
        store.put(&mut cpu, &k, b"newest").unwrap();
        model.insert(k.clone(), b"newest".to_vec());
        check_scan(&mut cpu, &mut store, &model, &k, 1);
        check_scan(&mut cpu, &mut store, &model, &key(KEYS / 2 - 1), 3);
    }
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

#[test]
fn corrupt_slot_is_detected_not_panicking() {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let mut store = PageStore::new(4096);
    let page_id = store.alloc_page(&mut cpu).unwrap();
    let page = store.page(page_id);
    page.insert(&mut cpu, b"hello").unwrap();
    // Corrupt the slot: point the tuple past the page end.
    let slot_addr = page.addr + 4096 - 4;
    cpu.arena_mut()
        .write(slot_addr, &[0xff, 0xff, 0xff, 0xff])
        .unwrap();
    let err = page.read_tuple(&mut cpu, 0, Dep::Stream).unwrap_err();
    assert!(matches!(err, storage::StorageError::Corrupt(_)));
}

#[test]
fn truncated_tuple_bytes_are_detected() {
    use storage::{decode_row, encode_row, Schema, Ty, Value};
    let schema = Schema::new([("a", Ty::Int), ("s", Ty::Str)]);
    let mut buf = Vec::new();
    encode_row(
        &schema,
        &[Value::Int(1), Value::Str("abc".into())],
        &mut buf,
    )
    .unwrap();
    for cut in 1..buf.len() {
        let res = decode_row(&schema, &buf[..cut]);
        assert!(res.is_err(), "decode of {cut}-byte prefix must fail");
    }
}

#[test]
fn arena_exhaustion_surfaces_as_error_not_panic() {
    // A machine with almost no DRAM: loading a table must fail cleanly.
    let mut arch = ArchConfig::intel_i7_4790();
    arch.dram_size = 64 * 1024;
    let mut cpu = Cpu::new(arch);
    let mut db = engines::Database::new(engines::EngineKind::Pg, engines::KnobLevel::Baseline);
    db.create_table(
        "t",
        storage::Schema::new([("k", storage::Ty::Int)]),
        Some("k"),
    )
    .unwrap();
    let rows: Vec<storage::Row> = (0..100_000).map(|i| vec![storage::Value::Int(i)]).collect();
    let err = db.load_rows(&mut cpu, "t", rows);
    assert!(err.is_err(), "loading 100k rows into 64 KB must fail");
}

#[test]
fn unknown_table_and_bad_sql_error_cleanly() {
    let cat = storage::Catalog::new();
    assert!(sqlfe::compile("SELECT * FROM ghost", &cat).is_err());
    assert!(sqlfe::compile("SELEC * FROM t", &cat).is_err());
    assert!(sqlfe::compile("", &cat).is_err());
}

#[test]
fn update_with_wrong_type_is_rejected() {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let mut db = engines::db::demo_database(&mut cpu, engines::EngineKind::Pg).unwrap();
    // items.id is Int; assigning a string must fail the schema check.
    let err = db.session().execute(
        &mut cpu,
        &engines::Dml::Update {
            table: "items".into(),
            filter: None,
            set: vec![(0, storage::Expr::Lit(storage::Value::Str("oops".into())))],
        },
    );
    assert!(err.is_err());
}
