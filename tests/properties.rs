//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, not just the workloads the examples exercise.

mod common;

use ghostdb_bus::Message;
use ghostdb_catalog::TreeSchema;
use ghostdb_flash::{Nand, Volume};
use ghostdb_index::ExternalSorter;
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_types::{
    decode_all, ColumnId, DeviceConfig, RowId, ScalarOp, SimClock, TableId, Value, Wire,
};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1_000_000i32..1_000_000).prop_map(|d| Value::Date(ghostdb_types::Date(d))),
        "[ -~]{0,40}".prop_map(Value::Text),
    ]
}

fn scratch() -> (Volume, RamScope) {
    let device = DeviceConfig::default_2007();
    let volume = Volume::new(Nand::new(device.flash, SimClock::new()));
    let ram = RamBudget::new(device.ram_bytes);
    let scope = RamScope::new(&ram);
    (volume, scope)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The wire codec round-trips arbitrary values.
    #[test]
    fn wire_value_roundtrip(v in value_strategy()) {
        let bytes = v.to_bytes();
        let back: Value = decode_all(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Decoding arbitrary garbage never panics (errors are fine).
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_all::<Value>(&bytes);
        let _ = decode_all::<Message>(&bytes);
        let _ = decode_all::<Vec<RowId>>(&bytes);
        let _ = decode_all::<String>(&bytes);
    }

    /// Bus messages round-trip.
    #[test]
    fn wire_message_roundtrip(
        request in any::<u32>(),
        ids in proptest::collection::vec(any::<u32>(), 0..200),
        done in any::<bool>(),
    ) {
        let m = Message::IdChunk {
            request,
            ids: ids.into_iter().map(RowId).collect(),
            done,
        };
        let back: Message = decode_all(&m.to_bytes()).unwrap();
        prop_assert_eq!(back, m);
    }

    /// The external sorter agrees with std sort at any RAM budget.
    #[test]
    fn external_sort_matches_std(
        mut values in proptest::collection::vec(any::<u32>(), 0..1200),
        sort_ram in 64usize..4096,
    ) {
        let (volume, scope) = scratch();
        let mut sorter: ExternalSorter<u32> =
            ExternalSorter::new(&volume, &scope, sort_ram).unwrap();
        for &v in &values {
            sorter.push(v).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        let mut got = Vec::new();
        while let Some(v) = stream.next_rec().unwrap() {
            got.push(v);
        }
        values.sort_unstable();
        prop_assert_eq!(got, values);
    }

    /// ScalarOp::matches is consistent with the ordering of order keys
    /// for integers (the property the key-range reduction relies on).
    #[test]
    fn order_keys_agree_with_scalar_ops(a in any::<i64>(), b in any::<i64>()) {
        let ka = Value::Int(a).order_key().unwrap();
        let kb = Value::Int(b).order_key().unwrap();
        for op in [ScalarOp::Eq, ScalarOp::Lt, ScalarOp::Le, ScalarOp::Gt, ScalarOp::Ge] {
            let by_value = op.matches(&Value::Int(a), &Value::Int(b)).unwrap();
            let by_key = match op {
                ScalarOp::Eq => ka == kb,
                ScalarOp::Lt => ka < kb,
                ScalarOp::Le => ka <= kb,
                ScalarOp::Gt => ka > kb,
                ScalarOp::Ge => ka >= kb,
            };
            prop_assert_eq!(by_value, by_key, "op {} on {} {}", op, a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The blocked (galloping) merge intersection emits exactly the id
    /// sequence of the scalar id-at-a-time baseline, for arbitrary input
    /// lists.
    #[test]
    fn blocked_merge_matches_scalar(
        lists in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 0..400),
            1..4,
        ),
    ) {
        use ghostdb_exec::{MergeIntersect, ScalarMergeIntersect};
        use ghostdb_types::{collect_ids, IdStream, ScalarFallback, VecIdStream};
        let lists: Vec<Vec<RowId>> = lists
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l.into_iter().map(|v| RowId(v as u32)).collect()
            })
            .collect();
        let blocked_inputs: Vec<Box<dyn IdStream>> = lists
            .iter()
            .map(|l| Box::new(VecIdStream::new(l.clone())) as Box<dyn IdStream>)
            .collect();
        let scalar_inputs: Vec<Box<dyn IdStream>> = lists
            .iter()
            .map(|l| {
                Box::new(ScalarFallback(VecIdStream::new(l.clone()))) as Box<dyn IdStream>
            })
            .collect();
        let mut blocked = MergeIntersect::new(blocked_inputs, SimClock::new(), 1);
        let mut scalar = ScalarMergeIntersect::new(scalar_inputs, SimClock::new(), 1);
        prop_assert_eq!(
            collect_ids(&mut blocked).unwrap(),
            collect_ids(&mut scalar).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random two-level tree data: the full engine (best plan) agrees
    /// with the naive reference on random range predicates over a hidden
    /// and a visible column.
    #[test]
    fn random_tree_engine_matches_reference(
        seed in any::<u64>(),
        children in 4usize..40,
        fanout in 1usize..8,
        hidden_cut in 0i64..100,
        visible_cut in 0i64..100,
    ) {
        use ghostdb_storage::Dataset;
        const DDL: &str = "\
            CREATE TABLE Child (
              cid INTEGER PRIMARY KEY,
              vis INTEGER,
              hid INTEGER HIDDEN);
            CREATE TABLE Root (
              rid INTEGER PRIMARY KEY,
              amt INTEGER HIDDEN,
              cid REFERENCES Child(cid) HIDDEN);";
        let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
        let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
        let mut data = Dataset::empty(&schema);
        // Simple deterministic pseudo-random fill from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for i in 0..children as i64 {
            data.push_row(
                TableId(0),
                vec![Value::Int(i), Value::Int(next() % 100), Value::Int(next() % 100)],
            ).unwrap();
        }
        let roots = children * fanout;
        for i in 0..roots as i64 {
            data.push_row(
                TableId(1),
                vec![
                    Value::Int(i),
                    Value::Int(next() % 100),
                    Value::Int(next().rem_euclid(children as i64)),
                ],
            ).unwrap();
        }
        let db = ghostdb::GhostDb::create(DDL, DeviceConfig::default_2007(), &data).unwrap();
        let sql = format!(
            "SELECT Root.rid, Child.hid FROM Root, Child \
             WHERE Child.hid >= {hidden_cut} AND Child.vis < {visible_cut} \
               AND Root.cid = Child.cid"
        );
        let out = db.query(&sql).unwrap();
        let spec = db.bind(&sql).unwrap();
        let tree = TreeSchema::analyze(db.schema()).unwrap();
        let expect = ghostdb_workload::reference_execute(
            db.schema(), &tree, &data, spec.anchor, &spec.projections, &spec.predicates,
        ).unwrap();
        prop_assert_eq!(out.rows.rows, expect);
        let _ = ColumnId(0);
    }
}

mod insert_equivalence {
    //! The write path's ground truth (PR 3 acceptance): a query issued
    //! after N post-load inserts returns exactly the rows the same query
    //! returns on a fresh `GhostDb::create` whose initial dataset
    //! contains those rows — across random insert batches, before and
    //! after a forced delta flush/merge, on every enumerated plan and
    //! both pipeline modes (so the blocked/scalar equivalence is also
    //! proven on datasets containing un-flushed deltas).

    use super::common::{assert_snapshot_matches, child_row, root_row};
    use ghostdb::GhostDb;
    use ghostdb_storage::Dataset;
    use ghostdb_types::{DeviceConfig, TableId};
    use proptest::prelude::*;

    const DDL: &str = "\
        CREATE TABLE Child (
          cid INTEGER PRIMARY KEY,
          vis INTEGER,
          hid INTEGER HIDDEN,
          tag CHAR(12) HIDDEN);
        CREATE TABLE Root (
          rid INTEGER PRIMARY KEY,
          amt INTEGER HIDDEN,
          cid REFERENCES Child(cid) HIDDEN);";

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        #[test]
        fn inserted_and_fresh_loaded_agree(
            seed in any::<u64>(),
            base_children in 3usize..12,
            base_roots in 5usize..30,
            ins_children in 1usize..6,
            ins_roots in 1usize..12,
            hidden_cut in 0i64..50,
            tag_pick in 0usize..12,
        ) {
            let mut state = seed | 1;
            let mut next = move || -> i64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64
            };
            let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
            let schema = ghostdb_sql::bind_schema(&stmts).unwrap();

            // Base load.
            let mut base = Dataset::empty(&schema);
            for i in 0..base_children as i64 {
                base.push_row(TableId(0), child_row(i, &mut next, 6)).unwrap();
            }
            for i in 0..base_roots as i64 {
                base.push_row(TableId(1), root_row(i, base_children as i64, &mut next)).unwrap();
            }
            // Random insert batches (a larger tag pool than the base
            // used, so some strings are outside the base dictionary).
            let mut child_batch = Vec::new();
            for i in 0..ins_children as i64 {
                child_batch.push(child_row(base_children as i64 + i, &mut next, 12));
            }
            let total_children = (base_children + ins_children) as i64;
            let mut root_batch = Vec::new();
            for i in 0..ins_roots as i64 {
                root_batch.push(root_row(base_roots as i64 + i, total_children, &mut next));
            }

            // Post-load inserts (auto-flush disabled: the test forces
            // the flush at a known point instead).
            let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
            let mut db = GhostDb::create(DDL, config.clone(), &base).unwrap();
            db.insert_rows(TableId(0), child_batch.clone()).unwrap();
            db.insert_rows(TableId(1), root_batch.clone()).unwrap();
            prop_assert_eq!(db.delta_rows(), (ins_children + ins_roots) as u64);

            // The same rows in the initial dataset.
            let mut full = base.clone();
            for r in &child_batch {
                full.push_row(TableId(0), r.clone()).unwrap();
            }
            for r in &root_batch {
                full.push_row(TableId(1), r.clone()).unwrap();
            }
            let fresh = GhostDb::create(DDL, config, &full).unwrap();

            let queries = [
                format!(
                    "SELECT Root.rid, Child.tag FROM Root, Child \
                     WHERE Child.tag = 'tag-{tag_pick}' AND Root.cid = Child.cid"
                ),
                format!(
                    "SELECT Root.rid, Child.hid FROM Root, Child \
                     WHERE Child.hid >= {hidden_cut} AND Child.vis < 40 \
                       AND Root.cid = Child.cid"
                ),
                "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'".to_string(),
                format!("SELECT Root.rid FROM Root WHERE Root.amt <= {hidden_cut}"),
            ];
            for phase in ["unflushed", "flushed"] {
                for sql in &queries {
                    let expect = fresh.query(sql).unwrap().rows.rows;
                    let spec = db.bind(sql).unwrap();
                    for cp in db.plans(sql).unwrap() {
                        let blocked = db.run(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &blocked.rows.rows, &expect,
                            "{}/blocked plan {}: {}", phase, cp.plan.label, sql
                        );
                        let scalar = db.run_scalar(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &scalar.rows.rows, &expect,
                            "{}/scalar plan {}: {}", phase, cp.plan.label, sql
                        );
                        assert_snapshot_matches(&db, &spec, &cp.plan);
                    }
                }
                if phase == "unflushed" {
                    prop_assert_eq!(
                        db.flush_deltas().unwrap(),
                        (ins_children + ins_roots) as u64
                    );
                    prop_assert_eq!(db.delta_rows(), 0);
                }
            }
        }
    }
}

mod mutation_equivalence {
    //! The full-DML ground truth (PR 5 acceptance): after any random
    //! interleaving of insert/delete/update batches, every enumerated
    //! plan on either pipeline returns exactly what the same query
    //! returns on a fresh `GhostDb::create` of **the surviving rows** —
    //! survivors renumbered dense, foreign keys re-pointed, updated
    //! values in place (`Vec::remove` semantics). Held in three states:
    //! tombstone-resident (before any flush), physically compacted
    //! (after `flush_deltas`), and across a seal → power-cut → mount
    //! (mutations committed after the seal replay from the WAL).

    use super::common::assert_snapshot_matches;
    use ghostdb::GhostDb;
    use ghostdb_storage::Dataset;
    use ghostdb_types::{ColumnId, DeviceConfig, RowId, TableId, Value};
    use proptest::prelude::*;

    const DDL: &str = "\
        CREATE TABLE Child (
          cid INTEGER PRIMARY KEY,
          vis INTEGER,
          hid INTEGER HIDDEN,
          tag CHAR(12) HIDDEN);
        CREATE TABLE Root (
          rid INTEGER PRIMARY KEY,
          amt INTEGER HIDDEN,
          cid REFERENCES Child(cid) HIDDEN);";

    /// Host-side oracle: plain vectors mutated with `Vec::remove`
    /// semantics — exactly the logical view the engine must expose.
    #[derive(Clone, Default)]
    struct Mirror {
        /// (vis, hid, tag) per live child, dense.
        children: Vec<(i64, i64, String)>,
        /// (amt, cid) per live root, dense; cid indexes `children`.
        roots: Vec<(i64, i64)>,
    }

    impl Mirror {
        fn dataset(&self, schema: &ghostdb_catalog::Schema) -> Dataset {
            let mut d = Dataset::empty(schema);
            for (i, (vis, hid, tag)) in self.children.iter().enumerate() {
                d.push_row(
                    TableId(0),
                    vec![
                        Value::Int(i as i64),
                        Value::Int(*vis),
                        Value::Int(*hid),
                        Value::Text(tag.clone()),
                    ],
                )
                .unwrap();
            }
            for (i, (amt, cid)) in self.roots.iter().enumerate() {
                d.push_row(
                    TableId(1),
                    vec![Value::Int(i as i64), Value::Int(*amt), Value::Int(*cid)],
                )
                .unwrap();
            }
            d
        }

        fn referenced(&self, cid: i64) -> bool {
            self.roots.iter().any(|(_, c)| *c == cid)
        }
    }

    /// Apply `steps` random mutation batches to both the engine and the
    /// mirror.
    fn mutate(
        db: &mut GhostDb,
        mirror: &mut Mirror,
        next: &mut impl FnMut() -> i64,
        steps: usize,
        tags: usize,
    ) {
        for _ in 0..steps {
            match next().rem_euclid(6) {
                // Insert children.
                0 => {
                    let n = 1 + next().rem_euclid(3) as usize;
                    let start = mirror.children.len();
                    let mut batch = Vec::new();
                    for k in 0..n {
                        let (vis, hid) = (next() % 50, next() % 50);
                        let tag = format!("tag-{}", next().rem_euclid(tags as i64));
                        batch.push(vec![
                            Value::Int((start + k) as i64),
                            Value::Int(vis),
                            Value::Int(hid),
                            Value::Text(tag.clone()),
                        ]);
                        mirror.children.push((vis, hid, tag));
                    }
                    db.insert_rows(TableId(0), batch).unwrap();
                }
                // Insert roots.
                1 => {
                    if mirror.children.is_empty() {
                        continue;
                    }
                    let n = 1 + next().rem_euclid(4) as usize;
                    let start = mirror.roots.len();
                    let mut batch = Vec::new();
                    for k in 0..n {
                        let amt = next() % 50;
                        let cid = next().rem_euclid(mirror.children.len() as i64);
                        batch.push(vec![
                            Value::Int((start + k) as i64),
                            Value::Int(amt),
                            Value::Int(cid),
                        ]);
                        mirror.roots.push((amt, cid));
                    }
                    db.insert_rows(TableId(1), batch).unwrap();
                }
                // Delete roots (freely: nothing references the root).
                2 => {
                    if mirror.roots.is_empty() {
                        continue;
                    }
                    let mut picks: Vec<u32> = (0..1 + next().rem_euclid(3))
                        .map(|_| next().rem_euclid(mirror.roots.len() as i64) as u32)
                        .collect();
                    picks.sort_unstable();
                    picks.dedup();
                    db.delete_rows(TableId(1), picks.iter().map(|&r| RowId(r)).collect())
                        .unwrap();
                    for &r in picks.iter().rev() {
                        mirror.roots.remove(r as usize);
                    }
                }
                // Delete one unreferenced child (RESTRICT-safe).
                3 => {
                    let free: Vec<usize> = (0..mirror.children.len())
                        .filter(|&c| !mirror.referenced(c as i64))
                        .collect();
                    if free.is_empty() {
                        continue;
                    }
                    let c = free[next().rem_euclid(free.len() as i64) as usize];
                    db.delete_rows(TableId(0), vec![RowId(c as u32)]).unwrap();
                    mirror.children.remove(c);
                    for (_, cid) in mirror.roots.iter_mut() {
                        assert_ne!(*cid, c as i64, "picked a referenced child");
                        if *cid > c as i64 {
                            *cid -= 1;
                        }
                    }
                }
                // Update a child: visible vis + hidden tag (dict strings,
                // sometimes outside every dictionary so far).
                4 => {
                    if mirror.children.is_empty() {
                        continue;
                    }
                    let c = next().rem_euclid(mirror.children.len() as i64) as usize;
                    let vis = next() % 50;
                    let tag = format!("tag-{}", next().rem_euclid((2 * tags) as i64));
                    db.update_rows(
                        TableId(0),
                        vec![RowId(c as u32)],
                        vec![
                            (ColumnId(1), Value::Int(vis)),
                            (ColumnId(3), Value::Text(tag.clone())),
                        ],
                    )
                    .unwrap();
                    mirror.children[c].0 = vis;
                    mirror.children[c].2 = tag;
                }
                // Update hidden integers on a couple of roots.
                _ => {
                    if mirror.roots.is_empty() {
                        continue;
                    }
                    let mut picks: Vec<u32> = (0..1 + next().rem_euclid(2))
                        .map(|_| next().rem_euclid(mirror.roots.len() as i64) as u32)
                        .collect();
                    picks.sort_unstable();
                    picks.dedup();
                    let amt = next() % 50;
                    db.update_rows(
                        TableId(1),
                        picks.iter().map(|&r| RowId(r)).collect(),
                        vec![(ColumnId(1), Value::Int(amt))],
                    )
                    .unwrap();
                    for &r in &picks {
                        mirror.roots[r as usize].0 = amt;
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

        #[test]
        fn mutated_and_fresh_loaded_agree(
            seed in any::<u64>(),
            base_children in 3usize..10,
            base_roots in 6usize..24,
            steps in 4usize..14,
            hidden_cut in 0i64..50,
            tag_pick in 0usize..12,
        ) {
            let mut state = seed | 1;
            let mut next = move || -> i64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64
            };
            let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
            let schema = ghostdb_sql::bind_schema(&stmts).unwrap();

            // Base load.
            let mut mirror = Mirror::default();
            for _ in 0..base_children {
                let (vis, hid) = (next() % 50, next() % 50);
                let tag = format!("tag-{}", next().rem_euclid(6));
                mirror.children.push((vis, hid, tag));
            }
            for _ in 0..base_roots {
                let amt = next() % 50;
                let cid = next().rem_euclid(mirror.children.len() as i64);
                mirror.roots.push((amt, cid));
            }
            let base = mirror.dataset(&schema);
            let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
            let mut db = GhostDb::create(DDL, config.clone(), &base).unwrap();

            // Random interleaved mutations.
            mutate(&mut db, &mut mirror, &mut next, steps, 6);

            let queries = [
                format!(
                    "SELECT Root.rid, Child.tag FROM Root, Child \
                     WHERE Child.tag = 'tag-{tag_pick}' AND Root.cid = Child.cid"
                ),
                format!(
                    "SELECT Root.rid, Child.hid FROM Root, Child \
                     WHERE Child.hid >= {hidden_cut} AND Child.vis < 40 \
                       AND Root.cid = Child.cid"
                ),
                "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'".to_string(),
                format!("SELECT Root.rid, Root.cid FROM Root WHERE Root.amt <= {hidden_cut}"),
            ];
            let check = |db: &GhostDb, oracle: &GhostDb, phase: &str| {
                for sql in &queries {
                    let expect = oracle.query(sql).unwrap().rows.rows;
                    let spec = db.bind(sql).unwrap();
                    for cp in db.plans(sql).unwrap() {
                        let blocked = db.run(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &blocked.rows.rows, &expect,
                            "{}/blocked plan {}: {}", phase, cp.plan.label, sql
                        );
                        let scalar = db.run_scalar(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &scalar.rows.rows, &expect,
                            "{}/scalar plan {}: {}", phase, cp.plan.label, sql
                        );
                        assert_snapshot_matches(db, &spec, &cp.plan);
                    }
                }
            };

            // Phase 1: tombstone-resident (no flush has run).
            let fresh = GhostDb::create(DDL, config.clone(), &mirror.dataset(&schema)).unwrap();
            prop_assert_eq!(db.stats().rows(TableId(0)), mirror.children.len() as u64);
            prop_assert_eq!(db.stats().rows(TableId(1)), mirror.roots.len() as u64);
            check(&db, &fresh, "tombstone-resident");

            // Phase 2: physically compacted.
            db.flush_deltas().unwrap();
            prop_assert_eq!(db.delta_rows(), 0);
            check(&db, &fresh, "compacted");

            // Phase 3: seal, mutate again (WAL-resident), power-cut,
            // mount — the replayed state must match the updated mirror.
            db.seal().unwrap();
            mutate(&mut db, &mut mirror, &mut next, steps / 2 + 1, 6);
            let nand = db.nand().clone();
            drop(db);
            let db = GhostDb::mount(nand, config.clone()).unwrap();
            let fresh = GhostDb::create(DDL, config, &mirror.dataset(&schema)).unwrap();
            prop_assert_eq!(db.stats().rows(TableId(0)), mirror.children.len() as u64);
            prop_assert_eq!(db.stats().rows(TableId(1)), mirror.roots.len() as u64);
            check(&db, &fresh, "wal-replayed");
        }
    }
}

mod seal_mount_equivalence {
    //! The durability subsystem's ground truth (PR 4 acceptance): a
    //! database sealed to flash, "unplugged" (dropped), and remounted
    //! from the NAND alone answers every query exactly like a fresh
    //! `GhostDb::create` of the same content — across random insert
    //! batches committed *after* the seal (so they exist only in the
    //! WAL and must replay), every enumerated plan, both pipeline
    //! modes, and again after the replayed deltas are flushed (which
    //! re-seals) and the key is power-cycled a second time.

    use super::common::{child_row, root_row};
    use ghostdb::GhostDb;
    use ghostdb_storage::Dataset;
    use ghostdb_types::{DeviceConfig, TableId};
    use proptest::prelude::*;

    const DDL: &str = "\
        CREATE TABLE Child (
          cid INTEGER PRIMARY KEY,
          vis INTEGER,
          hid INTEGER HIDDEN,
          tag CHAR(12) HIDDEN);
        CREATE TABLE Root (
          rid INTEGER PRIMARY KEY,
          amt INTEGER HIDDEN,
          cid REFERENCES Child(cid) HIDDEN);";

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        #[test]
        fn sealed_mounted_and_fresh_loaded_agree(
            seed in any::<u64>(),
            base_children in 3usize..10,
            base_roots in 5usize..24,
            ins_children in 1usize..5,
            ins_roots in 1usize..8,
            hidden_cut in 0i64..50,
            tag_pick in 0usize..12,
        ) {
            let mut state = seed | 1;
            let mut next = move || -> i64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64
            };
            let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
            let schema = ghostdb_sql::bind_schema(&stmts).unwrap();

            let mut base = Dataset::empty(&schema);
            for i in 0..base_children as i64 {
                base.push_row(TableId(0), child_row(i, &mut next, 6)).unwrap();
            }
            for i in 0..base_roots as i64 {
                base.push_row(TableId(1), root_row(i, base_children as i64, &mut next)).unwrap();
            }
            let mut child_batch = Vec::new();
            for i in 0..ins_children as i64 {
                child_batch.push(child_row(base_children as i64 + i, &mut next, 12));
            }
            let total_children = (base_children + ins_children) as i64;
            let mut root_batch = Vec::new();
            for i in 0..ins_roots as i64 {
                root_batch.push(root_row(base_roots as i64 + i, total_children, &mut next));
            }

            // Seal the base, then insert: the batches live only in the
            // flash WAL (and RAM deltas the unplug below discards).
            let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
            let mut db = GhostDb::create(DDL, config.clone(), &base).unwrap();
            db.seal().unwrap();
            db.insert_rows(TableId(0), child_batch.clone()).unwrap();
            db.insert_rows(TableId(1), root_batch.clone()).unwrap();

            // The same content as one initial dataset (the oracle).
            let mut full = base.clone();
            for r in &child_batch {
                full.push_row(TableId(0), r.clone()).unwrap();
            }
            for r in &root_batch {
                full.push_row(TableId(1), r.clone()).unwrap();
            }
            let fresh = GhostDb::create(DDL, config.clone(), &full).unwrap();

            // Unplug and remount: base from metadata segments, inserts
            // from WAL replay.
            let nand = db.nand().clone();
            drop(db);
            let mut db = GhostDb::mount(nand, config.clone()).unwrap();
            prop_assert_eq!(db.delta_rows(), (ins_children + ins_roots) as u64);

            let queries = [
                format!(
                    "SELECT Root.rid, Child.tag FROM Root, Child \
                     WHERE Child.tag = 'tag-{tag_pick}' AND Root.cid = Child.cid"
                ),
                format!(
                    "SELECT Root.rid, Child.hid FROM Root, Child \
                     WHERE Child.hid >= {hidden_cut} AND Child.vis < 40 \
                       AND Root.cid = Child.cid"
                ),
                "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'".to_string(),
                format!("SELECT Root.rid FROM Root WHERE Root.amt <= {hidden_cut}"),
            ];
            let check = |db: &GhostDb, phase: &str| {
                for sql in &queries {
                    let expect = fresh.query(sql).unwrap().rows.rows;
                    let spec = db.bind(sql).unwrap();
                    for cp in db.plans(sql).unwrap() {
                        let blocked = db.run(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &blocked.rows.rows, &expect,
                            "{}/blocked plan {}: {}", phase, cp.plan.label, sql
                        );
                        let scalar = db.run_scalar(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &scalar.rows.rows, &expect,
                            "{}/scalar plan {}: {}", phase, cp.plan.label, sql
                        );
                    }
                }
            };
            check(&db, "wal-replayed");

            // Flush (re-seals under a new epoch), power-cycle again:
            // this time everything mounts from the metadata segments.
            prop_assert_eq!(db.flush_deltas().unwrap(), (ins_children + ins_roots) as u64);
            let nand = db.nand().clone();
            drop(db);
            let db = GhostDb::mount(nand, config).unwrap();
            prop_assert_eq!(db.delta_rows(), 0);
            check(&db, "flushed-resealed");
        }
    }
}

mod aggregate_equivalence {
    //! The analytic surface's ground truth (PR 7 acceptance): random
    //! aggregate/range/ORDER BY/LIMIT queries must agree with a
    //! host-side reference — an independent reimplementation of the
    //! documented epilogue semantics (`docs/SQL.md`: first-seen group
    //! order, stable sort, truncating AVG, COUNT-only zero-group rule)
    //! applied to the rows the *plain* form of the same query returns.
    //! Checked across every enumerated plan, both pipelines, in the
    //! tombstone-resident state after random deletes, and again after
    //! the physical flush.

    use std::cmp::Ordering;
    use std::collections::HashMap;

    use ghostdb::GhostDb;
    use ghostdb_storage::Dataset;
    use ghostdb_types::{DeviceConfig, TableId, Value};
    use proptest::prelude::*;

    const DDL: &str = "\
        CREATE TABLE Child (
          cid INTEGER PRIMARY KEY,
          vis INTEGER,
          hid INTEGER HIDDEN,
          tag CHAR(12) HIDDEN);
        CREATE TABLE Root (
          rid INTEGER PRIMARY KEY,
          amt INTEGER HIDDEN,
          cid REFERENCES Child(cid) HIDDEN);";

    /// One SELECT item of the host reference, indexing the base
    /// (pre-epilogue) projection row.
    #[derive(Clone, Copy)]
    enum Item {
        Col(usize),
        Count,
        Sum(usize),
        Avg(usize),
        Min(usize),
        Max(usize),
    }

    struct Case {
        /// The analytic statement under test.
        analytic: String,
        /// Its plain SPJ core: same FROM/WHERE, projecting the base
        /// columns `Item` indexes refer to — the engine's own (already
        /// reference-proven) row stream defines arrival order.
        base: String,
        output: Vec<Item>,
        group_by: Vec<usize>,
        /// `(output item, desc)` sort keys.
        order_by: Vec<(usize, bool)>,
        limit: Option<usize>,
    }

    /// Host-side reimplementation of the epilogue semantics.
    fn host_epilogue(rows: &[Vec<Value>], case: &Case) -> Vec<Vec<Value>> {
        let has_agg = case.output.iter().any(|i| !matches!(i, Item::Col(_)));
        let mut out: Vec<(Vec<Value>, usize)> = Vec::new();
        if has_agg || !case.group_by.is_empty() {
            let mut idx: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut groups: Vec<Vec<&Vec<Value>>> = Vec::new();
            for r in rows {
                let key: Vec<Value> = case.group_by.iter().map(|&i| r[i].clone()).collect();
                let gi = *idx.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(r);
            }
            if groups.is_empty() && case.group_by.is_empty() {
                if case.output.iter().all(|i| matches!(i, Item::Count)) {
                    out.push((vec![Value::Int(0); case.output.len()], 0));
                }
            } else {
                for (gi, g) in groups.iter().enumerate() {
                    let row = case
                        .output
                        .iter()
                        .map(|item| match item {
                            Item::Col(i) => g[0][*i].clone(),
                            Item::Count => Value::Int(g.len() as i64),
                            Item::Sum(i) => {
                                Value::Int(g.iter().map(|r| r[*i].as_int().unwrap()).sum::<i64>())
                            }
                            Item::Avg(i) => {
                                let s: i128 =
                                    g.iter().map(|r| r[*i].as_int().unwrap() as i128).sum();
                                Value::Int((s / g.len() as i128) as i64)
                            }
                            Item::Min(i) => g
                                .iter()
                                .map(|r| r[*i].clone())
                                .min_by(|a, b| a.cmp_same_type(b).unwrap())
                                .unwrap(),
                            Item::Max(i) => g
                                .iter()
                                .map(|r| r[*i].clone())
                                .max_by(|a, b| a.cmp_same_type(b).unwrap())
                                .unwrap(),
                        })
                        .collect();
                    out.push((row, gi));
                }
            }
        } else {
            for (ri, r) in rows.iter().enumerate() {
                let row = case
                    .output
                    .iter()
                    .map(|item| match item {
                        Item::Col(i) => r[*i].clone(),
                        _ => unreachable!("aggregate without fold"),
                    })
                    .collect();
                out.push((row, ri));
            }
        }
        if !case.order_by.is_empty() {
            out.sort_by(|a, b| {
                for &(i, desc) in &case.order_by {
                    let o = a.0[i].cmp_same_type(&b.0[i]).unwrap();
                    let o = if desc { o.reverse() } else { o };
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.1.cmp(&b.1)
            });
        }
        if let Some(k) = case.limit {
            out.truncate(k);
        }
        out.into_iter().map(|(r, _)| r).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

        #[test]
        fn device_aggregates_match_host_reference(
            seed in any::<u64>(),
            children in 4usize..14,
            roots in 6usize..30,
            lo in 0i64..50,
            span in 0i64..30,
            vcut in 0i64..50,
            k in 1usize..8,
            del_cut in 0i64..25,
        ) {
            let mut state = seed | 1;
            let mut next = move || -> i64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64
            };
            let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
            let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
            let mut data = Dataset::empty(&schema);
            for i in 0..children as i64 {
                data.push_row(TableId(0), vec![
                    Value::Int(i),
                    Value::Int(next() % 50),
                    Value::Int(next() % 50),
                    Value::Text(format!("tag-{}", next().rem_euclid(6))),
                ]).unwrap();
            }
            for i in 0..roots as i64 {
                data.push_row(TableId(1), vec![
                    Value::Int(i),
                    Value::Int(next() % 50),
                    Value::Int(next().rem_euclid(children as i64)),
                ]).unwrap();
            }
            let config = DeviceConfig::default_2007().with_delta_flush_rows(0);
            let mut db = GhostDb::create(DDL, config, &data).unwrap();
            let hi = lo + span;

            let cases = [
                // Grouped aggregates over hidden columns, BETWEEN range.
                Case {
                    analytic: format!(
                        "SELECT Child.vis, COUNT(*), SUM(Child.hid), MIN(Child.tag), \
                                MAX(Child.hid) \
                         FROM Child WHERE Child.hid BETWEEN {lo} AND {hi} \
                         GROUP BY Child.vis ORDER BY Child.vis"
                    ),
                    base: format!(
                        "SELECT Child.vis, Child.hid, Child.tag FROM Child \
                         WHERE Child.hid BETWEEN {lo} AND {hi}"
                    ),
                    output: vec![Item::Col(0), Item::Count, Item::Sum(1), Item::Min(2),
                                 Item::Max(1)],
                    group_by: vec![0],
                    order_by: vec![(0, false)],
                    limit: None,
                },
                // Plain top-k: ORDER BY ordinals, DESC, LIMIT.
                Case {
                    analytic: format!(
                        "SELECT Child.cid, Child.hid FROM Child \
                         WHERE Child.vis >= {vcut} ORDER BY 2 DESC, 1 LIMIT {k}"
                    ),
                    base: format!(
                        "SELECT Child.cid, Child.hid FROM Child WHERE Child.vis >= {vcut}"
                    ),
                    output: vec![Item::Col(0), Item::Col(1)],
                    group_by: vec![],
                    order_by: vec![(1, true), (0, false)],
                    limit: Some(k),
                },
                // Global aggregates (possibly over zero rows).
                Case {
                    analytic: format!(
                        "SELECT COUNT(*), AVG(Root.amt) FROM Root \
                         WHERE Root.amt BETWEEN {lo} AND {hi}"
                    ),
                    base: format!(
                        "SELECT Root.amt FROM Root WHERE Root.amt BETWEEN {lo} AND {hi}"
                    ),
                    output: vec![Item::Count, Item::Avg(0)],
                    group_by: vec![],
                    order_by: vec![],
                    limit: None,
                },
                // Join + GROUP BY + ORDER BY an aggregate + LIMIT.
                Case {
                    analytic: format!(
                        "SELECT Child.vis, COUNT(*) FROM Root, Child \
                         WHERE Root.amt >= {vcut} AND Root.cid = Child.cid \
                         GROUP BY Child.vis ORDER BY 2 DESC, 1 LIMIT {k}"
                    ),
                    base: format!(
                        "SELECT Child.vis FROM Root, Child \
                         WHERE Root.amt >= {vcut} AND Root.cid = Child.cid"
                    ),
                    output: vec![Item::Col(0), Item::Count],
                    group_by: vec![0],
                    order_by: vec![(1, true), (0, false)],
                    limit: Some(k),
                },
            ];

            let check = |db: &GhostDb, phase: &str| {
                for case in &cases {
                    let base_rows = db.query(&case.base).unwrap().rows.rows;
                    let expect = host_epilogue(&base_rows, case);
                    let spec = db.bind(&case.analytic).unwrap();
                    for cp in db.plans(&case.analytic).unwrap() {
                        let blocked = db.run(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &blocked.rows.rows, &expect,
                            "{}/blocked plan {}: {}", phase, cp.plan.label, case.analytic
                        );
                        let scalar = db.run_scalar(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &scalar.rows.rows, &expect,
                            "{}/scalar plan {}: {}", phase, cp.plan.label, case.analytic
                        );
                    }
                }
            };

            check(&db, "loaded");
            // Random deletes: aggregates must respect tombstones...
            db.execute(&format!("DELETE FROM Root WHERE amt <= {del_cut}")).unwrap();
            check(&db, "tombstone-resident");
            // ...and survive the physical compaction.
            db.flush_deltas().unwrap();
            check(&db, "compacted");
        }
    }
}

mod pipeline_equivalence {
    //! The batched (blocked) pipeline and the scalar fallback must be
    //! observationally identical: same rows, same per-operator tuple
    //! counts, across random plans. Only simulated timings (and the
    //! amount of data the galloping merge *touches* on its input
    //! streams) may differ.

    use super::common::medical_db;
    use ghostdb_exec::ExecReport;
    use proptest::prelude::*;

    /// The result-bearing operators whose tuple counts are structural:
    /// every id/row that flows through them is part of the query's
    /// semantics. (Source streams are excluded on purpose — the whole
    /// point of `seek_at_least` is that the blocked merge touches fewer
    /// of their ids.)
    const SEMANTIC_OPS: &[&str] = &[
        "merge-intersect",
        "access-skt",
        "anchor-rows",
        "fetch-column",
        "bloom-build",
        "bloom-probe",
        "hidden-verify",
        "project",
    ];

    fn semantic_counts(report: &ExecReport) -> Vec<(String, u64, u64)> {
        report
            .ops
            .iter()
            .filter(|op| SEMANTIC_OPS.contains(&op.name.as_str()))
            .map(|op| (op.name.clone(), op.tuples_in, op.tuples_out))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

        /// Every enumerated plan of a random conjunctive query returns
        /// byte-identical rows and identical semantic tuple counts under
        /// both pipelines.
        #[test]
        fn blocked_and_scalar_pipelines_agree(
            quantity in 1i64..10,
            q_op in 0usize..3,
            date_frac in 0.0f64..1.0,
            purpose in prop::sample::select(vec!["Sclerosis", "Checkup", "Diabetes"]),
            use_type in proptest::any::<bool>(),
        ) {
            let (db, cfg) = medical_db(700);
            let ops = ["=", ">", "<="];
            let cutoff = ghostdb_types::Date(
                cfg.date_start.0 + ((cfg.date_span_days as f64) * date_frac) as i32,
            );
            let mut sql = format!(
                "SELECT Pre.PreID, Vis.Purpose, Med.Name \
                 FROM Prescription Pre, Visit Vis, Medicine Med \
                 WHERE Pre.Quantity {} {} \
                   AND Vis.Date > '{}' \
                   AND Vis.Purpose = '{}' ",
                ops[q_op], quantity, cutoff, purpose,
            );
            if use_type {
                sql.push_str("AND Med.Type = 'Antibiotic' ");
            }
            sql.push_str("AND Vis.VisID = Pre.VisID AND Med.MedID = Pre.MedID");

            let spec = db.bind(&sql).unwrap();
            let plans = db.plans(&sql).unwrap();
            prop_assert!(!plans.is_empty());
            // First, middle, and last plan: the panel spans pure
            // Pre-filtering through Bloom-heavy Post-filtering.
            let picks = [0, plans.len() / 2, plans.len() - 1];
            for &pi in &picks {
                let plan = &plans[pi].plan;
                let blocked = db.run(&spec, plan).unwrap();
                let scalar = db.run_scalar(&spec, plan).unwrap();
                prop_assert_eq!(
                    &blocked.rows.rows, &scalar.rows.rows,
                    "rows diverge for plan {}", plan.label
                );
                prop_assert_eq!(
                    blocked.report.result_rows, scalar.report.result_rows,
                    "result_rows diverge for plan {}", plan.label
                );
                prop_assert_eq!(
                    semantic_counts(&blocked.report),
                    semantic_counts(&scalar.report),
                    "tuple counts diverge for plan {}", plan.label
                );
            }
        }
    }
}

mod cache_equivalence {
    //! The page cache must be invisible: an engine with the default
    //! device-RAM mirror and an engine with `page_cache_pages = 0`
    //! walk through identical mutation histories and must return
    //! identical rows for every enumerated plan on both pipelines — in
    //! the tombstone-resident state, after physical compaction, with
    //! ECC-correctable rot injected underneath (corrected codewords
    //! are never mirrored), and across a seal → power-cut → mount.
    //! The simulated clock keeps its one-sided invariant too: a cache
    //! can only remove NAND transfers, so the cached engine's device
    //! time never exceeds the uncached engine's.

    use super::common::assert_snapshot_matches;
    use ghostdb::GhostDb;
    use ghostdb_flash::PageAddr;
    use ghostdb_storage::Dataset;
    use ghostdb_types::{ColumnId, DeviceConfig, RowId, TableId, Value};
    use proptest::prelude::*;

    const DDL: &str = "\
        CREATE TABLE Child (
          cid INTEGER PRIMARY KEY,
          vis INTEGER,
          hid INTEGER HIDDEN,
          tag CHAR(12) HIDDEN);
        CREATE TABLE Root (
          rid INTEGER PRIMARY KEY,
          amt INTEGER HIDDEN,
          cid REFERENCES Child(cid) HIDDEN);";

    /// One pre-generated mutation batch, replayed verbatim on both
    /// engines.
    #[derive(Clone)]
    enum Step {
        InsertChildren(Vec<Vec<Value>>),
        InsertRoots(Vec<Vec<Value>>),
        DeleteRoots(Vec<RowId>),
        UpdateChild(RowId, i64, String),
        UpdateRoots(Vec<RowId>, i64),
    }

    /// Generate `steps` batches that are valid against the running
    /// (children, roots) cardinalities.
    fn plan_steps(
        next: &mut impl FnMut() -> i64,
        children: &mut usize,
        roots: &mut usize,
        steps: usize,
    ) -> Vec<Step> {
        let mut out = Vec::new();
        for _ in 0..steps {
            match next().rem_euclid(5) {
                0 => {
                    let n = 1 + next().rem_euclid(3) as usize;
                    let batch = (0..n)
                        .map(|k| {
                            vec![
                                Value::Int((*children + k) as i64),
                                Value::Int(next() % 50),
                                Value::Int(next() % 50),
                                Value::Text(format!("tag-{}", next().rem_euclid(8))),
                            ]
                        })
                        .collect();
                    *children += n;
                    out.push(Step::InsertChildren(batch));
                }
                1 => {
                    let n = 1 + next().rem_euclid(4) as usize;
                    let batch = (0..n)
                        .map(|k| {
                            vec![
                                Value::Int((*roots + k) as i64),
                                Value::Int(next() % 50),
                                Value::Int(next().rem_euclid(*children as i64)),
                            ]
                        })
                        .collect();
                    *roots += n;
                    out.push(Step::InsertRoots(batch));
                }
                2 => {
                    if *roots == 0 {
                        continue;
                    }
                    let mut picks: Vec<u32> = (0..1 + next().rem_euclid(3))
                        .map(|_| next().rem_euclid(*roots as i64) as u32)
                        .collect();
                    picks.sort_unstable();
                    picks.dedup();
                    *roots -= picks.len();
                    out.push(Step::DeleteRoots(picks.into_iter().map(RowId).collect()));
                }
                3 => {
                    let c = next().rem_euclid(*children as i64) as u32;
                    out.push(Step::UpdateChild(
                        RowId(c),
                        next() % 50,
                        format!("tag-{}", next().rem_euclid(16)),
                    ));
                }
                _ => {
                    if *roots == 0 {
                        continue;
                    }
                    let mut picks: Vec<u32> = (0..1 + next().rem_euclid(2))
                        .map(|_| next().rem_euclid(*roots as i64) as u32)
                        .collect();
                    picks.sort_unstable();
                    picks.dedup();
                    out.push(Step::UpdateRoots(
                        picks.into_iter().map(RowId).collect(),
                        next() % 50,
                    ));
                }
            }
        }
        out
    }

    fn apply(db: &mut GhostDb, steps: &[Step]) {
        for s in steps {
            match s {
                Step::InsertChildren(b) => {
                    db.insert_rows(TableId(0), b.clone()).unwrap();
                }
                Step::InsertRoots(b) => {
                    db.insert_rows(TableId(1), b.clone()).unwrap();
                }
                Step::DeleteRoots(r) => {
                    db.delete_rows(TableId(1), r.clone()).unwrap();
                }
                Step::UpdateChild(r, vis, tag) => {
                    db.update_rows(
                        TableId(0),
                        vec![*r],
                        vec![
                            (ColumnId(1), Value::Int(*vis)),
                            (ColumnId(3), Value::Text(tag.clone())),
                        ],
                    )
                    .unwrap();
                }
                Step::UpdateRoots(r, amt) => {
                    db.update_rows(TableId(1), r.clone(), vec![(ColumnId(1), Value::Int(*amt))])
                        .unwrap();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

        #[test]
        fn cached_and_uncached_engines_agree(
            seed in any::<u64>(),
            base_children in 3usize..10,
            base_roots in 6usize..24,
            steps in 4usize..12,
            hidden_cut in 0i64..50,
            tag_pick in 0usize..10,
        ) {
            let mut state = seed | 1;
            let mut next = move || -> i64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64
            };
            let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
            let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
            let mut base = Dataset::empty(&schema);
            for i in 0..base_children {
                base.push_row(TableId(0), vec![
                    Value::Int(i as i64),
                    Value::Int(next() % 50),
                    Value::Int(next() % 50),
                    Value::Text(format!("tag-{}", next().rem_euclid(8))),
                ]).unwrap();
            }
            for i in 0..base_roots {
                base.push_row(TableId(1), vec![
                    Value::Int(i as i64),
                    Value::Int(next() % 50),
                    Value::Int(next().rem_euclid(base_children as i64)),
                ]).unwrap();
            }

            let cfg_on = DeviceConfig::default_2007().with_delta_flush_rows(0);
            let mut cfg_off = cfg_on.clone();
            cfg_off.flash.page_cache_pages = 0;
            let mut on = GhostDb::create(DDL, cfg_on.clone(), &base).unwrap();
            let mut off = GhostDb::create(DDL, cfg_off.clone(), &base).unwrap();
            prop_assert!(on.volume().page_cache_stats().capacity_pages > 0);
            prop_assert_eq!(off.volume().page_cache_stats().capacity_pages, 0);

            let (mut children, mut roots) = (base_children, base_roots);
            let plan = plan_steps(&mut next, &mut children, &mut roots, steps);
            apply(&mut on, &plan);
            apply(&mut off, &plan);

            let queries = [
                format!(
                    "SELECT Root.rid, Child.tag FROM Root, Child \
                     WHERE Child.tag = 'tag-{tag_pick}' AND Root.cid = Child.cid"
                ),
                format!(
                    "SELECT Root.rid, Child.hid FROM Root, Child \
                     WHERE Child.hid >= {hidden_cut} AND Child.vis < 40 \
                       AND Root.cid = Child.cid"
                ),
                "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'".to_string(),
                format!("SELECT Root.rid, Root.cid FROM Root WHERE Root.amt <= {hidden_cut}"),
            ];
            let check = |on: &GhostDb, off: &GhostDb, phase: &str| {
                for sql in &queries {
                    let oracle = off.query(sql).unwrap();
                    let cached = on.query(sql).unwrap();
                    prop_assert_eq!(
                        &cached.rows.rows, &oracle.rows.rows,
                        "{}: default plan: {}", phase, sql
                    );
                    // A cache can only remove NAND transfers from the
                    // simulated timeline, never add work to it.
                    prop_assert!(
                        cached.report.total_ns <= oracle.report.total_ns,
                        "{}: cached {} ns > uncached {} ns: {}",
                        phase, cached.report.total_ns, oracle.report.total_ns, sql
                    );
                    let spec = on.bind(sql).unwrap();
                    for cp in on.plans(sql).unwrap() {
                        let blocked = on.run(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &blocked.rows.rows, &oracle.rows.rows,
                            "{}: blocked plan {}: {}", phase, cp.plan.label, sql
                        );
                        let scalar = on.run_scalar(&spec, &cp.plan).unwrap();
                        prop_assert_eq!(
                            &scalar.rows.rows, &oracle.rows.rows,
                            "{}: scalar plan {}: {}", phase, cp.plan.label, sql
                        );
                        assert_snapshot_matches(on, &spec, &cp.plan);
                    }
                }
            };

            // Phase 1: tombstone-resident.
            check(&on, &off, "tombstone-resident");

            // Phase 2: physically compacted.
            on.flush_deltas().unwrap();
            off.flush_deltas().unwrap();
            check(&on, &off, "compacted");

            // Phase 3: ECC-correctable rot injected at the same
            // physical addresses on both parts (creation is
            // deterministic, so the layouts match). Corrected
            // codewords must re-correct on every fault, never be
            // served from the mirror.
            let ppb = cfg_on.flash.pages_per_block as u32;
            for k in 0..6u32 {
                let phys = PageAddr((next().rem_euclid((4 * ppb) as i64)) as u32 + k * ppb);
                let bit = next().rem_euclid(2048 * 8) as u32;
                on.nand().corrupt_page(phys, bit).unwrap();
                off.nand().corrupt_page(phys, bit).unwrap();
            }
            check(&on, &off, "rotted");

            // Phase 4: seal, mutate again (WAL-resident), power-cut,
            // mount with each engine's own cache config.
            on.seal().unwrap();
            off.seal().unwrap();
            let plan = plan_steps(&mut next, &mut children, &mut roots, steps / 2 + 1);
            apply(&mut on, &plan);
            apply(&mut off, &plan);
            let (nand_on, nand_off) = (on.nand().clone(), off.nand().clone());
            drop(on);
            drop(off);
            let on = GhostDb::mount(nand_on, cfg_on).unwrap();
            let off = GhostDb::mount(nand_off, cfg_off).unwrap();
            prop_assert!(on.volume().page_cache_stats().capacity_pages > 0);
            check(&on, &off, "wal-replayed");
        }
    }
}
