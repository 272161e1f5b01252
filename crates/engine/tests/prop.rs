//! Property tests for the executor: algebraic laws over random data.

use av_engine::{Catalog, Column, Executor, Pricing, RecordBatch, Table};
use av_plan::{CmpOp, Expr, JoinType, PlanBuilder, PlanNode, Value};
use proptest::prelude::*;

fn catalog_from(a_keys: Vec<i64>, a_vals: Vec<i64>, b_keys: Vec<i64>) -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        Table::new(
            "ta",
            vec![("k", Column::Int(a_keys)), ("v", Column::Int(a_vals))],
        )
        .expect("rectangular"),
    )
    .expect("fresh");
    c.add_table(Table::new("tb", vec![("k", Column::Int(b_keys))]).expect("rectangular"))
        .expect("fresh");
    c
}

fn exec(c: &Catalog, p: &av_plan::PlanRef) -> av_engine::ExecResult {
    Executor::new(c, Pricing::paper_defaults())
        .run(p)
        .expect("plan executes")
}

fn agg(func: av_plan::AggFunc, input: Option<&str>, output: &str) -> av_plan::AggExpr {
    av_plan::AggExpr {
        func,
        input: input.map(str::to_string),
        output: output.to_string(),
    }
}

/// Join-key pools, one per column type. Equal pool indices give values
/// that are equal across types where the engine's key equality
/// (`Value::total_cmp == Equal`) says so — `Int(-1)` meets `Float(-1.0)`,
/// `i64::MIN` meets `-2^63` — and `Float(-0.0)` meets only itself.
const INT_KEYS: [i64; 8] = [i64::MIN, -2, -1, 0, 1, 2, 3, i64::MAX];
const FLOAT_KEYS: [f64; 8] = [
    i64::MIN as f64,
    -2.5,
    -1.0,
    0.0,
    -0.0,
    2.0,
    3.0,
    i64::MAX as f64,
];
const STR_KEYS: [&str; 8] = ["", "a", "b", "ab", "-1", "0", "ba", "z"];

/// A key column of type `ty` (0 = Int, 1 = Float, 2 = Str) over pool indices.
fn key_column(ty: u8, picks: &[usize]) -> Column {
    match ty {
        0 => Column::Int(picks.iter().map(|&p| INT_KEYS[p]).collect()),
        1 => Column::Float(picks.iter().map(|&p| FLOAT_KEYS[p]).collect()),
        _ => Column::str(picks.iter().map(|&p| STR_KEYS[p].to_string()).collect()),
    }
}

/// Two key columns plus a payload column holding each row's index, so the
/// output order is visible in the payload.
fn join_side(name: &str, types: (u8, u8), rows: &[(usize, usize)], payload: &str) -> Table {
    let k0: Vec<usize> = rows.iter().map(|r| r.0).collect();
    let k1: Vec<usize> = rows.iter().map(|r| r.1).collect();
    Table::new(
        name,
        vec![
            ("k0", key_column(types.0, &k0)),
            ("k1", key_column(types.1, &k1)),
            (payload, Column::Int((0..rows.len() as i64).collect())),
        ],
    )
    .expect("rectangular")
}

/// The value a left join pads an unmatched build row with.
fn pad_value(col: &Column) -> Value {
    match col {
        Column::Int(_) => Value::Int(0),
        Column::Float(_) => Value::Float(0.0),
        Column::Str(_) => Value::Str(String::new()),
    }
}

/// Nested-loop equi-join in the executor's documented output order. Left
/// joins, and inner joins whose right side is no larger, walk the left rows
/// ascending and, for each, the matching right rows ascending; other inner
/// joins walk the right rows outermost. Unmatched left rows of a left join
/// carry the type default in every right column.
fn nested_loop_join(
    l: &RecordBatch,
    r: &RecordBatch,
    on: &[(usize, usize)],
    join_type: JoinType,
) -> RecordBatch {
    let keys_equal = |i: usize, j: usize| {
        on.iter()
            .all(|&(lk, rk)| l.columns[lk].get(i) == r.columns[rk].get(j))
    };
    let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
    if join_type == JoinType::Left || r.num_rows() <= l.num_rows() {
        for i in 0..l.num_rows() {
            let before = pairs.len();
            pairs.extend(
                (0..r.num_rows())
                    .filter(|&j| keys_equal(i, j))
                    .map(|j| (i, Some(j))),
            );
            if join_type == JoinType::Left && pairs.len() == before {
                pairs.push((i, None));
            }
        }
    } else {
        for j in 0..r.num_rows() {
            pairs.extend(
                (0..l.num_rows())
                    .filter(|&i| keys_equal(i, j))
                    .map(|i| (i, Some(j))),
            );
        }
    }
    let mut names = l.names.clone();
    names.extend(r.names.iter().cloned());
    let mut columns: Vec<Column> = l.columns.iter().map(Column::empty_like).collect();
    columns.extend(r.columns.iter().map(Column::empty_like));
    for &(i, j) in &pairs {
        let (left_out, right_out) = columns.split_at_mut(l.num_columns());
        for (out, src) in left_out.iter_mut().zip(&l.columns) {
            out.push_from(src, i);
        }
        for (out, src) in right_out.iter_mut().zip(&r.columns) {
            match j {
                Some(j) => out.push_from(src, j),
                None => out.push_value(&pad_value(src)),
            }
        }
    }
    RecordBatch { names, columns }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `exec_join` returns exactly the rows of a nested-loop join, in the
    /// same order and with the same bits, for inner and left joins on one
    /// or two key columns of any type pairing — `Int`, `Float`, `Str`,
    /// `Int` against `Float`, string against number — with duplicate keys
    /// on both sides, empty sides and extreme integer keys.
    #[test]
    fn join_matches_nested_loop_oracle(
        ltypes in (0u8..3, 0u8..3),
        rtypes in (0u8..3, 0u8..3),
        lrows in proptest::collection::vec((0usize..8, 0usize..8), 0..14),
        rrows in proptest::collection::vec((0usize..8, 0usize..8), 0..14),
        two_keys in proptest::any::<bool>(),
        left in proptest::any::<bool>(),
    ) {
        let join_type = if left { JoinType::Left } else { JoinType::Inner };
        let mut c = Catalog::new();
        c.add_table(join_side("tl", ltypes, &lrows, "v")).expect("fresh");
        c.add_table(join_side("tr", rtypes, &rrows, "w")).expect("fresh");
        let on: &[(&str, &str)] = if two_keys {
            &[("l.k0", "r.k0"), ("l.k1", "r.k1")]
        } else {
            &[("l.k1", "r.k0")]
        };
        let plan = PlanBuilder::scan("tl", "l")
            .join_typed(PlanBuilder::scan("tr", "r"), on, join_type)
            .build();
        let got = exec(&c, &plan).batch;

        let scan = |t: &str, alias: &str| exec(&c, &PlanBuilder::scan(t, alias).build()).batch;
        let (lb, rb) = (scan("tl", "l"), scan("tr", "r"));
        let on_idx: Vec<(usize, usize)> = on
            .iter()
            .map(|(lk, rk)| {
                (lb.column_index(lk).expect("left key"), rb.column_index(rk).expect("right key"))
            })
            .collect();
        let want = nested_loop_join(&lb, &rb, &on_idx, join_type);
        // Debug strings compare floats by bits (`-0.0` differs from `0.0`).
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// Build-side span shapes for [`direct_join_matches_hashed_reference`].
#[derive(Debug, Clone, Copy)]
enum Span {
    /// Keys `base + 0..12`: far inside the direct-index cap.
    Short,
    /// The build side reaches `base + cap − 1`: the last span indexed
    /// directly.
    AtCap,
    /// The build side reaches `base + cap`: the first span hashed.
    OverCap,
    /// The build side holds `i64::MIN` and `i64::MAX`.
    Extreme,
}

/// The direct-index cap on a build side of `rows` rows.
fn direct_cap(rows: usize) -> i64 {
    32 * rows as i64 + 16_384
}

/// One single-`Int`-key join side: `payload` holds each row's index.
fn int_key_side(name: &str, keys: Vec<i64>, payload: &str) -> Table {
    let n = keys.len() as i64;
    Table::new(
        name,
        vec![
            ("k", Column::Int(keys)),
            (payload, Column::Int((0..n).collect())),
        ],
    )
    .expect("rectangular")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A join on one `Int` key returns the same batch and the same
    /// `ExecutionReport` with the default kernels — which index short key
    /// spans directly — as with the reference kernels, which always hash,
    /// and both equal a nested-loop join. Keys repeat on both sides, may be
    /// negative or sit at either end of `i64`, and the build side's span
    /// lands far inside the cap, exactly at it, one past it or across all
    /// of `i64`; either side may be empty. Probe keys include one below the
    /// build minimum, one above the maximum and two that a truncated slot
    /// offset would alias onto a build key, so a bounds check that lets a
    /// wrapped or truncated offset through shows up as a spurious match.
    #[test]
    fn direct_join_matches_hashed_reference(
        base in prop_oneof![Just(i64::MIN), Just(-700i64), Just(-3), Just(0), Just(i64::MAX - 4096)],
        span in prop_oneof![Just(Span::Short), Just(Span::AtCap), Just(Span::OverCap), Just(Span::Extreme)],
        lpicks in proptest::collection::vec(0usize..18, 0..40),
        rpicks in proptest::collection::vec(0usize..18, 0..40),
        left in proptest::any::<bool>(),
    ) {
        let join_type = if left { JoinType::Left } else { JoinType::Inner };
        // The executor's build side: the right for left joins and for
        // inner joins whose right side is no larger.
        let build_right = left || rpicks.len() <= lpicks.len();
        let build_rows = if build_right { rpicks.len() } else { lpicks.len() };
        let hi = match span {
            Span::Short => base.wrapping_add(11),
            Span::AtCap => base.wrapping_add(direct_cap(build_rows) - 1),
            Span::OverCap => base.wrapping_add(direct_cap(build_rows)),
            Span::Extreme => i64::MAX,
        };
        let lo = if matches!(span, Span::Extreme) { i64::MIN } else { base };
        // Picks 0..12 are short-span keys, 12 and 13 the build side's two
        // ends, 14 and 15 one step outside them and 16 and 17 a whole
        // `u32` range away from a build key (wrapping at the ends of
        // `i64`), which only the probe side draws.
        let key = |p: usize| match p {
            0..=11 => base.wrapping_add(p as i64),
            12 => lo,
            13 => hi,
            14 => lo.wrapping_sub(1),
            15 => hi.wrapping_add(1),
            16 => lo.wrapping_add(1 << 32),
            _ => hi.wrapping_sub(1 << 32),
        };
        let side = |picks: &[usize], is_build: bool| -> Vec<i64> {
            let mut keys: Vec<i64> = picks
                .iter()
                .map(|&p| if is_build && p >= 14 { key(p % 12) } else { key(p) })
                .collect();
            // The build side spans exactly `lo..=hi`.
            if is_build && keys.len() >= 2 {
                keys[0] = lo;
                let last = keys.len() - 1;
                keys[last] = hi;
            }
            keys
        };
        let mut c = Catalog::new();
        c.add_table(int_key_side("tl", side(&lpicks, !build_right), "v")).expect("fresh");
        c.add_table(int_key_side("tr", side(&rpicks, build_right), "w")).expect("fresh");
        let plan = PlanBuilder::scan("tl", "l")
            .join_typed(PlanBuilder::scan("tr", "r"), &[("l.k", "r.k")], join_type)
            .build();
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        prop_assert_eq!(&optimized.batch, &reference.batch);
        prop_assert_eq!(optimized.report, reference.report);

        let scan = |t: &str, alias: &str| exec(&c, &PlanBuilder::scan(t, alias).build()).batch;
        let want = nested_loop_join(&scan("tl", "l"), &scan("tr", "r"), &[(0, 0)], join_type);
        prop_assert_eq!(&*optimized.batch, &want);
    }
}

/// How one join side is computed from its table: `v` holds each row's
/// index, so the rows a side's filters keep are known up front.
#[derive(Debug, Clone, Copy)]
enum SideShape {
    Scan,
    /// `σ(v ≥ a)`.
    Filter,
    /// `σ(v ≤ b)(σ(v ≥ a))`: the second filter refines the selection.
    Stacked,
    /// `π(k, s, v, v)(σ(v ≥ a))`: plain columns over a selection, `v`
    /// forwarded twice.
    ProjectSel,
    /// `π(k, v × 2, s)(σ(v ≥ a))`: a computed column over a selection.
    Computed,
    /// `π(k, v, f)` over the dense scan.
    ProjectDense,
    /// `σ(v ≤ b)(π(k, v, s)(σ(v ≥ a)))`: a filter over forwarded columns.
    FilterOverProject,
}

impl SideShape {
    /// The table rows this side keeps, ascending.
    fn live(self, rows: usize, a: usize, b: usize) -> Vec<usize> {
        (0..rows)
            .filter(|&i| match self {
                SideShape::Scan | SideShape::ProjectDense => true,
                SideShape::Filter | SideShape::ProjectSel | SideShape::Computed => i >= a,
                SideShape::Stacked | SideShape::FilterOverProject => i >= a && i <= b,
            })
            .collect()
    }

    fn plan(self, table: &str, alias: &str, a: usize, b: usize) -> PlanBuilder {
        let col = |c: &str| format!("{alias}.{c}");
        let (k, v, f, s) = (col("k"), col("v"), col("f"), col("s"));
        let v2 = col("v2");
        let ge = Expr::col(&v).cmp(CmpOp::Ge, Expr::int(a as i64));
        let le = Expr::col(&v).cmp(CmpOp::Le, Expr::int(b as i64));
        let scan = PlanBuilder::scan(table, alias);
        match self {
            SideShape::Scan => scan,
            SideShape::Filter => scan.filter(ge),
            SideShape::Stacked => scan.filter(ge).filter(le),
            SideShape::ProjectSel => scan.filter(ge).project(&[
                (k.as_str(), k.as_str()),
                (s.as_str(), s.as_str()),
                (v.as_str(), v.as_str()),
                (v.as_str(), v2.as_str()),
            ]),
            SideShape::Computed => scan.filter(ge).project_exprs(vec![
                av_plan::ProjExpr::column(k.as_str(), k.as_str()),
                av_plan::ProjExpr {
                    expr: Expr::Arith {
                        op: av_plan::expr::ArithOp::Mul,
                        left: Box::new(Expr::col(&v)),
                        right: Box::new(Expr::int(2)),
                    },
                    alias: v.clone(),
                },
                av_plan::ProjExpr::column(s.as_str(), s.as_str()),
            ]),
            SideShape::ProjectDense => scan.project(&[
                (k.as_str(), k.as_str()),
                (v.as_str(), v.as_str()),
                (f.as_str(), f.as_str()),
            ]),
            SideShape::FilterOverProject => scan
                .filter(ge)
                .project(&[
                    (k.as_str(), k.as_str()),
                    (v.as_str(), v.as_str()),
                    (s.as_str(), s.as_str()),
                ])
                .filter(le),
        }
    }
}

const SIDE_SHAPES: [SideShape; 7] = [
    SideShape::Scan,
    SideShape::Filter,
    SideShape::Stacked,
    SideShape::ProjectSel,
    SideShape::Computed,
    SideShape::ProjectDense,
    SideShape::FilterOverProject,
];

/// One join side's table: key `k` of type `ty` (0 = Int, 1 = Float,
/// 2 = Str) and payloads `v` (the row index), `f` and `s`.
fn shaped_side(name: &str, k: Column) -> Table {
    let n = k.len();
    Table::new(
        name,
        vec![
            ("k", k),
            ("v", Column::Int((0..n as i64).collect())),
            ("f", Column::Float((0..n).map(|i| i as f64 / 2.0).collect())),
            ("s", Column::str((0..n).map(|i| format!("s{i}")).collect())),
        ],
    )
    .expect("rectangular")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A join over projected and filtered inputs returns the same batch and
    /// the same `ExecutionReport` under the default kernels — where
    /// projections forward columns without copying them, selections reach
    /// the join, and the join reads its keys and gathers its output through
    /// them — as under the reference kernels, which materialize every
    /// operator's output. Each side is a scan, a filter, stacked filters, a
    /// plain or computed projection over a selection, a projection over the
    /// dense scan, or a filter over forwarded columns; joins are inner or
    /// left on `Int`, `Float` or `Str` keys with duplicates; either side may
    /// be empty or filtered to nothing. When both keys are `Int`, the build
    /// side's live keys span far inside the direct-index cap, exactly to
    /// it, one past it, or across all of `i64`, while its filtered-out rows
    /// hold `i64::MIN` and `i64::MAX`, so a span read without the selection
    /// would always hash. The root is the join itself, a projection over it
    /// (one column forwarded twice), a filter and projection, or a grouped
    /// aggregate.
    #[test]
    fn late_projection_join_matches_reference(
        types in (0u8..3, 0u8..3),
        shapes in (0usize..7, 0usize..7),
        cuts in ((0usize..6, 4usize..30), (0usize..6, 4usize..30)),
        base in prop_oneof![Just(i64::MIN), Just(-700i64), Just(-3), Just(0), Just(i64::MAX - 20_000)],
        span in prop_oneof![Just(Span::Short), Just(Span::AtCap), Just(Span::OverCap), Just(Span::Extreme)],
        lpicks in proptest::collection::vec(0usize..18, 0..30),
        rpicks in proptest::collection::vec(0usize..18, 0..30),
        left in proptest::any::<bool>(),
        top in 0u8..4,
    ) {
        let join_type = if left { JoinType::Left } else { JoinType::Inner };
        let (lshape, rshape) = (SIDE_SHAPES[shapes.0], SIDE_SHAPES[shapes.1]);
        let (lcut, rcut) = cuts;
        let llive = lshape.live(lpicks.len(), lcut.0, lcut.1);
        let rlive = rshape.live(rpicks.len(), rcut.0, rcut.1);
        // The executor's build side, chosen on live rows.
        let build_right = left || rlive.len() <= llive.len();
        let build_live = if build_right { rlive.len() } else { llive.len() };
        let hi = match span {
            Span::Short => base.wrapping_add(11),
            Span::AtCap => base.wrapping_add(direct_cap(build_live) - 1),
            Span::OverCap => base.wrapping_add(direct_cap(build_live)),
            Span::Extreme => i64::MAX,
        };
        let lo = if matches!(span, Span::Extreme) { i64::MIN } else { base };
        let int_key = |p: usize| match p {
            0..=11 => base.wrapping_add(p as i64),
            12 => lo,
            13 => hi,
            14 => lo.wrapping_sub(1),
            15 => hi.wrapping_add(1),
            16 => lo.wrapping_add(1 << 32),
            _ => hi.wrapping_sub(1 << 32),
        };
        let int_keys = |picks: &[usize], live: &[usize], is_build: bool| -> Vec<i64> {
            let mut keys: Vec<i64> = picks
                .iter()
                .map(|&p| if is_build && p >= 14 { int_key(p % 12) } else { int_key(p) })
                .collect();
            if is_build {
                // Live build keys span exactly `lo..=hi`; dead ones sit at
                // the ends of `i64`.
                for (i, key) in keys.iter_mut().enumerate() {
                    if live.binary_search(&i).is_err() {
                        *key = if i % 2 == 0 { i64::MIN } else { i64::MAX };
                    }
                }
                if let [first, .., last] = live {
                    keys[*first] = lo;
                    keys[*last] = hi;
                }
            }
            keys
        };
        let key_col = |ty: u8, picks: &[usize], live: &[usize], is_build: bool| match ty {
            0 => Column::Int(int_keys(picks, live, is_build)),
            _ => key_column(ty, &picks.iter().map(|p| p % 8).collect::<Vec<_>>()),
        };
        let mut c = Catalog::new();
        c.add_table(shaped_side("tl", key_col(types.0, &lpicks, &llive, !build_right)))
            .expect("fresh");
        c.add_table(shaped_side("tr", key_col(types.1, &rpicks, &rlive, build_right)))
            .expect("fresh");

        let joined = lshape
            .plan("tl", "l", lcut.0, lcut.1)
            .join_typed(rshape.plan("tr", "r", rcut.0, rcut.1), &[("l.k", "r.k")], join_type);
        let plan = match top {
            0 => joined,
            1 => joined.project(&[("r.v", "rv"), ("l.k", "lk"), ("r.v", "rv2"), ("l.v", "lv")]),
            2 => joined
                .filter(Expr::col("r.v").cmp(CmpOp::Ne, Expr::int(1)))
                .project(&[("l.v", "lv"), ("r.k", "rk")]),
            _ => joined.aggregate(
                &["l.k"],
                vec![
                    agg(av_plan::AggFunc::Count, None, "n"),
                    agg(av_plan::AggFunc::Sum, Some("r.v"), "s"),
                    agg(av_plan::AggFunc::Max, Some("l.v"), "hi"),
                ],
            ),
        }
        .build();
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        // Debug strings compare floats by bits (`-0.0` differs from `0.0`).
        prop_assert_eq!(format!("{:?}", optimized.batch), format!("{:?}", reference.batch));
        prop_assert_eq!(optimized.report, reference.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filtering by `p AND q` equals filtering by `p` then by `q`.
    #[test]
    fn filter_conjunction_splits(
        keys in proptest::collection::vec(-5i64..5, 1..40),
        vals in proptest::collection::vec(-5i64..5, 40),
        t1 in -5i64..5,
        t2 in -5i64..5,
    ) {
        let n = keys.len();
        let c = catalog_from(keys, vals[..n].to_vec(), vec![0]);
        let p = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t1));
        let q = Expr::col("a.v").cmp(CmpOp::Le, Expr::int(t2));

        let combined = PlanBuilder::scan("ta", "a")
            .filter(p.clone().and(q.clone()))
            .build();
        // Bypass the builder's filter merging to get two stacked filters.
        let stacked = PlanNode::Filter {
            input: PlanNode::Filter {
                input: PlanNode::TableScan { table: "ta".into(), alias: "a".into() }.into_ref(),
                predicate: p,
            }
            .into_ref(),
            predicate: q,
        }
        .into_ref();
        prop_assert_eq!(exec(&c, &combined).batch, exec(&c, &stacked).batch);
    }

    /// Inner-join row count is symmetric in its inputs.
    #[test]
    fn join_commutativity_row_count(
        a in proptest::collection::vec(-4i64..4, 1..30),
        b in proptest::collection::vec(-4i64..4, 1..30),
    ) {
        let n = a.len();
        let c = catalog_from(a.clone(), vec![0; n], b);
        let ab = PlanBuilder::scan("ta", "a")
            .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
            .build();
        let ba = PlanBuilder::scan("tb", "b")
            .join(PlanBuilder::scan("ta", "a"), &[("b.k", "a.k")])
            .build();
        prop_assert_eq!(exec(&c, &ab).batch.num_rows(), exec(&c, &ba).batch.num_rows());
    }

    /// COUNT(*) grouped equals the table's row count when summed.
    #[test]
    fn group_counts_sum_to_total(
        keys in proptest::collection::vec(-3i64..3, 1..50),
    ) {
        let n = keys.len();
        let c = catalog_from(keys, vec![0; n], vec![0]);
        let plan = PlanBuilder::scan("ta", "a").count_star(&["a.k"], "n").build();
        let r = exec(&c, &plan);
        let counts = r.batch.column("n").expect("count col");
        let total: i64 = (0..r.batch.num_rows())
            .map(|i| match counts.get(i) {
                av_plan::Value::Int(x) => x,
                other => panic!("count must be int, got {other:?}"),
            })
            .sum();
        prop_assert_eq!(total as usize, n);
    }

    /// Left join keeps exactly the probe side's row count when the build
    /// side has unique keys.
    #[test]
    fn left_join_unique_build_preserves_probe_rows(
        a in proptest::collection::vec(-8i64..8, 1..30),
    ) {
        let n = a.len();
        let unique: Vec<i64> = (-8..8).collect();
        let c = catalog_from(a, vec![0; n], unique);
        let plan = PlanBuilder::scan("ta", "a")
            .join_typed(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")], JoinType::Left)
            .build();
        prop_assert_eq!(exec(&c, &plan).batch.num_rows(), n);
    }

    /// Pushing a *selective* filter below a join never costs more than
    /// filtering after it. (An unselective filter can legitimately lose:
    /// it pays evaluation on every probe row while the late filter only
    /// sees the join's — possibly smaller — output. Our cost model makes
    /// pushdown a win exactly when the filter keeps at most half the rows,
    /// so the property is restricted to that regime.)
    #[test]
    fn selective_pushdown_never_increases_cost(
        a in proptest::collection::vec(-4i64..4, 5..40),
        b in proptest::collection::vec(-4i64..4, 5..40),
        t in -3i64..3,
    ) {
        let n = a.len();
        let kept = a.iter().filter(|&&k| k > t).count();
        prop_assume!(2 * kept <= n, "only selective filters are guaranteed wins");
        let c = catalog_from(a, vec![0; n], b);
        let pred = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t));
        let pushed = PlanBuilder::scan("ta", "a")
            .filter(pred.clone())
            .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
            .build();
        let late = PlanNode::Filter {
            input: PlanBuilder::scan("ta", "a")
                .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
                .build(),
            predicate: pred,
        }
        .into_ref();
        let rp = exec(&c, &pushed);
        let rl = exec(&c, &late);
        prop_assert_eq!(rp.batch.num_rows(), rl.batch.num_rows());
        prop_assert!(rp.report.cost_dollars <= rl.report.cost_dollars + 1e-12);
    }

    /// Selection-vector execution is bit-identical to the materializing
    /// reference path: same batches, same cost reports, over plans mixing
    /// typed filter kernels (int/float/string, stacked and conjoined),
    /// projections and grouped aggregates. This is the contract that lets
    /// `exec_bench` compare the two modes as a pure speedup.
    #[test]
    fn selection_vectors_match_reference_kernels(
        a in proptest::collection::vec(-6i64..6, 1..60),
        t1 in -5i64..5,
        t2 in -5i64..5,
        stacked in proptest::any::<bool>(),
    ) {
        let n = a.len();
        let vals: Vec<i64> = a.iter().map(|&k| k.wrapping_mul(7) + 2).collect();
        let c = catalog_from(a, vals[..n].to_vec(), vec![0]);
        let p = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t1));
        let q = Expr::col("a.v").cmp(CmpOp::Le, Expr::int(t2));
        let builder = if stacked {
            // Two stacked filters: the second refines the selection.
            PlanBuilder::scan("ta", "a").filter(p).filter(q)
        } else {
            PlanBuilder::scan("ta", "a").filter(p.and(q))
        };
        let plan = builder
            .aggregate(
                &["a.k"],
                vec![
                    agg(av_plan::AggFunc::Count, None, "n"),
                    agg(av_plan::AggFunc::Sum, Some("a.v"), "s"),
                    agg(av_plan::AggFunc::Min, Some("a.v"), "lo"),
                    agg(av_plan::AggFunc::Max, Some("a.v"), "hi"),
                ],
            )
            .build();
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        prop_assert_eq!(optimized.batch, reference.batch);
        prop_assert_eq!(optimized.report, reference.report);
    }

    /// A filtered plan that ends *without* an aggregate materializes at the
    /// root; both modes must still agree bitwise, including on projections.
    #[test]
    fn selection_vectors_match_reference_at_root(
        a in proptest::collection::vec(-6i64..6, 1..60),
        t in -5i64..5,
        project in proptest::any::<bool>(),
    ) {
        let n = a.len();
        let c = catalog_from(a, vec![3; n], vec![0]);
        let builder = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.k").cmp(CmpOp::Ne, Expr::int(t)));
        let plan = if project {
            builder.project(&[("a.v", "v")]).build()
        } else {
            builder.build()
        };
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        prop_assert_eq!(optimized.batch, reference.batch);
        prop_assert_eq!(optimized.report, reference.report);
    }

    /// A cache hit returns the same batch and the same report as the cold
    /// run, and never re-executes while the catalog is unchanged.
    #[test]
    fn cache_hit_reproduces_cold_run(
        a in proptest::collection::vec(-6i64..6, 1..50),
        t in -5i64..5,
    ) {
        let n = a.len();
        let c = catalog_from(a, vec![1; n], vec![0]);
        let plan = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.k").cmp(CmpOp::Le, Expr::int(t)))
            .count_star(&["a.k"], "n")
            .build();
        let cache = av_engine::ExecCache::new(Pricing::paper_defaults(), 1);
        let cold = cache.run(&c, &plan).expect("cold");
        let warm = cache.run(&c, &plan).expect("warm");
        prop_assert_eq!(&cold.batch, &warm.batch);
        prop_assert_eq!(cold.report, warm.report);
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);
        // And the cached result matches a plain executor run.
        let direct = exec(&c, &plan);
        prop_assert_eq!(direct.batch, cold.batch);
        prop_assert_eq!(direct.report, cold.report);
    }

    /// Routing a query through a view admitted by the online lifecycle
    /// manager returns exactly the same rows as running it unrewritten —
    /// even when the view was defined under different table aliases and
    /// sits among twenty near-miss views admitted before and after it.
    #[test]
    fn lifecycle_routed_query_matches_unrewritten(
        keys in proptest::collection::vec(-5i64..5, 1..40),
        vals in proptest::collection::vec(-5i64..5, 40),
        t in -5i64..5,
    ) {
        use av_online::{AdmitOutcome, LifecycleConfig, ViewLifecycleManager};

        let n = keys.len();
        let mut c = catalog_from(keys, vals[..n].to_vec(), vec![0]);

        // Shared subtree: filter + project. The query aggregates on top of
        // it; the view is the same subtree under a different alias, the
        // decoys the same shape with another threshold.
        let subtree = |alias: &str, threshold: i64| {
            let k = format!("{alias}.k");
            let v = format!("{alias}.v");
            PlanBuilder::scan("ta", alias)
                .filter(Expr::col(&k).cmp(CmpOp::Gt, Expr::int(threshold)))
                .project(&[(k.as_str(), k.as_str()), (v.as_str(), v.as_str())])
                .build()
        };
        let query = PlanBuilder::from_plan(subtree("a", t)).count_star(&["a.k"], "n").build();

        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        // Offset 0 is the matching view: ten decoys before it, ten after.
        for offset in -10i64..=10 {
            let view_plan = subtree("x", t + offset);
            let view_fp = av_equiv::canonical_fingerprint(&view_plan);
            let outcome = mgr
                .admit(&mut c, view_plan, view_fp, 1.0, Pricing::paper_defaults())
                .expect("view materializes");
            prop_assert!(matches!(outcome, AdmitOutcome::Admitted { .. }));
        }
        prop_assert_eq!(mgr.live().len(), 21);

        let (routed, hits) = av_online::route_through_views(&c, mgr.index(), &query);
        prop_assert_eq!(hits, 1, "the one equivalent view fires, no decoy does");
        prop_assert_eq!(exec(&c, &query).batch, exec(&c, &routed).batch);
    }
}

/// End-to-end determinism on the JOB-like workload: the cache echoes every
/// query's cold batch and cost report exactly, and a second pass over the
/// workload is served from the cache.
#[test]
fn job_workload_is_thread_count_invariant() {
    let w = av_workload::job::job_workload(0.02, 7);
    let plans = w.plans();
    assert!(!plans.is_empty());
    let serial = Executor::new(&w.catalog, Pricing::paper_defaults());
    let cache = av_engine::ExecCache::new(Pricing::paper_defaults(), 1);
    for (i, p) in plans.iter().enumerate() {
        let rs = serial.run(p).expect("serial run");
        let rc = cache.run(&w.catalog, p).expect("cached run");
        assert_eq!(rs.batch, rc.batch, "query {i}: cache batch diverges");
        assert_eq!(rs.report, rc.report, "query {i}: cache diverges");
    }
    // A second pass over the workload is served entirely from the cache.
    for p in &plans {
        cache.run(&w.catalog, p).expect("warm run");
    }
    assert!(
        cache.stats().hits >= plans.len() as u64,
        "replaying the workload must hit the cache"
    );
}
