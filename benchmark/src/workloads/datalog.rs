//! `datalog_churn`: the Datalog engine alone, no COP. Set-up bulk-loads 10^5
//! `assign` rows into a join + SUM-aggregate + filter program (the `load`
//! phase); each operation then moves one `assign` row and re-runs the rules
//! to fixpoint (the `delta` phase).

use std::time::Instant;

use cologne_datalog::{
    AggFunc, Atom, BodyItem, Engine, Expr, Head, HeadArg, NodeId, Op, Rule, Term, Tuple, Value,
};

use super::{record_engine, warmup_ops, Round, Workload};
use crate::fixtures::Rng;
use crate::trace::Trace;

/// `hostCpu` is compared with sums recomputed from the benchmark's own copy
/// of `assign` once in this many operations, and after the last.
const CHECK_EVERY: usize = 20;

pub struct Churn {
    seed: u64,
    ops: usize,
    rows: usize,
    state: Option<State>,
}

struct State {
    rng: Rng,
    engine: Engine,
    /// The benchmark's own copy of `assign(V, H, C)`: `(host, cpu)` by VM.
    assign: Vec<(i64, i64)>,
    hosts: i64,
    load_ns: u64,
}

/// `placement(V,H,S) <- assign(V,H,C), hostSpec(H,S)`, `hostCpu(H,SUM<C>) <-
/// assign(V,H,C)` and `overloaded(H) <- hostCpu(H,L), L > threshold`: the
/// cloud-shaped rules of `crates/bench/benches/bench_datalog_scale.rs`.
fn cloud_engine(threshold: i64) -> Engine {
    let var = Term::var;
    let assign = || BodyItem::Atom(Atom::new("assign", vec![var("V"), var("H"), var("C")]));
    let mut e = Engine::new(NodeId(0));
    e.add_rule(Rule::new(
        "p1",
        Head::simple("placement", vec![var("V"), var("H"), var("S")]),
        vec![
            assign(),
            BodyItem::Atom(Atom::new("hostSpec", vec![var("H"), var("S")])),
        ],
    ));
    e.add_rule(Rule::new(
        "a1",
        Head {
            relation: "hostCpu".into(),
            args: vec![
                HeadArg::Term(var("H")),
                HeadArg::Agg(AggFunc::Sum, "C".into()),
            ],
            located: false,
        },
        vec![assign()],
    ));
    e.add_rule(Rule::new(
        "o1",
        Head::simple("overloaded", vec![var("H")]),
        vec![
            BodyItem::Atom(Atom::new("hostCpu", vec![var("H"), var("L")])),
            BodyItem::Filter(Expr::bin(Op::Gt, Expr::var("L"), Expr::int(threshold))),
        ],
    ));
    e
}

fn assign_row(vm: usize, (host, cpu): (i64, i64)) -> Tuple {
    vec![Value::Int(vm as i64), Value::Int(host), Value::Int(cpu)]
}

impl Churn {
    pub fn new(seed: u64, ops: usize, rows: usize) -> Self {
        Churn {
            seed,
            ops,
            rows,
            state: None,
        }
    }

    /// Move one VM to another host with another cpu demand.
    fn next_delta(st: &mut State) -> (Tuple, Tuple) {
        let vm = st.rng.index(st.assign.len());
        let old = assign_row(vm, st.assign[vm]);
        st.assign[vm] = (st.rng.range(0, st.hosts), st.rng.range(0, 40));
        (old, assign_row(vm, st.assign[vm]))
    }

    fn apply(engine: &mut Engine, (old, new): (Tuple, Tuple)) {
        engine
            .try_delete("assign", old)
            .expect("old row matches the schema");
        engine
            .try_insert("assign", new)
            .expect("new row matches the schema");
    }

    /// `hostCpu` must equal the per-host sums of the benchmark's own copy.
    fn verify(st: &State) -> Result<(), String> {
        let mut sums = vec![0i64; st.hosts as usize];
        let mut used = vec![false; st.hosts as usize];
        for &(host, cpu) in &st.assign {
            sums[host as usize] += cpu;
            used[host as usize] = true;
        }
        let mut seen = 0usize;
        for row in st.engine.scan("hostCpu") {
            let (Some(host), Some(sum)) = (row[0].as_int(), row[1].as_int()) else {
                return Err(format!("malformed hostCpu row {row:?}"));
            };
            if sums.get(host as usize) != Some(&sum) {
                return Err(format!(
                    "hostCpu({host}) is {sum}, the assign rows sum to {:?}",
                    sums.get(host as usize)
                ));
            }
            seen += 1;
        }
        let expected = used.iter().filter(|&&u| u).count();
        if seen != expected {
            return Err(format!("{seen} hostCpu rows for {expected} hosts in use"));
        }
        Ok(())
    }

    fn finish(round: &mut Round, st: &State, before: &cologne_datalog::EngineStats) {
        record_engine(round, st.engine.stats(), Some(before));
        round.add("load.tuples", (st.assign.len() as i64 + st.hosts) as f64);
        round.add("load.ns", st.load_ns as f64);
        round.check("hostCpu", Self::verify(st));
    }
}

impl Workload for Churn {
    fn setup(&mut self, round: u64, _traced: bool) {
        self.state = None; // free the previous round's engine first
        let mut rng = Rng::new(self.seed, round);
        let hosts = (self.rows / 100).max(2) as i64;
        let assign: Vec<(i64, i64)> = (0..self.rows)
            .map(|_| (rng.range(0, hosts), rng.range(0, 40)))
            .collect();
        let assign_rows: Vec<Tuple> = assign
            .iter()
            .enumerate()
            .map(|(vm, &row)| assign_row(vm, row))
            .collect();
        let specs: Vec<Tuple> = (0..hosts)
            .map(|h| vec![Value::Int(h), Value::Int(rng.range(0, 4))])
            .collect();

        let t = Instant::now();
        let mut engine = cloud_engine(20 * 100);
        engine
            .try_insert_all("hostSpec", specs)
            .expect("hostSpec rows match the schema");
        engine
            .try_insert_all("assign", assign_rows)
            .expect("assign rows match the schema");
        engine.run();
        let load_ns = t.elapsed().as_nanos() as u64;

        let mut st = State {
            rng,
            engine,
            assign,
            hosts,
            load_ns,
        };
        for _ in 0..warmup_ops(self.ops) {
            let delta = Self::next_delta(&mut st);
            Self::apply(&mut st.engine, delta);
            st.engine.run();
        }
        Self::verify(&st).expect("loaded engine agrees with the fixture");
        self.state = Some(st);
    }

    fn run(&mut self) -> Round {
        let mut st = self.state.take().expect("setup ran");
        let mut round = Round::default();
        let before = st.engine.stats().clone();
        for i in 0..self.ops {
            let delta = Self::next_delta(&mut st);
            let t = Instant::now();
            Self::apply(&mut st.engine, delta);
            st.engine.run();
            round.op_done(t.elapsed().as_nanos() as u64);
            if i % CHECK_EVERY == 0 {
                round.check("hostCpu", Self::verify(&st));
            }
        }
        Self::finish(&mut round, &st, &before);
        round
    }

    fn run_traced(&mut self, trace: &mut Trace) -> Round {
        let mut st = self.state.take().expect("setup ran");
        let mut round = Round::default();
        let before = st.engine.stats().clone();
        for _ in 0..self.ops {
            let delta = Self::next_delta(&mut st);
            trace.next_op();
            let t = Instant::now();
            let op = trace.enter("op");
            trace.span("datalog.apply", || Self::apply(&mut st.engine, delta));
            trace.span("datalog.run", || st.engine.run());
            trace.exit(op);
            round.op_done(t.elapsed().as_nanos() as u64);
        }
        Self::finish(&mut round, &st, &before);
        round
    }
}
