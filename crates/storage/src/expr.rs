//! Expressions and aggregates over decoded rows.
//!
//! Evaluation charges execution-unit work on the simulated CPU: comparisons
//! branch, arithmetic adds/multiplies, dispatch costs a generic op. This is
//! where the engines' "calculation" energy (part of `E_other`) comes from.

use crate::tuple::Row;
use crate::value::Value;
use simcore::{Cpu, ExecOp};
use std::cmp::Ordering;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column reference by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Comparison → Int(0/1) or Null.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical and (NULL-propagating).
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// Arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Substring containment (`LIKE '%pat%'`).
    Contains(Box<Expr>, String),
    /// String prefix (`LIKE 'pat%'`).
    StartsWith(Box<Expr>, String),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Value, Value),
    /// `expr IN (v, ...)`.
    InList(Box<Expr>, Vec<Value>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }
    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(Value::Float(v))
    }
    /// Comparison.
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }
    /// Conjunction of a literal list of terms; an empty list does not
    /// compile. Lists built at run time go through [`Expr::conjoin`].
    ///
    /// ```compile_fail,E0080
    /// let _ = storage::Expr::and_all([]);
    /// ```
    pub fn and_all<const N: usize>(parts: [Expr; N]) -> Expr {
        const { assert!(N > 0, "and_all needs at least one term") };
        // Never taken for N > 0; TRUE is the empty conjunction anyway.
        Expr::conjoin(parts).unwrap_or(Expr::int(1))
    }

    /// Conjunction of the terms, left-nested; `None` when there are none.
    pub fn conjoin<I: IntoIterator<Item = Expr>>(parts: I) -> Option<Expr> {
        parts
            .into_iter()
            .reduce(|acc, e| Expr::And(Box::new(acc), Box::new(e)))
    }

    /// Evaluate against a row, charging simulated execution work.
    pub fn eval(&self, cpu: &mut Cpu, row: &Row) -> Value {
        match self {
            Expr::Col(i) => {
                cpu.exec(ExecOp::Generic);
                row.get(*i).cloned().unwrap_or(Value::Null)
            }
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, l, r) => {
                let (a, b) = (l.eval(cpu, row), r.eval(cpu, row));
                cpu.exec(ExecOp::Branch);
                match a.sql_cmp(&b) {
                    Some(ord) => Value::Int(op.test(ord) as i64),
                    None => Value::Null,
                }
            }
            Expr::And(l, r) => {
                let a = l.eval(cpu, row);
                cpu.exec(ExecOp::Branch);
                // Short-circuit false.
                if a == Value::Int(0) {
                    return Value::Int(0);
                }
                let b = r.eval(cpu, row);
                match (truth(&a), truth(&b)) {
                    (Some(false), _) | (_, Some(false)) => Value::Int(0),
                    (Some(true), Some(true)) => Value::Int(1),
                    _ => Value::Null,
                }
            }
            Expr::Or(l, r) => {
                let a = l.eval(cpu, row);
                cpu.exec(ExecOp::Branch);
                if a == Value::Int(1) {
                    return Value::Int(1);
                }
                let b = r.eval(cpu, row);
                match (truth(&a), truth(&b)) {
                    (Some(true), _) | (_, Some(true)) => Value::Int(1),
                    (Some(false), Some(false)) => Value::Int(0),
                    _ => Value::Null,
                }
            }
            Expr::Not(e) => {
                cpu.exec(ExecOp::Branch);
                match truth(&e.eval(cpu, row)) {
                    Some(b) => Value::Int(!b as i64),
                    None => Value::Null,
                }
            }
            Expr::Bin(op, l, r) => {
                let (a, b) = (l.eval(cpu, row), r.eval(cpu, row));
                match op {
                    BinOp::Add | BinOp::Sub => cpu.exec(ExecOp::Add),
                    BinOp::Mul | BinOp::Div => cpu.exec(ExecOp::Mul),
                }
                bin_arith(*op, &a, &b)
            }
            Expr::Contains(e, pat) => {
                let v = e.eval(cpu, row);
                match v.as_str() {
                    Some(s) => {
                        // A find loop: one branch per scanned byte.
                        cpu.exec_n(ExecOp::Branch, s.len().max(1) as u64);
                        Value::Int(s.contains(pat.as_str()) as i64)
                    }
                    None => Value::Null,
                }
            }
            Expr::StartsWith(e, pat) => {
                let v = e.eval(cpu, row);
                match v.as_str() {
                    Some(s) => {
                        cpu.exec_n(ExecOp::Branch, pat.len().max(1) as u64);
                        Value::Int(s.starts_with(pat.as_str()) as i64)
                    }
                    None => Value::Null,
                }
            }
            Expr::Between(e, lo, hi) => {
                let v = e.eval(cpu, row);
                cpu.exec_n(ExecOp::Branch, 2);
                match (v.sql_cmp(lo), v.sql_cmp(hi)) {
                    (Some(a), Some(b)) => {
                        Value::Int((a != Ordering::Less && b != Ordering::Greater) as i64)
                    }
                    _ => Value::Null,
                }
            }
            Expr::InList(e, list) => {
                let v = e.eval(cpu, row);
                cpu.exec_n(ExecOp::Branch, list.len() as u64);
                if matches!(v, Value::Null) {
                    return Value::Null;
                }
                Value::Int(list.iter().any(|x| v.group_eq(x)) as i64)
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn matches(&self, cpu: &mut Cpu, row: &Row) -> bool {
        truth(&self.eval(cpu, row)).unwrap_or(false)
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Int(0) => Some(false),
        Value::Int(_) => Some(true),
        Value::Null => None,
        _ => Some(true),
    }
}

fn bin_arith(op: BinOp, a: &Value, b: &Value) -> Value {
    if matches!(a, Value::Null) || matches!(b, Value::Null) {
        return Value::Null;
    }
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return match op {
            BinOp::Add => Value::Int(x.wrapping_add(*y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(*y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(*y)),
            BinOp::Div => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x / y)
                }
            }
        };
    }
    let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
        return Value::Null;
    };
    match op {
        BinOp::Add => Value::Float(x + y),
        BinOp::Sub => Value::Float(x - y),
        BinOp::Mul => Value::Float(x * y),
        BinOp::Div => {
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x / y)
            }
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` (non-NULL).
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One aggregate in an aggregation's output.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Which function.
    pub f: AggFn,
    /// The argument (ignored for `COUNT(*)`).
    pub arg: Option<Expr>,
}

impl AggSpec {
    /// `COUNT(*)`.
    pub fn count_star() -> AggSpec {
        AggSpec {
            f: AggFn::CountStar,
            arg: None,
        }
    }
    /// Aggregate over an expression.
    pub fn over(f: AggFn, e: Expr) -> AggSpec {
        AggSpec { f, arg: Some(e) }
    }
}

/// Running aggregate state.
#[derive(Debug, Clone)]
pub struct AggState {
    count: u64,
    sum: f64,
    int_sum: i64,
    int_only: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Fresh state.
    pub fn new() -> AggState {
        AggState {
            count: 0,
            sum: 0.0,
            int_sum: 0,
            int_only: true,
            min: None,
            max: None,
        }
    }

    /// Fold one value in (charging an add on the CPU).
    pub fn update(&mut self, cpu: &mut Cpu, v: &Value) {
        cpu.exec(ExecOp::Add);
        if matches!(v, Value::Null) {
            return;
        }
        self.count += 1;
        if let Value::Int(x) = v {
            self.int_sum = self.int_sum.wrapping_add(*x);
        } else {
            self.int_only = false;
        }
        if let Some(f) = v.as_float() {
            self.sum += f;
        }
        let better_min = self
            .min
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less));
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self
            .max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater));
        if better_max {
            self.max = Some(v.clone());
        }
    }

    /// Count-star update (no argument).
    pub fn bump(&mut self, cpu: &mut Cpu) {
        cpu.exec(ExecOp::Add);
        self.count += 1;
    }

    /// Finalise for a function.
    pub fn result(&self, f: AggFn) -> Value {
        match f {
            AggFn::CountStar | AggFn::Count => Value::Int(self.count as i64),
            AggFn::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFn::Min => self.min.clone().unwrap_or(Value::Null),
            AggFn::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Cpu};

    fn cpu() -> Cpu {
        Cpu::new(ArchConfig::intel_i7_4790())
    }

    fn row() -> Row {
        vec![
            Value::Int(5),
            Value::Float(2.5),
            Value::Str("hello world".into()),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons_and_logic() {
        let mut c = cpu();
        let r = row();
        let e = Expr::and_all([
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3)),
            Expr::cmp(CmpOp::Le, Expr::col(1), Expr::float(2.5)),
        ]);
        assert!(e.matches(&mut c, &r));
        let e2 = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(6));
        assert!(!e2.matches(&mut c, &r));
    }

    #[test]
    fn null_is_not_a_match() {
        let mut c = cpu();
        let r = row();
        let e = Expr::cmp(CmpOp::Eq, Expr::col(3), Expr::int(1));
        assert!(!e.matches(&mut c, &r));
        // NOT(NULL) is also not a match.
        assert!(!Expr::Not(Box::new(e)).matches(&mut c, &r));
    }

    #[test]
    fn arithmetic_types() {
        let mut c = cpu();
        let r = row();
        let e = Expr::Bin(BinOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::int(4)));
        assert_eq!(e.eval(&mut c, &r), Value::Int(20));
        let f = Expr::Bin(BinOp::Add, Box::new(Expr::col(1)), Box::new(Expr::int(1)));
        assert_eq!(f.eval(&mut c, &r), Value::Float(3.5));
        let div0 = Expr::Bin(BinOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(div0.eval(&mut c, &r), Value::Null);
    }

    #[test]
    fn string_predicates() {
        let mut c = cpu();
        let r = row();
        assert!(Expr::Contains(Box::new(Expr::col(2)), "lo wo".into()).matches(&mut c, &r));
        assert!(Expr::StartsWith(Box::new(Expr::col(2)), "hell".into()).matches(&mut c, &r));
        assert!(!Expr::StartsWith(Box::new(Expr::col(2)), "world".into()).matches(&mut c, &r));
    }

    #[test]
    fn between_and_in_list() {
        let mut c = cpu();
        let r = row();
        assert!(
            Expr::Between(Box::new(Expr::col(0)), Value::Int(5), Value::Int(9)).matches(&mut c, &r)
        );
        assert!(
            !Expr::Between(Box::new(Expr::col(0)), Value::Int(6), Value::Int(9))
                .matches(&mut c, &r)
        );
        assert!(
            Expr::InList(Box::new(Expr::col(0)), vec![Value::Int(1), Value::Int(5)])
                .matches(&mut c, &r)
        );
    }

    #[test]
    fn eval_charges_cpu_work() {
        let mut c = cpu();
        let r = row();
        let before = c.pmu_snapshot();
        let e = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3));
        e.matches(&mut c, &r);
        let d = c.pmu_snapshot().delta(&before);
        assert!(d.get(simcore::Event::BranchOps) >= 1);
        assert!(d.get(simcore::Event::GenericOps) >= 1);
    }

    #[test]
    fn aggregates() {
        let mut c = cpu();
        let mut st = AggState::new();
        for v in [Value::Int(3), Value::Int(5), Value::Null, Value::Int(-2)] {
            st.update(&mut c, &v);
        }
        assert_eq!(st.result(AggFn::Count), Value::Int(3));
        assert_eq!(st.result(AggFn::Sum), Value::Int(6));
        assert_eq!(st.result(AggFn::Min), Value::Int(-2));
        assert_eq!(st.result(AggFn::Max), Value::Int(5));
        assert_eq!(st.result(AggFn::Avg), Value::Float(2.0));
    }

    #[test]
    fn empty_aggregates() {
        let st = AggState::new();
        assert_eq!(st.result(AggFn::Count), Value::Int(0));
        assert_eq!(st.result(AggFn::Sum), Value::Null);
        assert_eq!(st.result(AggFn::Min), Value::Null);
    }

    #[test]
    fn mixed_sum_becomes_float() {
        let mut c = cpu();
        let mut st = AggState::new();
        st.update(&mut c, &Value::Int(1));
        st.update(&mut c, &Value::Float(0.5));
        assert_eq!(st.result(AggFn::Sum), Value::Float(1.5));
    }
}
