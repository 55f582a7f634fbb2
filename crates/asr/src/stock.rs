//! A library of stock functional blocks.
//!
//! Most blocks here are *strict liftings* of ordinary functions on
//! [`Datum`]: they emit ⊥ until every input is known and `Absent` when any
//! input is absent, which makes them monotone by construction. The
//! exceptions are the non-strict blocks ([`select`]) that can produce
//! determined outputs from partially unknown inputs — these are what make
//! delay-free feedback loops constructive.
//!
//! ```
//! use asr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SystemBuilder::new("gain2");
//! let x = b.add_input("x");
//! let g = b.add_block(stock::gain("g", 2));
//! let o = b.add_output("o");
//! b.connect(Source::ext(x), Sink::block(g, 0))?;
//! b.connect(Source::block(g, 0), Sink::ext(o))?;
//! let mut sys = b.build()?;
//! assert_eq!(sys.react(&[Value::int(21)])?[0], Value::int(42));
//! # Ok(())
//! # }
//! ```

use crate::block::{Block, BlockError};
use crate::value::{Datum, Value};

/// A strict lifting of a function on data to a monotone block.
///
/// Produced by [`lift`]; most stock blocks are instances of this type.
pub struct Lift<F> {
    name: String,
    inputs: usize,
    outputs: usize,
    f: F,
}

impl<F> Block for Lift<F>
where
    F: Fn(&[Datum]) -> Result<Vec<Datum>, BlockError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.inputs
    }

    fn output_arity(&self) -> usize {
        self.outputs
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        if !strict_ready(inputs, outputs) {
            return Ok(());
        }
        let data: Vec<Datum> = inputs
            .iter()
            .map(|v| v.datum().expect("known, non-absent value").clone())
            .collect();
        let result = (self.f)(&data)?;
        if result.len() != self.outputs {
            return Err(BlockError::new(format!(
                "block `{}` produced {} outputs, declared {}",
                self.name,
                result.len(),
                self.outputs
            )));
        }
        for (o, d) in outputs.iter_mut().zip(result) {
            *o = Value::Present(d);
        }
        Ok(())
    }
}

/// The strict prologue shared by the liftings: `false` (leaving
/// `outputs` ⊥) until every input is determined, and `false` with every
/// output `Absent` once any input is absent.
fn strict_ready(inputs: &[Value], outputs: &mut [Value]) -> bool {
    if inputs.iter().any(Value::is_unknown) {
        return false;
    }
    if inputs.contains(&Value::Absent) {
        outputs.fill(Value::Absent);
        return false;
    }
    true
}

/// Strictly lifts `f` into a block with the given arities.
///
/// The resulting block is monotone regardless of what `f` does, because
/// `f` is only consulted once all inputs are determined and present.
pub fn lift<F>(
    name: impl Into<String>,
    inputs: usize,
    outputs: usize,
    f: F,
) -> Lift<F>
where
    F: Fn(&[Datum]) -> Result<Vec<Datum>, BlockError> + Send + Sync,
{
    Lift {
        name: name.into(),
        inputs,
        outputs,
        f,
    }
}

fn int_arg(data: &[Datum], i: usize) -> Result<i64, BlockError> {
    data[i]
        .as_int()
        .ok_or_else(|| BlockError::new(format!("input {i} must be an integer, got {}", data[i])))
}

fn bool_arg(data: &[Datum], i: usize) -> Result<bool, BlockError> {
    data[i]
        .as_bool()
        .ok_or_else(|| BlockError::new(format!("input {i} must be a boolean, got {}", data[i])))
}

/// A strict binary integer operator. Equivalent to a [`lift`] of `f`,
/// but it reads its two inputs in place instead of collecting them, so
/// an instant allocates nothing here.
struct BinopInt<F> {
    name: String,
    op: &'static str,
    f: F,
}

impl<F> Block for BinopInt<F>
where
    F: Fn(i64, i64) -> Option<i64> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        2
    }

    fn output_arity(&self) -> usize {
        1
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        if !strict_ready(inputs, outputs) {
            return Ok(());
        }
        let int_input = |i: usize| {
            let d = inputs[i].datum().expect("known, non-absent value");
            d.as_int()
                .ok_or_else(|| BlockError::new(format!("input {i} must be an integer, got {d}")))
        };
        let (a, b) = (int_input(0)?, int_input(1)?);
        let r = (self.f)(a, b)
            .ok_or_else(|| BlockError::new(format!("{}({a}, {b}) overflowed", self.op)))?;
        outputs[0] = Value::int(r);
        Ok(())
    }
}

fn binop_int(
    name: impl Into<String>,
    op: &'static str,
    f: impl Fn(i64, i64) -> Option<i64> + Send + Sync + 'static,
) -> impl Block {
    BinopInt {
        name: name.into(),
        op,
        f,
    }
}

/// Integer addition (checked).
pub fn add(name: impl Into<String>) -> impl Block {
    binop_int(name, "add", i64::checked_add)
}

/// Integer subtraction (checked).
pub fn sub(name: impl Into<String>) -> impl Block {
    binop_int(name, "sub", i64::checked_sub)
}

/// Integer multiplication (checked).
pub fn mul(name: impl Into<String>) -> impl Block {
    binop_int(name, "mul", i64::checked_mul)
}

/// Integer division (checked; division by zero is a block error).
pub fn div(name: impl Into<String>) -> impl Block {
    binop_int(name, "div", |a, b| a.checked_div(b))
}

/// Integer minimum.
pub fn min(name: impl Into<String>) -> impl Block {
    binop_int(name, "min", |a, b| Some(a.min(b)))
}

/// Integer maximum.
pub fn max(name: impl Into<String>) -> impl Block {
    binop_int(name, "max", |a, b| Some(a.max(b)))
}

/// Adds the constant `k` to its single integer input.
pub fn offset(name: impl Into<String>, k: i64) -> impl Block {
    lift(name, 1, 1, move |d| {
        let a = int_arg(d, 0)?;
        let r = a
            .checked_add(k)
            .ok_or_else(|| BlockError::new(format!("offset({a}, {k}) overflowed")))?;
        Ok(vec![Datum::Int(r)])
    })
}

/// Multiplies its single integer input by the constant `k`.
pub fn gain(name: impl Into<String>, k: i64) -> impl Block {
    lift(name, 1, 1, move |d| {
        let a = int_arg(d, 0)?;
        let r = a
            .checked_mul(k)
            .ok_or_else(|| BlockError::new(format!("gain({a}, {k}) overflowed")))?;
        Ok(vec![Datum::Int(r)])
    })
}

/// Integer negation (checked).
pub fn neg(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| {
        let a = int_arg(d, 0)?;
        let r = a
            .checked_neg()
            .ok_or_else(|| BlockError::new(format!("neg({a}) overflowed")))?;
        Ok(vec![Datum::Int(r)])
    })
}

/// Clamps its integer input into `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn clamp(name: impl Into<String>, lo: i64, hi: i64) -> impl Block {
    assert!(lo <= hi, "clamp requires lo <= hi");
    lift(name, 1, 1, move |d| {
        Ok(vec![Datum::Int(int_arg(d, 0)?.clamp(lo, hi))])
    })
}

/// Integer absolute value (checked; `|i64::MIN|` overflows).
pub fn abs(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| {
        let a = int_arg(d, 0)?;
        let r = a
            .checked_abs()
            .ok_or_else(|| BlockError::new(format!("abs({a}) overflowed")))?;
        Ok(vec![Datum::Int(r)])
    })
}

/// Integer remainder (checked; remainder by zero is a block error).
pub fn rem(name: impl Into<String>) -> impl Block {
    binop_int(name, "rem", |a, b| a.checked_rem(b))
}

/// The sign of an integer input: -1, 0, or 1.
pub fn sign(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| Ok(vec![Datum::Int(int_arg(d, 0)?.signum())]))
}

/// Indexes a vector input: `(vec, index) -> vec[index]`.
pub fn vec_get(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| {
        let v = d[0]
            .as_vec()
            .ok_or_else(|| BlockError::new("input 0 must be a vector"))?;
        let i = int_arg(d, 1)?;
        let elem = usize::try_from(i)
            .ok()
            .and_then(|i| v.get(i))
            .ok_or_else(|| {
                BlockError::new(format!("index {i} out of bounds for length {}", v.len()))
            })?;
        Ok(vec![Datum::Int(*elem)])
    })
}

/// Boolean negation.
pub fn not(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| Ok(vec![Datum::Bool(!bool_arg(d, 0)?)]))
}

/// Boolean conjunction.
pub fn and(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| {
        Ok(vec![Datum::Bool(bool_arg(d, 0)? && bool_arg(d, 1)?)])
    })
}

/// Boolean disjunction.
pub fn or(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| {
        Ok(vec![Datum::Bool(bool_arg(d, 0)? || bool_arg(d, 1)?)])
    })
}

/// Equality comparison on arbitrary data.
pub fn eq(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| Ok(vec![Datum::Bool(d[0] == d[1])]))
}

/// Integer `<` comparison.
pub fn lt(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| {
        Ok(vec![Datum::Bool(int_arg(d, 0)? < int_arg(d, 1)?)])
    })
}

/// Integer `>` comparison.
pub fn gt(name: impl Into<String>) -> impl Block {
    lift(name, 2, 1, |d| {
        Ok(vec![Datum::Bool(int_arg(d, 0)? > int_arg(d, 1)?)])
    })
}

/// The identity block (a named wire).
pub fn wire(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| Ok(vec![d[0].clone()]))
}

/// Sums the elements of a vector input.
pub fn vec_sum(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| {
        let v = d[0]
            .as_vec()
            .ok_or_else(|| BlockError::new("input 0 must be a vector"))?;
        let mut acc: i64 = 0;
        for &x in v {
            acc = acc
                .checked_add(x)
                .ok_or_else(|| BlockError::new("vec_sum overflowed"))?;
        }
        Ok(vec![Datum::Int(acc)])
    })
}

/// The length of a vector input.
pub fn vec_len(name: impl Into<String>) -> impl Block {
    lift(name, 1, 1, |d| {
        let v = d[0]
            .as_vec()
            .ok_or_else(|| BlockError::new("input 0 must be a vector"))?;
        Ok(vec![Datum::Int(v.len() as i64)])
    })
}

/// A source block that emits the same datum every instant.
pub struct Const {
    name: String,
    value: Datum,
}

impl Block for Const {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        0
    }

    fn output_arity(&self) -> usize {
        1
    }

    fn eval(&self, _inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        outputs[0] = Value::Present(self.value.clone());
        Ok(())
    }
}

/// A constant integer source.
pub fn const_int(name: impl Into<String>, value: i64) -> Const {
    Const {
        name: name.into(),
        value: Datum::Int(value),
    }
}

/// A constant boolean source.
pub fn const_bool(name: impl Into<String>, value: bool) -> Const {
    Const {
        name: name.into(),
        value: Datum::Bool(value),
    }
}

/// The non-strict multiplexer: inputs are `(cond, then, else)`.
///
/// As soon as `cond` is determined the selected branch is forwarded even
/// if the other branch is still ⊥; an absent condition yields an absent
/// output. This non-strictness is what resolves constructive delay-free
/// cycles (see [`crate::fixpoint`] tests).
pub struct Select {
    name: String,
}

impl Block for Select {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        3
    }

    fn output_arity(&self) -> usize {
        1
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        match &inputs[0] {
            Value::Unknown => Ok(()),
            Value::Absent => {
                outputs[0] = Value::Absent;
                Ok(())
            }
            Value::Present(d) => {
                let c = d
                    .as_bool()
                    .ok_or_else(|| BlockError::new("select condition must be boolean"))?;
                outputs[0] = if c { inputs[1].clone() } else { inputs[2].clone() };
                Ok(())
            }
        }
    }
}

/// Builds a [`Select`] block.
pub fn select(name: impl Into<String>) -> Select {
    Select { name: name.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run1(block: &impl Block, inputs: &[Value]) -> Value {
        let mut out = vec![Value::Unknown; block.output_arity()];
        block.eval(inputs, &mut out).unwrap();
        out.pop().unwrap()
    }

    #[test]
    fn arithmetic_blocks() {
        assert_eq!(run1(&add("a"), &[Value::int(2), Value::int(3)]), Value::int(5));
        assert_eq!(run1(&sub("s"), &[Value::int(2), Value::int(3)]), Value::int(-1));
        assert_eq!(run1(&mul("m"), &[Value::int(2), Value::int(3)]), Value::int(6));
        assert_eq!(run1(&div("d"), &[Value::int(7), Value::int(2)]), Value::int(3));
        assert_eq!(run1(&min("m"), &[Value::int(7), Value::int(2)]), Value::int(2));
        assert_eq!(run1(&max("m"), &[Value::int(7), Value::int(2)]), Value::int(7));
        assert_eq!(run1(&neg("n"), &[Value::int(7)]), Value::int(-7));
        assert_eq!(run1(&offset("o", 10), &[Value::int(7)]), Value::int(17));
        assert_eq!(run1(&gain("g", 3), &[Value::int(7)]), Value::int(21));
        assert_eq!(run1(&clamp("c", 0, 255), &[Value::int(300)]), Value::int(255));
        assert_eq!(run1(&clamp("c", 0, 255), &[Value::int(-5)]), Value::int(0));
    }

    #[test]
    fn abs_rem_sign_and_vec_get() {
        assert_eq!(run1(&abs("a"), &[Value::int(-5)]), Value::int(5));
        assert_eq!(run1(&abs("a"), &[Value::int(5)]), Value::int(5));
        let mut out = vec![Value::Unknown];
        assert!(abs("a").eval(&[Value::int(i64::MIN)], &mut out).is_err());
        assert_eq!(run1(&rem("r"), &[Value::int(7), Value::int(3)]), Value::int(1));
        assert!(rem("r").eval(&[Value::int(7), Value::int(0)], &mut out).is_err());
        assert_eq!(run1(&sign("s"), &[Value::int(-9)]), Value::int(-1));
        assert_eq!(run1(&sign("s"), &[Value::int(0)]), Value::int(0));
        assert_eq!(
            run1(&vec_get("v"), &[Value::vec(vec![4, 5, 6]), Value::int(1)]),
            Value::int(5)
        );
        assert!(vec_get("v")
            .eval(&[Value::vec(vec![4]), Value::int(7)], &mut out)
            .is_err());
        assert!(vec_get("v")
            .eval(&[Value::vec(vec![4]), Value::int(-1)], &mut out)
            .is_err());
    }

    #[test]
    fn logic_and_comparison_blocks() {
        assert_eq!(
            run1(&and("x"), &[Value::bool(true), Value::bool(false)]),
            Value::bool(false)
        );
        assert_eq!(
            run1(&or("x"), &[Value::bool(true), Value::bool(false)]),
            Value::bool(true)
        );
        assert_eq!(run1(&not("x"), &[Value::bool(true)]), Value::bool(false));
        assert_eq!(
            run1(&eq("x"), &[Value::int(1), Value::int(1)]),
            Value::bool(true)
        );
        assert_eq!(
            run1(&lt("x"), &[Value::int(1), Value::int(2)]),
            Value::bool(true)
        );
        assert_eq!(
            run1(&gt("x"), &[Value::int(1), Value::int(2)]),
            Value::bool(false)
        );
    }

    #[test]
    fn vector_blocks() {
        assert_eq!(
            run1(&vec_sum("v"), &[Value::vec(vec![1, 2, 3])]),
            Value::int(6)
        );
        assert_eq!(
            run1(&vec_len("v"), &[Value::vec(vec![1, 2, 3])]),
            Value::int(3)
        );
        let mut out = vec![Value::Unknown];
        assert!(vec_sum("v").eval(&[Value::int(1)], &mut out).is_err());
    }

    #[test]
    fn strictness_of_lifted_blocks() {
        let a = add("a");
        // ⊥ in → ⊥ out.
        assert_eq!(run1(&a, &[Value::Unknown, Value::int(1)]), Value::Unknown);
        // Absent in (all known) → Absent out.
        assert_eq!(run1(&a, &[Value::Absent, Value::int(1)]), Value::Absent);
    }

    #[test]
    fn type_errors_are_block_errors() {
        let mut out = vec![Value::Unknown];
        assert!(add("a")
            .eval(&[Value::bool(true), Value::int(1)], &mut out)
            .is_err());
        assert!(not("n").eval(&[Value::int(1)], &mut out).is_err());
    }

    #[test]
    fn overflow_is_detected() {
        let mut out = vec![Value::Unknown];
        assert!(add("a")
            .eval(&[Value::int(i64::MAX), Value::int(1)], &mut out)
            .is_err());
        assert!(div("d")
            .eval(&[Value::int(1), Value::int(0)], &mut out)
            .is_err());
        assert!(neg("n").eval(&[Value::int(i64::MIN)], &mut out).is_err());
    }

    #[test]
    fn select_is_non_strict_in_unselected_branch() {
        let s = select("s");
        assert_eq!(
            run1(&s, &[Value::bool(true), Value::int(1), Value::Unknown]),
            Value::int(1)
        );
        assert_eq!(
            run1(&s, &[Value::bool(false), Value::Unknown, Value::int(2)]),
            Value::int(2)
        );
        assert_eq!(
            run1(&s, &[Value::Unknown, Value::int(1), Value::int(2)]),
            Value::Unknown
        );
        assert_eq!(
            run1(&s, &[Value::Absent, Value::int(1), Value::int(2)]),
            Value::Absent
        );
    }

    #[test]
    fn const_blocks_need_no_inputs() {
        assert_eq!(run1(&const_int("c", 9), &[]), Value::int(9));
        assert_eq!(run1(&const_bool("c", true), &[]), Value::bool(true));
    }

    #[test]
    fn wire_and_eq_pass_any_datum() {
        let v = Value::vec(vec![1, 2]);
        assert_eq!(run1(&wire("w"), std::slice::from_ref(&v)), v);
        assert_eq!(run1(&eq("e"), &[v.clone(), v]), Value::bool(true));
    }

    #[test]
    fn lift_arity_mismatch_is_reported() {
        let bad = lift("bad", 1, 2, |d| Ok(vec![d[0].clone()]));
        let mut out = vec![Value::Unknown; 2];
        assert!(bad.eval(&[Value::int(1)], &mut out).is_err());
    }
}
