//! Name resolution: the class table.
//!
//! Resolution follows the paper's compile-time binding assumption (§4):
//! *all* classes that make up a specification are known and bound at
//! compile time — JT has no dynamic loading. The table also injects the
//! built-in classes of the policy-of-use *extension* library:
//!
//! * `Object` — root of the hierarchy, with the blocking coordination
//!   methods `wait`/`notify`/`notifyAll`,
//! * `ASR` — the base class a specification must extend (paper §4.2): its
//!   `read`/`write`/`readVec`/`writeVec` methods convey signals between a
//!   block and its environment, and its `run` method is the behaviour,
//! * `Thread` — Java-style threads (`start`, `join`, `sleep`, `run`),
//!   provided so that *unrefined* designs parse and run; the ASR policy
//!   of use then bans their use.

use crate::ast::{Modifiers, Program, Type, Visibility};
use crate::token::Span;
use std::collections::BTreeMap;
use std::fmt;

/// Signature of a field as seen by resolution and type checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSig {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Modifier set.
    pub modifiers: Modifiers,
}

/// Signature of a method or constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name.
    pub name: String,
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type (`None` = void).
    pub ret: Option<Type>,
    /// Modifier set.
    pub modifiers: Modifiers,
    /// True for methods of the built-in library.
    pub is_builtin: bool,
}

/// Everything known about one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// Class name.
    pub name: String,
    /// Superclass name (`None` only for `Object`).
    pub superclass: Option<String>,
    /// True for `Object`, `ASR`, and `Thread`.
    pub is_builtin: bool,
    /// Own (non-inherited) fields.
    pub fields: Vec<FieldSig>,
    /// Own (non-inherited) methods.
    pub methods: Vec<MethodSig>,
    /// Constructors.
    pub ctors: Vec<MethodSig>,
}

/// The resolved class table of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTable {
    classes: BTreeMap<String, ClassInfo>,
}

/// Errors detected during resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// Two classes share a name (or a user class shadows a builtin).
    DuplicateClass { name: String, span: Span },
    /// `extends` names a class that does not exist.
    UnknownSuperclass { class: String, superclass: String },
    /// The inheritance chain loops.
    InheritanceCycle { class: String },
    /// Two members of one class share a name.
    DuplicateMember { class: String, member: String },
    /// Two constructors of one class take the same number of
    /// parameters: `new` selects a constructor by arity alone.
    DuplicateConstructor { class: String, arity: usize },
    /// A declared type names an unknown class.
    UnknownType { class: String, ty: String },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::DuplicateClass { name, span } => {
                write!(f, "duplicate class `{name}` at {span}")
            }
            ResolveError::UnknownSuperclass { class, superclass } => {
                write!(f, "class `{class}` extends unknown class `{superclass}`")
            }
            ResolveError::InheritanceCycle { class } => {
                write!(f, "inheritance cycle through class `{class}`")
            }
            ResolveError::DuplicateMember { class, member } => {
                write!(f, "duplicate member `{member}` in class `{class}`")
            }
            ResolveError::DuplicateConstructor { class, arity } => {
                write!(
                    f,
                    "class `{class}` declares two constructors of arity {arity}"
                )
            }
            ResolveError::UnknownType { class, ty } => {
                write!(f, "class `{class}` references unknown type `{ty}`")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

impl ClassTable {
    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassInfo> {
        self.classes.get(name)
    }

    /// Iterates over all classes (builtins included), in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassInfo> {
        self.classes.values()
    }

    /// True iff `sub` equals `ancestor` or transitively extends it.
    pub fn is_subclass_of(&self, sub: &str, ancestor: &str) -> bool {
        let mut current = Some(sub);
        while let Some(name) = current {
            if name == ancestor {
                return true;
            }
            current = self
                .classes
                .get(name)
                .and_then(|c| c.superclass.as_deref());
        }
        false
    }

    /// Finds a field visible on `class` (walking up the hierarchy).
    /// Returns the owning class name alongside the signature.
    pub fn field_of(&self, class: &str, field: &str) -> Option<(&str, &FieldSig)> {
        let mut current = self.classes.get(class);
        while let Some(c) = current {
            if let Some(f) = c.fields.iter().find(|f| f.name == field) {
                return Some((c.name.as_str(), f));
            }
            current = c.superclass.as_deref().and_then(|s| self.classes.get(s));
        }
        None
    }

    /// Finds a method visible on `class` (walking up the hierarchy).
    /// Returns the owning class name alongside the signature.
    pub fn method_of(&self, class: &str, method: &str) -> Option<(&str, &MethodSig)> {
        let mut current = self.classes.get(class);
        while let Some(c) = current {
            if let Some(m) = c.methods.iter().find(|m| m.name == method) {
                return Some((c.name.as_str(), m));
            }
            current = c.superclass.as_deref().and_then(|s| self.classes.get(s));
        }
        None
    }

    /// The constructors of `class` (not inherited, as in Java).
    pub fn ctors_of(&self, class: &str) -> &[MethodSig] {
        self.classes
            .get(class)
            .map(|c| c.ctors.as_slice())
            .unwrap_or(&[])
    }
}

fn builtin_method(name: &str, params: Vec<Type>, ret: Option<Type>) -> MethodSig {
    MethodSig {
        name: name.to_string(),
        params,
        ret,
        modifiers: Modifiers {
            visibility: Visibility::Public,
            is_static: false,
            is_final: false,
        },
        is_builtin: true,
    }
}

fn builtins() -> Vec<ClassInfo> {
    vec![
        ClassInfo {
            name: "Object".to_string(),
            superclass: None,
            is_builtin: true,
            fields: Vec::new(),
            methods: vec![
                builtin_method("wait", vec![], None),
                builtin_method("notify", vec![], None),
                builtin_method("notifyAll", vec![], None),
            ],
            ctors: Vec::new(),
        },
        ClassInfo {
            name: "ASR".to_string(),
            superclass: Some("Object".to_string()),
            is_builtin: true,
            fields: Vec::new(),
            methods: vec![
                builtin_method("read", vec![Type::Int], Some(Type::Int)),
                builtin_method("write", vec![Type::Int, Type::Int], None),
                builtin_method("readVec", vec![Type::Int], Some(Type::Int.array_of())),
                builtin_method(
                    "writeVec",
                    vec![Type::Int, Type::Int.array_of()],
                    None,
                ),
                // The behaviour hook; subclasses override it.
                builtin_method("run", vec![], None),
            ],
            ctors: Vec::new(),
        },
        ClassInfo {
            name: "Thread".to_string(),
            superclass: Some("Object".to_string()),
            is_builtin: true,
            fields: Vec::new(),
            methods: vec![
                builtin_method("start", vec![], None),
                builtin_method("join", vec![], None),
                builtin_method("sleep", vec![Type::Int], None),
                builtin_method("run", vec![], None),
            ],
            ctors: Vec::new(),
        },
    ]
}

/// Builds the class table of `program`, injecting the builtin library.
///
/// # Errors
///
/// See [`ResolveError`].
pub fn resolve(program: &Program) -> Result<ClassTable, ResolveError> {
    let mut classes: BTreeMap<String, ClassInfo> = BTreeMap::new();
    for b in builtins() {
        classes.insert(b.name.clone(), b);
    }

    for class in &program.classes {
        if classes.contains_key(&class.name) {
            return Err(ResolveError::DuplicateClass {
                name: class.name.clone(),
                span: class.span,
            });
        }
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut ctors = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for f in &class.fields {
            if !seen.insert(f.name.clone()) {
                return Err(ResolveError::DuplicateMember {
                    class: class.name.clone(),
                    member: f.name.clone(),
                });
            }
            fields.push(FieldSig {
                name: f.name.clone(),
                ty: f.ty.clone(),
                modifiers: f.modifiers,
            });
        }
        for m in &class.methods {
            if !seen.insert(m.name.clone()) {
                return Err(ResolveError::DuplicateMember {
                    class: class.name.clone(),
                    member: m.name.clone(),
                });
            }
            methods.push(MethodSig {
                name: m.name.clone(),
                params: m.params.iter().map(|p| p.ty.clone()).collect(),
                ret: m.return_type.clone(),
                modifiers: m.modifiers,
                is_builtin: false,
            });
        }
        let mut arities = std::collections::BTreeSet::new();
        for c in &class.ctors {
            if !arities.insert(c.params.len()) {
                return Err(ResolveError::DuplicateConstructor {
                    class: class.name.clone(),
                    arity: c.params.len(),
                });
            }
            ctors.push(MethodSig {
                name: c.name.clone(),
                params: c.params.iter().map(|p| p.ty.clone()).collect(),
                ret: None,
                modifiers: c.modifiers,
                is_builtin: false,
            });
        }
        classes.insert(
            class.name.clone(),
            ClassInfo {
                name: class.name.clone(),
                superclass: Some(
                    class
                        .superclass
                        .clone()
                        .unwrap_or_else(|| "Object".to_string()),
                ),
                is_builtin: false,
                fields,
                methods,
                ctors,
            },
        );
    }

    // Superclass existence and acyclicity.
    for info in classes.values() {
        if let Some(s) = &info.superclass {
            if !classes.contains_key(s) {
                return Err(ResolveError::UnknownSuperclass {
                    class: info.name.clone(),
                    superclass: s.clone(),
                });
            }
        }
        let mut slow = info.name.as_str();
        let mut fast = info.name.as_str();
        loop {
            let step = |n: &str| -> Option<&str> {
                classes.get(n).and_then(|c| c.superclass.as_deref())
            };
            let Some(f1) = step(fast) else { break };
            let Some(f2) = step(f1) else { break };
            fast = f2;
            slow = step(slow).expect("slow trails fast");
            if slow == fast {
                return Err(ResolveError::InheritanceCycle {
                    class: info.name.clone(),
                });
            }
        }
    }

    // Every referenced class type must exist.
    let table = ClassTable { classes };
    for class in &program.classes {
        let check_ty = |ty: &Type| -> Result<(), ResolveError> {
            let mut base = ty;
            while let Type::Array(inner) = base {
                base = inner;
            }
            if let Type::Class(name) = base {
                if table.class(name).is_none() {
                    return Err(ResolveError::UnknownType {
                        class: class.name.clone(),
                        ty: name.clone(),
                    });
                }
            }
            Ok(())
        };
        for f in &class.fields {
            check_ty(&f.ty)?;
        }
        for m in class.methods.iter().chain(&class.ctors) {
            if let Some(r) = &m.return_type {
                check_ty(r)?;
            }
            for p in &m.params {
                check_ty(&p.ty)?;
            }
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn table(src: &str) -> ClassTable {
        resolve(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn builtins_are_present() {
        let t = table("class A {}");
        assert!(t.class("Object").unwrap().is_builtin);
        assert!(t.class("ASR").is_some());
        assert!(t.class("Thread").is_some());
        assert!(t.is_subclass_of("ASR", "Object"));
    }

    #[test]
    fn implicit_superclass_is_object() {
        let t = table("class A {}");
        assert_eq!(t.class("A").unwrap().superclass.as_deref(), Some("Object"));
        assert!(t.is_subclass_of("A", "Object"));
        assert!(!t.is_subclass_of("A", "Thread"));
    }

    #[test]
    fn inherited_members_are_found() {
        let t = table("class A { int x; int m() { return x; } } class B extends A {}");
        let (owner, f) = t.field_of("B", "x").unwrap();
        assert_eq!(owner, "A");
        assert_eq!(f.ty, Type::Int);
        let (owner, m) = t.method_of("B", "m").unwrap();
        assert_eq!(owner, "A");
        assert_eq!(m.ret, Some(Type::Int));
        assert!(t.method_of("B", "zzz").is_none());
        assert!(t.field_of("B", "zzz").is_none());
    }

    #[test]
    fn asr_methods_visible_on_subclasses() {
        let t = table("class Filter extends ASR { }");
        let (owner, m) = t.method_of("Filter", "read").unwrap();
        assert_eq!(owner, "ASR");
        assert!(m.is_builtin);
        assert!(t.is_subclass_of("Filter", "ASR"));
        // wait comes from Object.
        assert!(t.method_of("Filter", "wait").is_some());
    }

    #[test]
    fn duplicate_class_and_member_rejected() {
        assert!(matches!(
            resolve(&parse("class A {} class A {}").unwrap()),
            Err(ResolveError::DuplicateClass { .. })
        ));
        assert!(matches!(
            resolve(&parse("class ASR {}").unwrap()),
            Err(ResolveError::DuplicateClass { .. })
        ));
        assert!(matches!(
            resolve(&parse("class A { int x; boolean x; }").unwrap()),
            Err(ResolveError::DuplicateMember { .. })
        ));
        assert!(matches!(
            resolve(&parse("class A { int m() { return 0; } void m() {} }").unwrap()),
            Err(ResolveError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn same_arity_constructors_rejected() {
        assert_eq!(
            resolve(&parse("class C { C(int a) {} C(boolean b) {} }").unwrap()),
            Err(ResolveError::DuplicateConstructor {
                class: "C".to_string(),
                arity: 1,
            })
        );
        assert!(resolve(&parse("class C { C() {} C(int a) {} }").unwrap()).is_ok());
    }

    #[test]
    fn unknown_superclass_and_cycle_rejected() {
        assert!(matches!(
            resolve(&parse("class A extends Zardoz {}").unwrap()),
            Err(ResolveError::UnknownSuperclass { .. })
        ));
        assert!(matches!(
            resolve(&parse("class A extends B {} class B extends A {}").unwrap()),
            Err(ResolveError::InheritanceCycle { .. })
        ));
    }

    #[test]
    fn unknown_types_rejected() {
        assert!(matches!(
            resolve(&parse("class A { Zardoz z; }").unwrap()),
            Err(ResolveError::UnknownType { .. })
        ));
        assert!(matches!(
            resolve(&parse("class A { Zardoz[] m(int x) { return null; } }").unwrap()),
            Err(ResolveError::UnknownType { .. })
        ));
    }

    #[test]
    fn ctors_are_listed() {
        let t = table("class A { A() {} A(int x) {} }");
        assert_eq!(t.ctors_of("A").len(), 2);
        assert_eq!(t.ctors_of("A")[1].params, vec![Type::Int]);
        assert!(t.ctors_of("Nope").is_empty());
    }
}
