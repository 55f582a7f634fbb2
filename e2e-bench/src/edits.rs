//! Seeded edit streams over the generated corpus
//! ([`jtlang::corpus::generate`]): the "designer edits one method"
//! step of the Fig. 2 loop.
//!
//! * [`ConstEdits`] — cumulative constant tweaks
//!   ([`jtlang::corpus::generate_with_tweaks`]). The method keeps its
//!   shape, so the points-to constraint set is unchanged and the
//!   analysis database takes its rebase path.
//! * [`StructEdits`] — toggles entries of a seeded pool of
//!   [`Mutation`]s, each one statement prepended to one method. Calls
//!   and allocations change the constraint set, so the database takes
//!   its delta path and the demand tail misses.

use crate::Rng;
use jtlang::corpus::{self, GenConfig};
use std::collections::BTreeMap;

/// The statement a structural [`Mutation`] prepends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `acc = acc + mJ(n);` — a new call edge.
    AddCall,
    /// `acc = mJ(acc);` — a new call edge fed by a field read.
    CallOnAcc,
    /// `buf = new int[8];` — a new allocation site and field write.
    Realloc,
}

/// One structural edit: a statement prepended to the body of method
/// `m{method}` of class `G{class}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// Class index.
    pub class: usize,
    /// Method index within the class.
    pub method: usize,
    /// The statement.
    pub kind: Kind,
    /// The called method's index, always above `method`, so no
    /// mutation creates recursion (the generator's own same-class calls
    /// also go from `m{i}` to `m{i+1}`).
    pub callee: usize,
}

impl Mutation {
    /// The prepended statement's text.
    pub fn statement(&self) -> String {
        match self.kind {
            Kind::AddCall => format!("acc = acc + m{}(n);", self.callee),
            Kind::CallOnAcc => format!("acc = m{}(acc);", self.callee),
            Kind::Realloc => "buf = new int[8];".to_string(),
        }
    }
}

/// Draws `size` mutations of distinct methods of the corpus `cfg`. The
/// kinds rotate through [`Kind`]'s three statements (a class's last
/// method, which has no callee above it, always reallocates), so every
/// seed's pool has the same mix of kinds.
///
/// # Panics
///
/// Panics when `size` exceeds the corpus's method count.
pub fn structural_pool(cfg: &GenConfig, size: usize, rng: &mut Rng) -> Vec<Mutation> {
    let mut methods: Vec<usize> = (0..corpus::method_count(cfg)).collect();
    assert!(
        size <= methods.len(),
        "pool of {size} over {} methods",
        methods.len()
    );
    let per_class = cfg.methods_per_class;
    (0..size)
        .map(|i| {
            // Partial Fisher-Yates: methods[..i] are the draws so far.
            let j = i + rng.below(methods.len() - i);
            methods.swap(i, j);
            let (class, method) = (methods[i] / per_class, methods[i] % per_class);
            let kind = match i % 3 {
                _ if method + 1 == per_class => Kind::Realloc,
                0 => Kind::AddCall,
                1 => Kind::CallOnAcc,
                _ => Kind::Realloc,
            };
            let callee = if method + 1 < per_class {
                method + 1 + rng.below(per_class - method - 1)
            } else {
                method
            };
            Mutation {
                class,
                method,
                kind,
                callee,
            }
        })
        .collect()
}

/// Cumulative one-method constant edits.
#[derive(Debug, Clone)]
pub struct ConstEdits {
    cfg: GenConfig,
    tweaks: BTreeMap<usize, i64>,
}

impl ConstEdits {
    /// Edits over the corpus `cfg`, starting from the untweaked program.
    pub fn new(cfg: GenConfig) -> ConstEdits {
        ConstEdits {
            cfg,
            tweaks: BTreeMap::new(),
        }
    }

    /// The source before any edit.
    pub fn base(&self) -> String {
        corpus::generate(&self.cfg)
    }

    /// Changes the constant of one random method and returns the new
    /// revision. The generator's own constants are 1..=9, so a drawn
    /// constant of 10..=999 that differs from the method's last tweak
    /// always changes the text.
    pub fn next_revision(&mut self, rng: &mut Rng) -> String {
        let g = rng.below(corpus::method_count(&self.cfg));
        let k = loop {
            let k = rng.range(10, 999);
            if self.tweaks.get(&g) != Some(&k) {
                break k;
            }
        };
        self.tweaks.insert(g, k);
        corpus::generate_with_tweaks(&self.cfg, &self.tweaks)
    }
}

/// Structural edits: each revision toggles one pool entry.
#[derive(Debug, Clone)]
pub struct StructEdits {
    base: String,
    pool: Vec<Mutation>,
    /// Byte offset in `base` just after each entry's method header.
    anchors: Vec<usize>,
    active: Vec<bool>,
}

impl StructEdits {
    /// Edits over the corpus `cfg` drawn from `pool`.
    ///
    /// # Panics
    ///
    /// Panics when a pool entry names a method the corpus lacks.
    pub fn new(cfg: &GenConfig, pool: Vec<Mutation>) -> StructEdits {
        let base = corpus::generate(cfg);
        let anchors = pool
            .iter()
            .map(|m| {
                let class = base
                    .find(&format!("class G{} {{\n", m.class))
                    .unwrap_or_else(|| panic!("no class G{}", m.class));
                let header = format!("    int m{}(int n) {{\n", m.method);
                class
                    + base[class..]
                        .find(&header)
                        .unwrap_or_else(|| panic!("no method G{}.m{}", m.class, m.method))
                    + header.len()
            })
            .collect();
        let active = vec![false; pool.len()];
        StructEdits {
            base,
            pool,
            anchors,
            active,
        }
    }

    /// The source before any edit.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The mutation pool.
    pub fn pool(&self) -> &[Mutation] {
        &self.pool
    }

    /// Flips pool entry `i` on or off; returns whether it is now on.
    pub fn toggle(&mut self, i: usize) -> bool {
        self.active[i] = !self.active[i];
        self.active[i]
    }

    /// The source with every active entry applied.
    pub fn render(&self) -> String {
        let mut on: Vec<usize> = (0..self.pool.len()).filter(|&i| self.active[i]).collect();
        on.sort_by_key(|&i| self.anchors[i]);
        let mut out = String::with_capacity(self.base.len() + 32 * on.len());
        let mut at = 0;
        for i in on {
            out.push_str(&self.base[at..self.anchors[i]]);
            out.push_str("        ");
            out.push_str(&self.pool[i].statement());
            out.push('\n');
            at = self.anchors[i];
        }
        out.push_str(&self.base[at..]);
        out
    }

    /// Toggles one random pool entry and returns the new revision.
    pub fn next_revision(&mut self, rng: &mut Rng) -> String {
        self.toggle(rng.below(self.pool.len()));
        self.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtanalysis::fingerprint::{method_fp, Fp};
    use jtanalysis::MethodRef;

    fn small() -> GenConfig {
        GenConfig {
            classes: 8,
            methods_per_class: 8,
            ..GenConfig::default()
        }
    }

    fn editor(seed: u64) -> StructEdits {
        let cfg = small();
        let pool = structural_pool(&cfg, corpus::method_count(&cfg), &mut Rng::new(seed));
        StructEdits::new(&cfg, pool)
    }

    fn fingerprints(src: &str) -> BTreeMap<MethodRef, Fp> {
        let program = jtlang::check_source(src).expect("front-end clean");
        jtanalysis::each_method(&program)
            .map(|(_, decl, mref)| (mref, method_fp(decl)))
            .collect()
    }

    #[test]
    fn pool_draws_distinct_methods_and_forward_callees() {
        let e = editor(3);
        let mut targets: Vec<(usize, usize)> =
            e.pool().iter().map(|m| (m.class, m.method)).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), e.pool().len());
        for m in e.pool() {
            if m.kind != Kind::Realloc {
                assert!(m.callee > m.method && m.callee < 8, "{m:?}");
            }
        }
        assert!(e.pool().iter().any(|m| m.kind == Kind::AddCall));
        assert!(e.pool().iter().any(|m| m.kind == Kind::CallOnAcc));
    }

    #[test]
    fn every_pool_entry_yields_a_frontend_clean_revision() {
        let mut e = editor(11);
        for i in 0..e.pool().len() {
            e.toggle(i);
            jtlang::check_source(&e.render())
                .unwrap_or_else(|err| panic!("entry {:?}: {err}", e.pool()[i]));
            e.toggle(i);
        }
        for i in 0..e.pool().len() {
            e.toggle(i);
        }
        jtlang::check_source(&e.render()).expect("all entries at once");
    }

    #[test]
    fn toggling_on_then_off_restores_the_source_byte_for_byte() {
        let mut e = editor(5);
        let mut rng = Rng::new(99);
        for _ in 0..20 {
            e.next_revision(&mut rng);
        }
        let before = e.render();
        for i in [0, 7, 31, 63] {
            e.toggle(i);
            assert_ne!(
                e.render(),
                before,
                "toggling entry {i} must change the text"
            );
            e.toggle(i);
            assert_eq!(e.render(), before);
        }
        let mut fresh = editor(5);
        assert_eq!(fresh.render(), fresh.base());
        fresh.toggle(9);
        fresh.toggle(9);
        assert_eq!(fresh.render(), fresh.base());
    }

    #[test]
    fn each_toggle_changes_exactly_one_method_fingerprint() {
        let mut e = editor(21);
        let mut rng = Rng::new(4);
        let mut prev = fingerprints(&e.render());
        for _ in 0..12 {
            let i = rng.below(e.pool().len());
            e.toggle(i);
            let next = fingerprints(&e.render());
            let changed: Vec<&MethodRef> = next
                .iter()
                .filter(|(k, fp)| prev.get(*k) != Some(*fp))
                .map(|(k, _)| k)
                .collect();
            let m = e.pool()[i];
            assert_eq!(
                changed,
                vec![&MethodRef::method(
                    format!("G{}", m.class),
                    format!("m{}", m.method)
                )],
                "toggle of {m:?}"
            );
            prev = next;
        }
    }

    #[test]
    fn const_edits_change_the_text_every_revision() {
        let mut edits = ConstEdits::new(small());
        let mut rng = Rng::new(8);
        let mut prev = edits.base();
        for _ in 0..10 {
            let next = edits.next_revision(&mut rng);
            assert_ne!(next, prev);
            jtlang::check_source(&next).expect("front-end clean");
            prev = next;
        }
    }
}
