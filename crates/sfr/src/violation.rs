//! Violation diagnostics.
//!
//! When a rule of the policy of use is violated, "the user is presented
//! with information regarding the nature of the error, and a list of
//! suggested solutions for fixing the problem, including automated
//! program transformations when possible" (paper §2). A [`Violation`]
//! carries exactly that: what rule, where, why, and which transform (if
//! any) can discharge it.

use jtlang::token::Span;
use jtobs::json::Json;
use std::fmt;

/// How a violation can be fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fix {
    /// An automated transformation (by registry name) can discharge it.
    Automated {
        /// Name of the transform in [`crate::transform::stock_transforms`].
        transform: &'static str,
        /// What the transform will do, in user terms.
        description: String,
    },
    /// The tools cannot fix this; the designer must restructure.
    Manual {
        /// Guidance for the designer.
        guidance: String,
    },
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::Automated {
                transform,
                description,
            } => write!(f, "automated [{transform}]: {description}"),
            Fix::Manual { guidance } => write!(f, "manual: {guidance}"),
        }
    }
}

/// One policy-of-use violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`R1` … `R9`).
    pub rule: &'static str,
    /// Rule title.
    pub rule_title: &'static str,
    /// What exactly is wrong, with names.
    pub message: String,
    /// Source position of the offending construct.
    pub span: Span,
    /// Class in which the violation occurs.
    pub class: String,
    /// Suggested fix.
    pub fix: Fix,
}

impl Violation {
    /// True when an automated transform is available.
    pub fn is_automatable(&self) -> bool {
        matches!(self.fix, Fix::Automated { .. })
    }

    /// The suggested transform name, if automated.
    pub fn suggested_transform(&self) -> Option<&'static str> {
        match &self.fix {
            Fix::Automated { transform, .. } => Some(transform),
            Fix::Manual { .. } => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {} in `{}`: {} ({})",
            self.rule, self.rule_title, self.span, self.class, self.message, self.fix
        )
    }
}

/// Renders a violation as a rustc-style diagnostic: an `error[R#]`
/// header, a `-->` file/line/column pointer, the offending source line
/// with a caret underline, and the message and fix as notes. Violations
/// without a real span (whole-program findings like R3 cycles) get the
/// header and notes only.
pub fn render(v: &Violation, file: &str, source: &str) -> String {
    use fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "error[{}]: {}", v.rule, v.rule_title);
    if v.span.line > 0 {
        let line_no = v.span.line.to_string();
        let gutter = " ".repeat(line_no.len());
        let _ = writeln!(out, "{gutter}--> {file}:{}:{}", v.span.line, v.span.col);
        if let Some(text) = source.lines().nth(v.span.line as usize - 1) {
            let col = (v.span.col.max(1) as usize - 1).min(text.len());
            let width = v
                .span
                .end
                .saturating_sub(v.span.start)
                .clamp(1, text.len().saturating_sub(col).max(1));
            let _ = writeln!(out, "{gutter} |");
            let _ = writeln!(out, "{line_no} | {text}");
            let _ = writeln!(out, "{gutter} | {}{}", " ".repeat(col), "^".repeat(width));
        }
    }
    let _ = writeln!(out, " = note: {}", v.message);
    let _ = writeln!(out, " = help: {}", v.fix);
    out
}

/// Renders a violation as one JSON object (the `jtlint --json` line
/// format). Field order is fixed so the output is diffable: `rule`,
/// `rule_title`, `class`, `message`, `span` (start/end byte offsets plus
/// 1-based line/col), `fix` (`kind` plus `transform` + `description`
/// for automated fixes or `guidance` for manual ones), and — when the
/// caller has one — the structured `evidence` object behind the finding
/// (the `jtanalysis::evidence` derivation, which the independent
/// `evidence_verify` checker re-validates).
pub fn to_json(v: &Violation, evidence: Option<Json>) -> Json {
    let span = Json::Obj(vec![
        ("start".into(), v.span.start.into()),
        ("end".into(), v.span.end.into()),
        ("line".into(), u64::from(v.span.line).into()),
        ("col".into(), u64::from(v.span.col).into()),
    ]);
    let fix = match &v.fix {
        Fix::Automated {
            transform,
            description,
        } => Json::Obj(vec![
            ("kind".into(), "automated".into()),
            ("transform".into(), (*transform).into()),
            ("description".into(), description.as_str().into()),
        ]),
        Fix::Manual { guidance } => Json::Obj(vec![
            ("kind".into(), "manual".into()),
            ("guidance".into(), guidance.as_str().into()),
        ]),
    };
    let mut fields = vec![
        ("rule".into(), v.rule.into()),
        ("rule_title".into(), v.rule_title.into()),
        ("class".into(), v.class.as_str().into()),
        ("message".into(), v.message.as_str().into()),
        ("span".into(), span),
        ("fix".into(), fix),
    ];
    fields.extend(evidence.map(|e| ("evidence".to_string(), e)));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_everything() {
        let v = Violation {
            rule: "R1",
            rule_title: "no while loops",
            message: "found a `while` loop".to_string(),
            span: Span::new(0, 5, 3, 9),
            class: "Avg".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "convert to a capped for loop".to_string(),
            },
        };
        let s = v.to_string();
        assert!(s.contains("R1"));
        assert!(s.contains("3:9"));
        assert!(s.contains("Avg"));
        assert!(s.contains("while-to-for"));
        assert!(v.is_automatable());
        assert_eq!(v.suggested_transform(), Some("while-to-for"));
    }

    #[test]
    fn render_points_at_the_offending_line() {
        let source = "class A {\n    void m() {\n        while (true) {}\n    }\n}\n";
        let v = Violation {
            rule: "R1",
            rule_title: "no while or do-while loops",
            message: "`while` loop in A.m cannot be proven to terminate".to_string(),
            span: Span::new(28, 33, 3, 9),
            class: "A".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "rewrite as a capped `for` loop".to_string(),
            },
        };
        let text = render(&v, "a.jt", source);
        assert!(text.starts_with("error[R1]: no while"), "{text}");
        assert!(text.contains("--> a.jt:3:9"), "{text}");
        assert!(text.contains("3 |         while (true) {}"), "{text}");
        assert!(text.contains("^^^^^"), "{text}");
        assert!(text.contains("= note: `while` loop"), "{text}");
        assert!(text.contains("= help: automated [while-to-for]"), "{text}");
    }

    #[test]
    fn render_without_span_skips_the_snippet() {
        let v = Violation {
            rule: "R3",
            rule_title: "no circular method invocation",
            message: "call cycle: A.f -> A.f".to_string(),
            span: Span::default(),
            class: "A".to_string(),
            fix: Fix::Manual {
                guidance: "replace the recursion".to_string(),
            },
        };
        let text = render(&v, "a.jt", "class A {}");
        assert!(text.starts_with("error[R3]"), "{text}");
        assert!(!text.contains("-->"), "{text}");
        assert!(text.contains("= note: call cycle"), "{text}");
    }

    #[test]
    fn json_rendering_is_exact() {
        let v = Violation {
            rule: "R13",
            rule_title: "blocks own their state",
            message: "block writes \"foreign\" state".to_string(),
            span: Span::new(4, 9, 1, 5),
            class: "Tap".to_string(),
            fix: Fix::Automated {
                transform: "while-to-for",
                description: "rewrite as a capped `for` loop".to_string(),
            },
        };
        let evidence = Json::Obj(vec![
            ("kind".into(), "ownership".into()),
            ("chain".into(), Json::Arr(vec![Json::Num(4), Json::Null])),
        ]);
        let text = to_json(&v, Some(evidence)).render();
        assert_eq!(
            text,
            "{\"rule\":\"R13\",\"rule_title\":\"blocks own their state\",\"class\":\"Tap\",\
             \"message\":\"block writes \\\"foreign\\\" state\",\
             \"span\":{\"start\":4,\"end\":9,\"line\":1,\"col\":5},\
             \"fix\":{\"kind\":\"automated\",\"transform\":\"while-to-for\",\
             \"description\":\"rewrite as a capped `for` loop\"},\
             \"evidence\":{\"kind\":\"ownership\",\"chain\":[4,null]}}"
        );
        assert_eq!(jtobs::json::parse(&text).map(|j| j.render()), Ok(text));
        let manual = Violation {
            rule: "R6",
            rule_title: "no threads",
            message: "class extends Thread".to_string(),
            span: Span::default(),
            class: "W\n".to_string(),
            fix: Fix::Manual {
                guidance: "model concurrency as blocks".to_string(),
            },
        };
        assert_eq!(
            to_json(&manual, None).render(),
            "{\"rule\":\"R6\",\"rule_title\":\"no threads\",\"class\":\"W\\n\",\
             \"message\":\"class extends Thread\",\
             \"span\":{\"start\":0,\"end\":0,\"line\":0,\"col\":0},\
             \"fix\":{\"kind\":\"manual\",\"guidance\":\"model concurrency as blocks\"}}"
        );
    }

    #[test]
    fn manual_fixes_have_no_transform() {
        let v = Violation {
            rule: "R6",
            rule_title: "no threads",
            message: "class extends Thread".to_string(),
            span: Span::default(),
            class: "W".to_string(),
            fix: Fix::Manual {
                guidance: "model concurrency as separate functional blocks".to_string(),
            },
        };
        assert!(!v.is_automatable());
        assert_eq!(v.suggested_transform(), None);
        assert!(v.to_string().contains("manual"));
    }
}
