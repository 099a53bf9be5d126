//! A Scientific IDL (SIDL) subset parser.
//!
//! "Interfaces in the CCA are specified with the Scientific Interface
//! Definition Language (SIDL)" (paper §2.1), and both SciRun2 and DCA
//! derive their PRMI glue from SIDL extensions: SciRun2 marks methods
//! `independent` or `collective` (§4.2), DCA marks arguments `parallel`
//! and lets the stub generator add the communicator argument (§4.3).
//!
//! This module parses that dialect:
//!
//! ```text
//! interface Solver {
//!     collective double solve(in double tol, parallel inout array<double, 2> x);
//!     independent int rank_of(in int key);
//!     oneway void log(in string message);
//! }
//! ```
//!
//! and enforces the paper's stated rules — e.g. "One-way methods must not
//! have any return value (that includes arguments with the out
//! attribute)". Methods are numbered in declaration order, giving the
//! method ids the RMI layers dispatch on.

use std::fmt;

/// SIDL types in the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidlType {
    /// No value (return type only).
    Void,
    /// 32-bit integer.
    Int,
    /// 64-bit integer.
    Long,
    /// Double-precision float.
    Double,
    /// Boolean.
    Bool,
    /// Character string.
    String_,
    /// N-dimensional array of an element type.
    Array {
        /// Element type.
        elem: Box<SidlType>,
        /// Dimensionality (≥ 1).
        dim: usize,
    },
}

impl fmt::Display for SidlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SidlType::Void => write!(f, "void"),
            SidlType::Int => write!(f, "int"),
            SidlType::Long => write!(f, "long"),
            SidlType::Double => write!(f, "double"),
            SidlType::Bool => write!(f, "bool"),
            SidlType::String_ => write!(f, "string"),
            SidlType::Array { elem, dim } => write!(f, "array<{elem}, {dim}>"),
        }
    }
}

/// Argument intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Caller → callee.
    In,
    /// Callee → caller.
    Out,
    /// Both directions.
    InOut,
}

/// How the method is invoked across the parallel port (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvocationMode {
    /// One-to-one, serial semantics (the default).
    Independent,
    /// All-to-all with ghost invocations/returns.
    Collective,
    /// Fire-and-forget; no results of any kind.
    Oneway,
}

/// One declared argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgSpec {
    /// Argument name.
    pub name: String,
    /// Declared type.
    pub ty: SidlType,
    /// Data-flow intent.
    pub intent: Intent,
    /// Marked with DCA's `parallel` keyword: a decomposed argument that
    /// the framework must redistribute.
    pub parallel: bool,
}

/// One declared method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name.
    pub name: String,
    /// Dispatch id (declaration order).
    pub id: u32,
    /// Invocation mode.
    pub mode: InvocationMode,
    /// Return type.
    pub ret: SidlType,
    /// Arguments in declaration order.
    pub args: Vec<ArgSpec>,
}

/// A parsed interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceSpec {
    /// Interface (port type) name.
    pub name: String,
    /// Methods in declaration order.
    pub methods: Vec<MethodSpec>,
}

impl InterfaceSpec {
    /// Looks a method up by name.
    pub fn method(&self, name: &str) -> Option<&MethodSpec> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A parse error with a human-readable description and the offending
/// token position (in tokens, not bytes — the grammar is whitespace-
/// insensitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidlError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SidlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIDL parse error: {}", self.message)
    }
}

impl std::error::Error for SidlError {}

fn err<T>(message: impl Into<String>) -> Result<T, SidlError> {
    Err(SidlError { message: message.into() })
}

/// Tokenizer: identifiers/keywords, integers, punctuation. `//` comments
/// run to end of line.
fn tokenize(src: &str) -> Result<Vec<String>, SidlError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '/' {
            chars.next();
            if chars.peek() == Some(&'/') {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                return err("stray '/'");
            }
        } else if c.is_alphanumeric() || c == '_' {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' {
                    tok.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(tok);
        } else if "{}(),<>;".contains(c) {
            out.push(c.to_string());
            chars.next();
        } else {
            return err(format!("unexpected character '{c}'"));
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Result<String, SidlError> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t.ok_or(SidlError { message: "unexpected end of input".into() })
    }

    fn expect(&mut self, want: &str) -> Result<(), SidlError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            err(format!("expected '{want}', found '{got}'"))
        }
    }

    fn parse_type(&mut self) -> Result<SidlType, SidlError> {
        let t = self.next()?;
        Ok(match t.as_str() {
            "void" => SidlType::Void,
            "int" => SidlType::Int,
            "long" => SidlType::Long,
            "double" => SidlType::Double,
            "bool" => SidlType::Bool,
            "string" => SidlType::String_,
            "array" => {
                self.expect("<")?;
                let elem = self.parse_type()?;
                if elem == SidlType::Void {
                    return err("array of void");
                }
                let dim = if self.peek() == Some(",") {
                    self.next()?;
                    let d = self.next()?;
                    d.parse::<usize>()
                        .ok()
                        .filter(|&d| d >= 1)
                        .ok_or(SidlError { message: format!("bad array dim '{d}'") })?
                } else {
                    1
                };
                self.expect(">")?;
                SidlType::Array { elem: Box::new(elem), dim }
            }
            other => return err(format!("unknown type '{other}'")),
        })
    }

    fn parse_arg(&mut self) -> Result<ArgSpec, SidlError> {
        let mut parallel = false;
        if self.peek() == Some("parallel") {
            self.next()?;
            parallel = true;
        }
        let intent = match self.next()?.as_str() {
            "in" => Intent::In,
            "out" => Intent::Out,
            "inout" => Intent::InOut,
            other => return err(format!("expected intent (in/out/inout), found '{other}'")),
        };
        let ty = self.parse_type()?;
        if parallel && !matches!(ty, SidlType::Array { .. }) {
            return err("only array arguments may be 'parallel'");
        }
        let name = self.parse_ident()?;
        Ok(ArgSpec { name, ty, intent, parallel })
    }

    fn parse_ident(&mut self) -> Result<String, SidlError> {
        let t = self.next()?;
        let mut chars = t.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_alphabetic() || c == '_');
        if first_ok && t.chars().all(|c| c.is_alphanumeric() || c == '_') {
            Ok(t)
        } else {
            err(format!("expected identifier, found '{t}'"))
        }
    }

    fn parse_method(&mut self, id: u32) -> Result<MethodSpec, SidlError> {
        let mode = match self.peek() {
            Some("independent") => {
                self.next()?;
                InvocationMode::Independent
            }
            Some("collective") => {
                self.next()?;
                InvocationMode::Collective
            }
            Some("oneway") => {
                self.next()?;
                InvocationMode::Oneway
            }
            _ => InvocationMode::Independent,
        };
        let ret = self.parse_type()?;
        let name = self.parse_ident()?;
        self.expect("(")?;
        let mut args = Vec::new();
        if self.peek() != Some(")") {
            loop {
                args.push(self.parse_arg()?);
                if self.peek() == Some(",") {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(")")?;
        self.expect(";")?;

        // The paper's one-way rule: no return value, no out/inout args.
        if mode == InvocationMode::Oneway {
            if ret != SidlType::Void {
                return err(format!("one-way method '{name}' must return void"));
            }
            if args.iter().any(|a| a.intent != Intent::In) {
                return err(format!("one-way method '{name}' must not have out/inout arguments"));
            }
        }
        Ok(MethodSpec { name, id, mode, ret, args })
    }
}

/// Parses one `interface { … }` declaration.
pub fn parse_interface(src: &str) -> Result<InterfaceSpec, SidlError> {
    let mut p = Parser { toks: tokenize(src)?, pos: 0 };
    p.expect("interface")?;
    let name = p.parse_ident()?;
    p.expect("{")?;
    let mut methods = Vec::new();
    while p.peek() != Some("}") {
        let id = methods.len() as u32;
        let m = p.parse_method(id)?;
        if methods.iter().any(|x: &MethodSpec| x.name == m.name) {
            return err(format!("duplicate method '{}'", m.name));
        }
        methods.push(m);
    }
    p.expect("}")?;
    if p.peek().is_some() {
        return err("trailing tokens after interface");
    }
    Ok(InterfaceSpec { name, methods })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOLVER: &str = r#"
        interface Solver {
            // Collective solve with a redistributed parallel argument.
            collective double solve(in double tol, parallel inout array<double, 2> x);
            independent int rank_of(in int key);
            oneway void log(in string message);
            bool is_ready();
        }
    "#;

    #[test]
    fn parses_the_dialect() {
        let spec = parse_interface(SOLVER).unwrap();
        assert_eq!(spec.name, "Solver");
        assert_eq!(spec.methods.len(), 4);

        let solve = spec.method("solve").unwrap();
        assert_eq!(solve.id, 0);
        assert_eq!(solve.mode, InvocationMode::Collective);
        assert_eq!(solve.ret, SidlType::Double);
        assert_eq!(solve.args.len(), 2);
        assert!(!solve.args[0].parallel);
        assert_eq!(solve.args[0].intent, Intent::In);
        assert!(solve.args[1].parallel);
        assert_eq!(solve.args[1].intent, Intent::InOut);
        assert_eq!(solve.args[1].ty, SidlType::Array { elem: Box::new(SidlType::Double), dim: 2 });

        let log = spec.method("log").unwrap();
        assert_eq!(log.mode, InvocationMode::Oneway);
        assert_eq!(log.id, 2);

        // Default mode is independent.
        assert_eq!(spec.method("is_ready").unwrap().mode, InvocationMode::Independent);
    }

    #[test]
    fn method_ids_follow_declaration_order() {
        let spec = parse_interface(SOLVER).unwrap();
        let ids: Vec<u32> = spec.methods.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oneway_with_return_rejected() {
        let e = parse_interface("interface I { oneway int bad(); }").unwrap_err();
        assert!(e.message.contains("void"), "{e}");
    }

    #[test]
    fn oneway_with_out_arg_rejected() {
        // The paper: "One-way methods must not have any return value (that
        // includes arguments with the out attribute)."
        let e = parse_interface("interface I { oneway void bad(out int x); }").unwrap_err();
        assert!(e.message.contains("out"), "{e}");
    }

    #[test]
    fn parallel_scalar_rejected() {
        let e = parse_interface("interface I { void f(parallel in double x); }").unwrap_err();
        assert!(e.message.contains("array"), "{e}");
    }

    #[test]
    fn duplicate_methods_rejected() {
        let e = parse_interface("interface I { void f(); void f(); }").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn default_array_dim_is_one() {
        let spec = parse_interface("interface I { void f(in array<int> v); }").unwrap();
        assert_eq!(
            spec.methods[0].args[0].ty,
            SidlType::Array { elem: Box::new(SidlType::Int), dim: 1 }
        );
    }

    #[test]
    fn syntax_errors_are_located() {
        assert!(parse_interface("interface I { void f( }").is_err());
        assert!(parse_interface("interface I { flubber f(); }").is_err());
        assert!(parse_interface("interface I { void f() }").is_err(), "missing semicolon");
        assert!(parse_interface("interface { void f(); }").is_err(), "missing name");
        assert!(parse_interface("interface I { void f(); } extra").is_err());
        assert!(parse_interface("interface I { void f(in array<void> v); }").is_err());
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let spec =
            parse_interface("interface   X{// comment\nvoid f ( ) ;\n// another\n}").unwrap();
        assert_eq!(spec.name, "X");
        assert_eq!(spec.methods.len(), 1);
    }

    #[test]
    fn types_display_round_trip() {
        let t = SidlType::Array { elem: Box::new(SidlType::Double), dim: 3 };
        assert_eq!(t.to_string(), "array<double, 3>");
    }
}
