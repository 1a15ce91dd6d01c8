//! A concrete textual syntax for BIP models.
//!
//! The paper's methodology rests on "a single host component-based language
//! rooted in well-defined semantics"; this module gives the kernel a small
//! concrete syntax so models can be written as text (and generated by
//! tools), mirroring the BIP language's shape:
//!
//! ```text
//! atom Fork {
//!   port take, put
//!   location free init
//!   location taken
//!   on take from free to taken
//!   on put  from taken to free
//! }
//!
//! atom Phil {
//!   port eat, release
//!   var meals = 0
//!   location thinking init
//!   location eating
//!   on eat     from thinking to eating  when meals < 10  do meals := meals + 1
//!   on release from eating   to thinking
//! }
//!
//! system {
//!   instance p0 : Phil
//!   instance f0 : Fork
//!   instance f1 : Fork
//!   connector eat0 = p0.eat + f0.take + f1.take
//!   connector rel0 = p0.release + f0.put + f1.put
//!   broadcast beat = p0.eat -> f0.take
//!   priority rel0 < eat0
//! }
//! ```
//!
//! Expressions support `+ - * / %`, comparisons, `&& || !`, parentheses,
//! integer literals, and variable names. `broadcast` connectors mark the
//! first port as the trigger.

use std::collections::HashMap;

use crate::atom::{AtomBuilder, AtomType};
use crate::builder::SystemBuilder;
use crate::connector::{Connector, PortRef};
use crate::data::Expr;
use crate::error::ModelError;
use crate::priority::Priority;
use crate::system::System;

/// Error raised while parsing BIP source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line (1-based) where the error was detected.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// A model error raised while building the block whose header is on
    /// `line`.
    fn at(line: usize, e: ModelError) -> ParseError {
        ParseError {
            line,
            message: e.to_string(),
        }
    }
}

/// Deepest nesting of parentheses, `!` and unary `-` in an expression: the
/// parser recurses once per level, so hostile input cannot blow the stack.
pub const MAX_EXPR_DEPTH: usize = 256;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(String),
}

fn tokenize(line: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '#' {
            break; // comment to end of line
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            let s: String = chars[start..i].iter().collect();
            out.push(Tok::Int(
                s.parse().map_err(|_| format!("bad integer {s:?}"))?,
            ));
        } else {
            // Multi-char operators first.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            if ["<=", ">=", "==", "!=", "&&", "||", ":=", "->"].contains(&two.as_str()) {
                out.push(Tok::Sym(two));
                i += 2;
            } else {
                out.push(Tok::Sym(c.to_string()));
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Expression parser (precedence climbing) over the atom's variable names.
struct ExprParser<'a> {
    toks: &'a [Tok],
    pos: usize,
    vars: &'a HashMap<String, u32>,
    depth: usize,
}

impl<'a> ExprParser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek() == Some(&Tok::Sym(s.to_string())) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse(&mut self) -> Result<Expr, String> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.and_expr()?;
        while self.eat_sym("||") {
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.cmp_expr()?;
        while self.eat_sym("&&") {
            e = e.and(self.cmp_expr()?);
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, String> {
        let e = self.add_expr()?;
        for (sym, f) in [
            ("<=", Expr::le as fn(Expr, Expr) -> Expr),
            (">=", Expr::ge),
            ("==", Expr::eq),
            ("!=", Expr::ne),
            ("<", Expr::lt),
            (">", Expr::gt),
        ] {
            if self.eat_sym(sym) {
                let rhs = self.add_expr()?;
                return Ok(f(e, rhs));
            }
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.mul_expr()?;
        loop {
            if self.eat_sym("+") {
                e = e.add(self.mul_expr()?);
            } else if self.eat_sym("-") {
                e = e.sub(self.mul_expr()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.unary_expr()?;
        loop {
            if self.eat_sym("*") {
                e = e.mul(self.unary_expr()?);
            } else if self.eat_sym("/") {
                e = e.div(self.unary_expr()?);
            } else if self.eat_sym("%") {
                e = e.rem(self.unary_expr()?);
            } else {
                return Ok(e);
            }
        }
    }

    /// Go one nesting level down, or refuse past [`MAX_EXPR_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn unary_expr(&mut self) -> Result<Expr, String> {
        if self.eat_sym("!") {
            self.descend()?;
            let e = self.unary_expr()?.not();
            self.depth -= 1;
            return Ok(e);
        }
        if self.eat_sym("-") {
            self.descend()?;
            let e = self.unary_expr()?.neg();
            self.depth -= 1;
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::int(v)),
            Some(Tok::Ident(name)) => match self.vars.get(&name) {
                Some(&i) => Ok(Expr::var(i)),
                None => Err(format!("unknown variable {name:?}")),
            },
            Some(Tok::Sym(s)) if s == "(" => {
                self.descend()?;
                let e = self.parse()?;
                self.depth -= 1;
                if !self.eat_sym(")") {
                    return Err("expected ')'".to_string());
                }
                Ok(e)
            }
            other => Err(format!("unexpected token {other:?} in expression")),
        }
    }
}

fn parse_expr(toks: &[Tok], vars: &HashMap<String, u32>) -> Result<Expr, String> {
    let mut p = ExprParser {
        toks,
        pos: 0,
        vars,
        depth: 0,
    };
    let e = p.parse()?;
    if p.pos != toks.len() {
        return Err(format!(
            "trailing tokens in expression: {:?}",
            &toks[p.pos..]
        ));
    }
    Ok(e)
}

/// Parse a full model: any number of `atom` blocks and exactly one `system`
/// block. Returns the flattened [`System`].
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line: the block's header line
/// for a [`ModelError`] raised when the block is built and for an
/// unterminated block, the last line (1 for empty input) when there is no
/// `system` block.
pub fn parse_system(src: &str) -> Result<System, ParseError> {
    let mut atoms: HashMap<String, AtomType> = HashMap::new();
    let mut lines = src.lines().enumerate().peekable();
    let mut system: Option<System> = None;
    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks = tokenize(line).map_err(|m| ParseError {
            line: lineno + 1,
            message: m,
        })?;
        match toks.as_slice() {
            [Tok::Ident(kw), Tok::Ident(name), Tok::Sym(brace)] if kw == "atom" && brace == "{" => {
                let atom = parse_atom_block(name, lineno + 1, &mut lines)?;
                atoms.insert(name.clone(), atom);
            }
            [Tok::Ident(kw), Tok::Sym(brace)] if kw == "system" && brace == "{" => {
                if system.is_some() {
                    return Err(ParseError {
                        line: lineno + 1,
                        message: "a second system block".to_string(),
                    });
                }
                system = Some(parse_system_block(&atoms, lineno + 1, &mut lines)?);
            }
            _ => {
                return Err(ParseError {
                    line: lineno + 1,
                    message: format!("expected 'atom <name> {{' or 'system {{', got {line:?}"),
                })
            }
        }
    }
    system.ok_or(ParseError {
        line: src.lines().count().max(1),
        message: "no system block".to_string(),
    })
}

type Lines<'a> = std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>;

/// The body of the atom block whose header is on line `header`.
fn parse_atom_block(name: &str, header: usize, lines: &mut Lines) -> Result<AtomType, ParseError> {
    let mut builder = AtomBuilder::new(name);
    let mut vars: HashMap<String, u32> = HashMap::new();
    let mut nvars = 0u32;
    for (lineno, raw) in lines.by_ref() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "}" {
            return builder.build().map_err(|e| ParseError::at(header, e));
        }
        let toks = tokenize(line).map_err(|m| ParseError {
            line: lineno,
            message: m,
        })?;
        let err = |m: String| ParseError {
            line: lineno,
            message: m,
        };
        match toks.first() {
            Some(Tok::Ident(kw)) if kw == "port" => {
                for t in &toks[1..] {
                    match t {
                        Tok::Ident(p) => builder = builder.port(p.clone()),
                        Tok::Sym(s) if s == "," => {}
                        other => return Err(err(format!("bad port list token {other:?}"))),
                    }
                }
            }
            Some(Tok::Ident(kw)) if kw == "var" => {
                // var name = <int>
                match toks.as_slice() {
                    [_, Tok::Ident(v), Tok::Sym(eq), Tok::Int(init)] if eq == "=" => {
                        builder = builder.var(v.clone(), *init);
                        vars.insert(v.clone(), nvars);
                        nvars += 1;
                    }
                    [_, Tok::Ident(v), Tok::Sym(eq), Tok::Sym(minus), Tok::Int(init)]
                        if eq == "=" && minus == "-" =>
                    {
                        builder = builder.var(v.clone(), -init);
                        vars.insert(v.clone(), nvars);
                        nvars += 1;
                    }
                    _ => return Err(err("expected 'var <name> = <int>'".to_string())),
                }
            }
            Some(Tok::Ident(kw)) if kw == "location" => match toks.as_slice() {
                [_, Tok::Ident(l)] => builder = builder.location(l.clone()),
                [_, Tok::Ident(l), Tok::Ident(init)] if init == "init" => {
                    builder = builder.location(l.clone()).initial(l.clone());
                }
                _ => return Err(err("expected 'location <name> [init]'".to_string())),
            },
            Some(Tok::Ident(kw)) if kw == "on" || kw == "internal" => {
                // on <port> from <l> to <l'> [when <expr>] [do v := e {, v := e}]
                let internal = kw == "internal";
                let mut pos = 1;
                let port = if internal {
                    None
                } else {
                    match toks.get(pos) {
                        Some(Tok::Ident(p)) => {
                            pos += 1;
                            Some(p.clone())
                        }
                        _ => return Err(err("expected port name after 'on'".to_string())),
                    }
                };
                let expect_ident =
                    |toks: &[Tok], pos: &mut usize, kw: &str| -> Result<String, String> {
                        match (toks.get(*pos), toks.get(*pos + 1)) {
                            (Some(Tok::Ident(k)), Some(Tok::Ident(v))) if k == kw => {
                                *pos += 2;
                                Ok(v.clone())
                            }
                            _ => Err(format!("expected '{kw} <name>'")),
                        }
                    };
                let from = expect_ident(&toks, &mut pos, "from").map_err(&err)?;
                let to = expect_ident(&toks, &mut pos, "to").map_err(&err)?;
                // Optional when-clause.
                let mut guard = Expr::t();
                if let Some(Tok::Ident(k)) = toks.get(pos) {
                    if k == "when" {
                        pos += 1;
                        let end = toks[pos..]
                            .iter()
                            .position(|t| matches!(t, Tok::Ident(k) if k == "do"))
                            .map(|e| pos + e)
                            .unwrap_or(toks.len());
                        guard = parse_expr(&toks[pos..end], &vars).map_err(&err)?;
                        pos = end;
                    }
                }
                // Optional do-clause: comma-separated assignments.
                let mut updates: Vec<(String, Expr)> = Vec::new();
                if let Some(Tok::Ident(k)) = toks.get(pos) {
                    if k == "do" {
                        pos += 1;
                        for chunk in toks[pos..].split(|t| matches!(t, Tok::Sym(s) if s == ",")) {
                            match chunk {
                                [Tok::Ident(v), Tok::Sym(assign), rest @ ..] if assign == ":=" => {
                                    let e = parse_expr(rest, &vars).map_err(&err)?;
                                    updates.push((v.clone(), e));
                                }
                                [] => {}
                                other => return Err(err(format!("bad assignment: {other:?}"))),
                            }
                        }
                        pos = toks.len();
                    }
                }
                if pos != toks.len() {
                    return Err(err(format!("trailing tokens: {:?}", &toks[pos..])));
                }
                let ups: Vec<(&str, Expr)> = updates
                    .iter()
                    .map(|(v, e)| (v.as_str(), e.clone()))
                    .collect();
                builder = match port {
                    Some(p) => builder.guarded_transition(from, p, guard, ups, to),
                    None => builder.internal_transition(from, guard, ups, to),
                };
            }
            _ => return Err(err(format!("unexpected atom item: {line:?}"))),
        }
    }
    Err(ParseError {
        line: header,
        message: format!("unterminated atom block {name:?}"),
    })
}

/// The body of the system block whose header is on line `header`.
fn parse_system_block(
    atoms: &HashMap<String, AtomType>,
    header: usize,
    lines: &mut Lines,
) -> Result<System, ParseError> {
    let mut sb = SystemBuilder::new();
    let mut instances: HashMap<String, usize> = HashMap::new();
    let mut conn_names: Vec<String> = Vec::new();
    let mut priority = Priority::none();
    for (lineno, raw) in lines.by_ref() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "}" {
            sb.set_priority(priority);
            return sb.build().map_err(|e| ParseError::at(header, e));
        }
        let toks = tokenize(line).map_err(|m| ParseError {
            line: lineno,
            message: m,
        })?;
        let err = |m: String| ParseError {
            line: lineno,
            message: m,
        };
        match toks.as_slice() {
            [Tok::Ident(kw), Tok::Ident(name), Tok::Sym(colon), Tok::Ident(ty)]
                if kw == "instance" && colon == ":" =>
            {
                let atom = atoms
                    .get(ty)
                    .ok_or_else(|| err(format!("unknown atom type {ty:?}")))?;
                let id = sb.add_instance(name.clone(), atom);
                instances.insert(name.clone(), id);
            }
            [Tok::Ident(kw), Tok::Ident(name), Tok::Sym(eq), rest @ ..]
                if (kw == "connector" || kw == "broadcast") && eq == "=" =>
            {
                // endpoints: inst.port {+ inst.port} (or -> for broadcast).
                let mut ports = Vec::new();
                for chunk in rest.split(|t| matches!(t, Tok::Sym(s) if s == "+" || s == "->")) {
                    match chunk {
                        [Tok::Ident(inst), Tok::Sym(dot), Tok::Ident(port)] if dot == "." => {
                            let comp = *instances
                                .get(inst)
                                .ok_or_else(|| err(format!("unknown instance {inst:?}")))?;
                            ports.push(PortRef {
                                component: comp,
                                port: port.clone(),
                                trigger: false,
                            });
                        }
                        other => return Err(err(format!("bad endpoint: {other:?}"))),
                    }
                }
                if ports.is_empty() {
                    return Err(err("connector needs endpoints".to_string()));
                }
                if kw == "broadcast" {
                    ports[0].trigger = true;
                }
                conn_names.push(name.clone());
                sb.add_connector(Connector {
                    name: name.clone(),
                    ports,
                    guard: Expr::t(),
                    transfer: Vec::new(),
                    observable: true,
                });
            }
            [Tok::Ident(kw), Tok::Ident(low), Tok::Sym(lt), Tok::Ident(high)]
                if kw == "priority" && lt == "<" =>
            {
                let find = |n: &str| -> Result<crate::connector::ConnId, ParseError> {
                    conn_names
                        .iter()
                        .position(|c| c == n)
                        .map(|i| crate::connector::ConnId(i as u32))
                        .ok_or_else(|| err(format!("unknown connector {n:?} in priority")))
                };
                priority.add_rule(find(low)?, find(high)?);
            }
            _ => return Err(err(format!("unexpected system item: {line:?}"))),
        }
    }
    Err(ParseError {
        line: header,
        message: "unterminated system block".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHILS: &str = r#"
# two dining philosophers, textual syntax
atom Fork {
  port take, put
  location free init
  location taken
  on take from free to taken
  on put from taken to free
}

atom Phil {
  port eat, release
  var meals = 0
  location thinking init
  location eating
  on eat from thinking to eating when meals < 10 do meals := meals + 1
  on release from eating to thinking
}

system {
  instance p0 : Phil
  instance p1 : Phil
  instance f0 : Fork
  instance f1 : Fork
  connector eat0 = p0.eat + f0.take + f1.take
  connector rel0 = p0.release + f0.put + f1.put
  connector eat1 = p1.eat + f1.take + f0.take
  connector rel1 = p1.release + f1.put + f0.put
  priority eat1 < eat0
}
"#;

    #[test]
    fn parses_and_runs_philosophers() {
        let sys = parse_system(PHILS).unwrap();
        assert_eq!(sys.num_components(), 4);
        assert_eq!(sys.num_connectors(), 4);
        let mut st = sys.initial_state();
        // Priority: eat0 beats eat1 initially.
        let en = sys.enabled(&st);
        assert_eq!(en.len(), 1);
        assert_eq!(sys.connector(en[0].connector).name, "eat0");
        sys.step(&mut st, |_| 0).unwrap();
        assert_eq!(sys.var_value(&st, 0, 0), 1, "meals incremented");
    }

    #[test]
    fn guards_limit_behavior() {
        let sys = parse_system(PHILS).unwrap();
        // After 10 meals, phil0 stops: total state space is finite.
        let r = bip_core_explore(&sys);
        assert!(r > 1);
    }

    fn bip_core_explore(sys: &System) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::new();
        let init = sys.initial_state();
        seen.insert(init.clone());
        queue.push_back(init);
        while let Some(st) = queue.pop_front() {
            for (_, next) in sys.successors(&st) {
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        seen.len()
    }

    #[test]
    fn broadcast_syntax() {
        let src = r#"
atom T {
  port go
  location l init
  on go from l to l
}
system {
  instance a : T
  instance b : T
  broadcast cast = a.go -> b.go
}
"#;
        let sys = parse_system(src).unwrap();
        let st = sys.initial_state();
        // {a} and {a, b} both feasible.
        assert_eq!(sys.enabled(&st).len(), 2);
    }

    #[test]
    fn internal_transitions_and_negative_vars() {
        let src = r#"
atom C {
  var x = -3
  location l init
  internal from l to l when x < 0 do x := x + 1
}
system {
  instance c : C
  # a dummy second atom keeps the system non-trivial
  instance d : C
}
"#;
        let sys = parse_system(src).unwrap();
        let mut st = sys.initial_state();
        assert_eq!(sys.var_value(&st, 0, 0), -3);
        for _ in 0..6 {
            if sys.step(&mut st, |_| 0).is_none() {
                break;
            }
        }
        assert_eq!(sys.var_value(&st, 0, 0), 0);
    }

    #[test]
    fn expression_precedence() {
        let vars: HashMap<String, u32> = [("x".to_string(), 0)].into_iter().collect();
        let toks = tokenize("1 + 2 * 3 == 7 && x > 0").unwrap();
        let e = parse_expr(&toks, &vars).unwrap();
        assert_eq!(e.eval_local(&[5]), 1);
        assert_eq!(e.eval_local(&[-5]), 0);
    }

    #[test]
    fn parenthesized_expressions() {
        let vars = HashMap::new();
        let toks = tokenize("(1 + 2) * 3").unwrap();
        let e = parse_expr(&toks, &vars).unwrap();
        assert_eq!(e.eval_local(&[]), 9);
    }

    #[test]
    fn error_reports_line() {
        let src = "atom A {\n  bogus nonsense\n}\nsystem {\n}\n";
        let e = parse_system(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_instance_rejected() {
        let src = "atom A {\n port p\n location l init\n on p from l to l\n}\nsystem {\n connector c = ghost.p\n}\n";
        assert!(parse_system(src).is_err());
    }

    #[test]
    fn unknown_connector_in_priority_rejected() {
        let src = "atom A {\n port p\n location l init\n on p from l to l\n}\nsystem {\n instance a : A\n connector c = a.p\n priority c < ghost\n}\n";
        assert!(parse_system(src).is_err());
    }

    #[test]
    fn missing_system_rejected() {
        let e = parse_system("atom A {\n location l init\n}\n").unwrap_err();
        assert_eq!(e.line, 3, "the end of the input: {e}");
        for empty in ["", "\n", "   "] {
            assert_eq!(parse_system(empty).unwrap_err().line, 1, "{empty:?}");
        }
    }

    /// A `when` guard of `depth` nested `open`s around `x > 0`.
    fn nested_guard(open: &str, close: &str, depth: usize) -> String {
        format!(
            "atom A {{\n port p\n var x = 0\n location l init\n on p from l to l when {}x > 0{}\n}}\nsystem {{\n instance a : A\n}}\n",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        for (open, close) in [("(", ")"), ("!", ""), ("-", "")] {
            assert!(parse_system(&nested_guard(open, close, MAX_EXPR_DEPTH)).is_ok());
            for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
                let e = parse_system(&nested_guard(open, close, depth)).unwrap_err();
                assert_eq!(e.line, 5, "{open}: {e}");
                assert!(e.message.contains("nested deeper"), "{open}: {e}");
            }
        }
    }

    #[test]
    fn a_second_system_block_is_rejected() {
        let src = "atom A {\n location l init\n}\nsystem {\n instance a : A\n}\nsystem {\n}\n";
        assert_eq!(parse_system(src).unwrap_err().line, 7);
    }

    /// Model errors found when a block is built (duplicate variable,
    /// location or instance, unknown location or port, no `init`) and
    /// unterminated blocks report the block's header line.
    #[test]
    fn block_errors_report_the_header_line() {
        let head = "atom A {\n port p\n location l init\n on p from l to l\n}\n";
        let mut cases = vec![
            (
                format!("{head}\nsystem {{\n instance a : A\n instance a : A\n}}\n"),
                7,
            ),
            (format!("{head}system {{\n instance a : A\n"), 6),
            ("atom A {\n location l init\n".to_string(), 1),
        ];
        for body in [
            "var x = 0\n var x = 1\n location l init",
            "location l init\n location l",
            "port p\n location l init\n on p from l to m",
            "location l init\n on q from l to l",
            "location l",
        ] {
            cases.push((
                format!("# model\n\natom A {{\n {body}\n}}\nsystem {{\n}}\n"),
                3,
            ));
        }
        for (src, line) in cases {
            assert_eq!(parse_system(&src).unwrap_err().line, line, "{src:?}");
        }
    }
}
