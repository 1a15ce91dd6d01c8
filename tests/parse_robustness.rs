//! `parse_system` on arbitrary input: it returns `Ok` or an `Err` naming a
//! line of the input, and never panics; a model it accepts runs through a
//! bounded explicit search and a depth-1 proof attempt without panicking.
//!
//! Three seeded generators feed it:
//!
//! * byte-level mutations (replace, insert, delete) of the `parse`
//!   module-doc example;
//! * soups of grammar tokens, mostly shaped as atom and system items so
//!   that a share of them parses, with `i64::MIN` / `i64::MAX` literals;
//! * line deletions, swaps and duplications of the example or of a soup.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bip_core::{parse_system, StatePred};
use bip_verify::control::Budget;
use bip_verify::kind::KindConfig;
use bip_verify::reach::{explore_with, ReachConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `parse` module-doc example.
const EXAMPLE: &str = "\
atom Fork {
  port take, put
  location free init
  location taken
  on take from free to taken
  on put  from taken to free
}

atom Phil {
  port eat, release
  var meals = 0
  location thinking init
  location eating
  on eat     from thinking to eating  when meals < 10  do meals := meals + 1
  on release from eating   to thinking
}

system {
  instance p0 : Phil
  instance f0 : Fork
  instance f1 : Fork
  connector eat0 = p0.eat + f0.take + f1.take
  connector rel0 = p0.release + f0.put + f1.put
  broadcast beat = p0.eat -> f0.take
  priority rel0 < eat0
}
";

/// Cases per generator.
const CASES: usize = 2_000;

const ATOMS: &[&str] = &["A", "B"];
const PORTS: &[&str] = &["p", "q"];
const LOCS: &[&str] = &["l0", "l1"];
const VARS: &[&str] = &["x", "y"];
const INSTANCES: &[&str] = &["i0", "i1"];
const CONNECTORS: &[&str] = &["c0", "c1"];
/// Literals, `i64::MAX` and `-i64::MAX` among them.
const INTS: &[&str] = &[
    "0",
    "1",
    "3",
    "-1",
    "9223372036854775807",
    "-9223372036854775807",
];
/// `i64::MIN`'s magnitude does not fit an `i64` literal.
const OUT_OF_RANGE: &[&str] = &["9223372036854775808", "-9223372036854775808"];
const OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
];
const KEYWORDS: &[&str] = &[
    "atom",
    "system",
    "port",
    "var",
    "location",
    "init",
    "on",
    "internal",
    "from",
    "to",
    "when",
    "do",
    "instance",
    "connector",
    "broadcast",
    "priority",
];
const PUNCT: &[&str] = &[
    "{", "}", "(", ")", ",", "=", ":=", ".", ":", "->", "!", "#", "<",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// An integer literal, out of range one time in five hundred.
fn int(rng: &mut StdRng) -> &'static str {
    if rng.gen_bool(0.002) {
        pick(rng, OUT_OF_RANGE)
    } else {
        pick(rng, INTS)
    }
}

/// A random expression over `VARS` and `INTS`, at most `depth` deep.
fn expr(rng: &mut StdRng, depth: usize) -> String {
    match if depth == 0 { 0 } else { rng.gen_range(0..5) } {
        0 if rng.gen_bool(0.5) => pick(rng, VARS).to_string(),
        0 => int(rng).to_string(),
        1 => format!("!{}", expr(rng, depth - 1)),
        2 => format!("({})", expr(rng, depth - 1)),
        // Unparenthesised one time in ten: chained comparisons do not parse.
        _ => {
            let (a, op, b) = (expr(rng, depth - 1), pick(rng, OPS), expr(rng, depth - 1));
            if rng.gen_bool(0.9) {
                format!("({a} {op} {b})")
            } else {
                format!("{a} {op} {b}")
            }
        }
    }
}

/// Any grammar token.
fn token(rng: &mut StdRng) -> String {
    let pools: [&[&str]; 11] = [
        ATOMS,
        PORTS,
        LOCS,
        VARS,
        INSTANCES,
        CONNECTORS,
        INTS,
        OUT_OF_RANGE,
        OPS,
        KEYWORDS,
        PUNCT,
    ];
    let pool = pools[rng.gen_range(0..pools.len())];
    pick(rng, pool).to_string()
}

fn soup_line(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..8);
    (0..n).map(|_| token(rng)).collect::<Vec<_>>().join(" ")
}

fn transition(rng: &mut StdRng) -> String {
    let head = if rng.gen_bool(0.8) {
        format!("on {}", pick(rng, PORTS))
    } else {
        "internal".to_string()
    };
    let mut line = format!("{head} from {} to {}", pick(rng, LOCS), pick(rng, LOCS));
    if rng.gen_bool(0.5) {
        line += &format!(" when {}", expr(rng, 3));
    }
    if rng.gen_bool(0.5) {
        line += &format!(" do {} := {}", pick(rng, VARS), expr(rng, 3));
    }
    line
}

fn endpoint(rng: &mut StdRng) -> String {
    format!("{}.{}", pick(rng, INSTANCES), pick(rng, PORTS))
}

fn system_item(rng: &mut StdRng) -> String {
    let (c, e, f) = (pick(rng, CONNECTORS), endpoint(rng), endpoint(rng));
    match rng.gen_range(0..3) {
        0 => format!("connector {c} = {e} + {f}"),
        1 => format!("broadcast {c} = {e} -> {f}"),
        _ => format!("priority {c} < {}", pick(rng, CONNECTORS)),
    }
}

/// A well-formed skeleton (atoms `A` and `B`, two instances) with random
/// transitions, expressions, connectors and priorities; each line is
/// replaced by a raw soup of tokens one time in a hundred.
fn token_soup(rng: &mut StdRng) -> String {
    let mut lines = Vec::new();
    for atom in ATOMS {
        lines.push(format!("atom {atom} {{"));
        lines.push("port p, q".to_string());
        for var in VARS {
            if rng.gen_bool(0.97) {
                lines.push(format!("var {var} = {}", int(rng)));
            }
        }
        lines.push("location l0 init".to_string());
        lines.push("location l1".to_string());
        for _ in 0..rng.gen_range(1..5) {
            lines.push(transition(rng));
        }
        lines.push("}".to_string());
    }
    lines.push("system {".to_string());
    for inst in INSTANCES {
        lines.push(format!("instance {inst} : {}", pick(rng, ATOMS)));
    }
    for _ in 0..rng.gen_range(0..5) {
        lines.push(system_item(rng));
    }
    lines.push("}".to_string());
    for line in &mut lines {
        if rng.gen_bool(0.01) {
            *line = soup_line(rng);
        }
    }
    lines.join("\n")
}

/// One to four byte replacements, insertions or deletions of `src`.
fn mutate_bytes(src: &str, rng: &mut StdRng) -> String {
    const INTERESTING: &[u8] = b"{}()=:.,+-*/%<>!&|#_ \n\t09aZ";
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let b = if rng.gen_bool(0.5) {
            INTERESTING[rng.gen_range(0..INTERESTING.len())]
        } else {
            rng.next_u64() as u8
        };
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3) {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => {
                bytes.remove(at);
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One to three line deletions, swaps or duplications of `src`.
fn shuffle_lines(src: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    for _ in 0..rng.gen_range(1..4) {
        if lines.is_empty() {
            break;
        }
        let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
        match rng.gen_range(0..3) {
            0 => {
                lines.remove(i);
            }
            1 => lines.swap(i, j),
            _ => lines.insert(j, lines[i]),
        }
    }
    lines.join("\n")
}

/// Parse `src`; on `Ok`, drive the engines. Returns whether it parsed, or
/// why the error is malformed.
fn parse_and_run(src: &str) -> Result<bool, String> {
    match parse_system(src) {
        Err(e) if e.line == 0 || e.line > src.lines().count().max(1) => {
            Err(format!("error line {} outside the input: {e}", e.line))
        }
        Err(_) => Ok(false),
        Ok(sys) => {
            let _ = explore_with(&sys, &ReachConfig::bounded(300));
            let _ = KindConfig::new(&sys)
                .max_k(1)
                .budget(Budget::unlimited().conflicts(2_000))
                .prove(&StatePred::True);
            Ok(true)
        }
    }
}

#[test]
fn parse_system_never_panics_on_arbitrary_input() {
    assert!(parse_system(EXAMPLE).is_ok(), "the example parses");
    let mut rng = StdRng::seed_from_u64(0x9a75e);
    let mut parsed = [0usize; 3];
    for case in 0..CASES {
        for (kind, count) in parsed.iter_mut().enumerate() {
            let src = match kind {
                0 => mutate_bytes(EXAMPLE, &mut rng),
                1 => token_soup(&mut rng),
                _ if rng.gen_bool(0.5) => shuffle_lines(EXAMPLE, &mut rng),
                _ => shuffle_lines(&token_soup(&mut rng), &mut rng),
            };
            match catch_unwind(AssertUnwindSafe(|| parse_and_run(&src))) {
                Ok(Ok(ok)) => *count += usize::from(ok),
                Ok(Err(msg)) => panic!("case {case}: {msg}\ninput:\n{src}"),
                Err(_) => panic!("case {case}: panicked on\n{src}"),
            }
        }
    }
    // Each generator must also reach the engines, not only the parser's
    // error paths.
    for (kind, count) in parsed.iter().enumerate() {
        assert!(*count > 0, "generator {kind}: no input parsed");
    }
}
