//! The seeded request streams: explore statements from templates of the
//! paper's four intentions, and the append batches of the traced run. The
//! program under test only ever sees the generated text.

use std::collections::HashSet;

use crate::rng::Rng;

/// The benchmark kind of an assess statement — the paper's four
/// intentions. Together with cached/uncached it names a request class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Constant,
    External,
    Sibling,
    Past,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Constant, Kind::External, Kind::Sibling, Kind::Past];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Constant => "constant",
            Kind::External => "external",
            Kind::Sibling => "sibling",
            Kind::Past => "past",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub kind: Kind,
    pub text: String,
    /// Whether the template is answerable from the default views (the
    /// other half needs a fact scan).
    pub from_views: bool,
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// Years with at least four preceding years of history (`past k <= 4`).
const PAST_YEARS: [u32; 3] = [1996, 1997, 1998];
const YEARS: [u32; 7] = [1992, 1993, 1994, 1995, 1996, 1997, 1998];

fn labels(rng: &mut Rng) -> String {
    let a = 0.3 + rng.below(600) as f64 / 1000.0;
    let b = 1.05 + rng.below(900) as f64 / 1000.0;
    format!("labels {{[0, {a:.3}): low, [{a:.3}, {b:.3}]: par, ({b:.3}, inf]: high}}")
}

fn two_regions(rng: &mut Rng) -> (&'static str, &'static str) {
    let a = rng.below(REGIONS.len());
    let b = (a + 1 + rng.below(REGIONS.len() - 1)) % REGIONS.len();
    (REGIONS[a], REGIONS[b])
}

fn month(rng: &mut Rng) -> String {
    // 1993-01 ..= 1998-08: every month has at least six predecessors.
    let i = rng.below(68);
    format!("{}-{:02}", 1993 + i / 12, i % 12 + 1)
}

/// One explore statement of `kind`; `from_views` picks a template the
/// default views answer, otherwise one that needs a fact scan.
pub fn explore_statement(rng: &mut Rng, kind: Kind, from_views: bool) -> Stmt {
    let text = match kind {
        Kind::Constant => {
            let (filter, by) = if from_views {
                match rng.below(3) {
                    0 => (format!("for year = '{}'\n", rng.pick(&YEARS)), "c_nation, year"),
                    1 => {
                        (format!("for c_region = '{}'\n", rng.pick(&REGIONS)), "category, c_region")
                    }
                    _ => (
                        String::new(),
                        *rng.pick(&["c_region, year", "s_region, year", "s_nation, year"]),
                    ),
                }
            } else {
                match rng.below(3) {
                    0 => (
                        String::new(),
                        *rng.pick(&["c_region, s_region", "mfgr, year", "category, year"]),
                    ),
                    1 => (format!("for year = '{}'\n", rng.pick(&YEARS)), "c_region, month"),
                    _ => {
                        (format!("for s_region = '{}'\n", rng.pick(&REGIONS)), "c_nation, s_region")
                    }
                }
            };
            let k = 1_000_000 + rng.below(200_000_000);
            format!(
                "with SSB\n{filter}by {by}\nassess revenue against {k}\n\
                 using ratio(revenue, {k})\n{}",
                labels(rng)
            )
        }
        Kind::External => {
            let (filter, by) = if from_views {
                match rng.below(3) {
                    0 => (format!("for c_region = '{}'\n", rng.pick(&REGIONS)), "c_nation, year"),
                    1 => (format!("for year = '{}'\n", rng.pick(&YEARS)), "c_region, year"),
                    _ => (String::new(), "c_region, year"),
                }
            } else {
                match rng.below(2) {
                    0 => (format!("for s_region = '{}'\n", rng.pick(&REGIONS)), "c_region, year"),
                    _ => (format!("for mfgr = 'MFGR#{}'\n", 1 + rng.below(5)), "c_nation, year"),
                }
            };
            format!(
                "with SSB\n{filter}by {by}\nassess revenue against SSB_EXPECTED.expected_revenue\n\
                 using ratio(revenue, benchmark.expected_revenue)\n{}",
                labels(rng)
            )
        }
        Kind::Sibling => {
            let (level, a, b, other) = if from_views {
                match rng.below(3) {
                    0 => {
                        let (a, b) = two_regions(rng);
                        ("c_region", a.to_string(), b.to_string(), *rng.pick(&["mfgr", "category"]))
                    }
                    1 => {
                        let (a, b) = (1993 + rng.below(6), 1992 + rng.below(7));
                        let b = if a == b { a - 1 } else { b };
                        ("year", a.to_string(), b.to_string(), *rng.pick(&["c_region", "c_nation"]))
                    }
                    _ => {
                        let (a, b) = two_regions(rng);
                        ("s_region", a.to_string(), b.to_string(), "year")
                    }
                }
            } else {
                match rng.below(3) {
                    0 => {
                        let (a, b) = two_regions(rng);
                        ("c_region", a.to_string(), b.to_string(), "s_region")
                    }
                    1 => {
                        let (a, b) = (1993 + rng.below(6), 1992 + rng.below(7));
                        let b = if a == b { a - 1 } else { b };
                        ("year", a.to_string(), b.to_string(), *rng.pick(&["mfgr", "category"]))
                    }
                    _ => {
                        let (a, b) = two_regions(rng);
                        ("s_region", a.to_string(), b.to_string(), *rng.pick(&["mfgr", "category"]))
                    }
                }
            };
            format!(
                "with SSB\nfor {level} = '{a}'\nby {other}, {level}\n\
                 assess revenue against {level} = '{b}'\n\
                 using ratio(revenue, benchmark.revenue)\n{}",
                labels(rng)
            )
        }
        Kind::Past => {
            let (time, value, k, other) = if from_views {
                if rng.below(2) == 0 {
                    let y = *rng.pick(&PAST_YEARS);
                    ("year", y.to_string(), 1 + rng.below(4), *rng.pick(&["c_region", "c_nation"]))
                } else {
                    ("month", month(rng), 1 + rng.below(6), *rng.pick(&["s_region", "s_nation"]))
                }
            } else if rng.below(2) == 0 {
                let y = *rng.pick(&PAST_YEARS);
                ("year", y.to_string(), 1 + rng.below(4), *rng.pick(&["mfgr", "category"]))
            } else {
                ("month", month(rng), 1 + rng.below(6), *rng.pick(&["c_region", "mfgr"]))
            };
            format!(
                "with SSB\nfor {time} = '{value}'\nby {other}, {time}\n\
                 assess revenue against past {k}\n\
                 using ratio(revenue, benchmark.revenue)\n{}",
                labels(rng)
            )
        }
    };
    Stmt { kind, text, from_views }
}

/// A seeded stream of pairwise-distinct explore statements, generated as
/// it is consumed: kinds uniform, half from the views and half from fact
/// scans. Distinct text means distinct cache keys, so the stream never
/// hits the result cache.
///
/// Part `part` of `parts` keeps only statements whose text hashes to
/// `part` modulo `parts`, so the sessions of one run never share a
/// statement. Only hashes of what was sent are kept (8 bytes a statement),
/// so the benchmark's own memory stays small beside the server's.
pub struct Explore {
    rng: Rng,
    part: u64,
    parts: u64,
    seen: HashSet<u64>,
}

impl Explore {
    /// `exclude` holds the hashes of statements sent elsewhere (the
    /// warm-up), which the stream skips.
    pub fn new(rng: Rng, part: usize, parts: usize, exclude: HashSet<u64>) -> Self {
        Explore { rng, part: part as u64, parts: parts.max(1) as u64, seen: exclude }
    }
}

impl Iterator for Explore {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        loop {
            let kind = *self.rng.pick(&Kind::ALL);
            let from_views = self.rng.below(2) == 0;
            let stmt = explore_statement(&mut self.rng, kind, from_views);
            let hash = text_hash(&stmt.text);
            if hash % self.parts == self.part && self.seen.insert(hash) {
                return Some(stmt);
            }
        }
    }
}

/// FNV-1a of a statement's text (the same on every build and platform).
pub fn text_hash(text: &str) -> u64 {
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Row counts of the dimension domains that append foreign keys draw from.
#[derive(Clone, Copy, Debug)]
pub struct Domains {
    pub customers: usize,
    pub suppliers: usize,
    pub parts: usize,
    pub dates: usize,
}

/// One append batch as the wire's column object: all nine lineorder
/// columns, foreign keys uniform over their dimension domains.
pub fn append_batch(rng: &mut Rng, domains: Domains, rows: usize) -> String {
    let mut cols: Vec<(&str, Vec<u64>)> = vec![
        ("ckey", Vec::new()),
        ("skey", Vec::new()),
        ("pkey", Vec::new()),
        ("dkey", Vec::new()),
        ("quantity", Vec::new()),
        ("discount", Vec::new()),
        ("extendedprice", Vec::new()),
        ("revenue", Vec::new()),
        ("supplycost", Vec::new()),
    ];
    for _ in 0..rows {
        let quantity = 1 + rng.below(50) as u64;
        let price = 1000 + rng.below(100_000) as u64;
        let discount = rng.below(11) as u64;
        let values = [
            rng.below(domains.customers) as u64,
            rng.below(domains.suppliers) as u64,
            rng.below(domains.parts) as u64,
            rng.below(domains.dates) as u64,
            quantity,
            discount,
            price,
            price * (100 - discount) / 100,
            price * 6 / 10,
        ];
        for (col, v) in cols.iter_mut().zip(values) {
            col.1.push(v);
        }
    }
    let body: Vec<String> = cols
        .iter()
        .map(|(name, vs)| {
            let list: Vec<String> = vs.iter().map(u64::to_string).collect();
            format!("\"{name}\":[{}]", list.join(","))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, part: usize, parts: usize, count: usize) -> Vec<Stmt> {
        Explore::new(Rng::new(seed), part, parts, HashSet::new()).take(count).collect()
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        let a = stream(11, 0, 2, 500);
        assert_eq!(a, stream(11, 0, 2, 500));
        assert_ne!(a, stream(12, 0, 2, 500));
        let d = Domains { customers: 30, suppliers: 20, parts: 200, dates: 2557 };
        assert_eq!(append_batch(&mut Rng::new(5), d, 4), append_batch(&mut Rng::new(5), d, 4));
    }

    #[test]
    fn explore_statements_are_distinct_and_balanced() {
        let stream = stream(1, 0, 1, 2000);
        let texts: HashSet<&str> = stream.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts.len(), stream.len());
        let views = stream.iter().filter(|s| s.from_views).count();
        assert!((800..1200).contains(&views), "{views} of 2000 from views");
        for kind in Kind::ALL {
            assert!(stream.iter().filter(|s| s.kind == kind).count() > 350);
        }
    }

    #[test]
    fn parts_are_disjoint_and_skip_excluded_statements() {
        let exclude: HashSet<u64> =
            stream(3, 0, 1, 40).iter().map(|s| text_hash(&s.text)).collect();
        let parts: Vec<Vec<Stmt>> = (0..2)
            .map(|p| Explore::new(Rng::new(3), p, 2, exclude.clone()).take(1000).collect())
            .collect();
        let mut all = HashSet::new();
        for s in parts.iter().flatten() {
            assert!(!exclude.contains(&text_hash(&s.text)));
            assert!(all.insert(s.text.as_str()), "sent twice: {}", s.text);
        }
    }
}
